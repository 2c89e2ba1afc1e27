"""``cold_exact``: closed-loop c-Typical-Topk queries, every one a miss.

One in-process client calls ``Session.execute`` back to back.  The
catalog holds four CarTel areas (congestion scorer, ME fraction 0.75),
two resident synthetic tables and one 200k-tuple synthetic table packed
on disk (about 18 MB of item pages, above the 16 MiB page budget).
Each query perturbs ``p_tau`` by a unique relative 1e-9 step, which
misses every session cache without moving the Theorem-2 depth.

Queries come in rounds of ten with the same mix (see :data:`ROUND`);
one in ten runs at ``max_lines=1000``, the budget EXPLAIN misprices,
and one in ten is a seeded Monte-Carlo estimate (``algorithm="mc"``).
A run measures as many whole rounds as fit ``--seconds`` at the seed
commit's speed.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import subprocess
import sys
import time
from typing import Any

from harness import BUILD_DIR, ROOT, Latencies, Result

KS = (5, 10, 20)
P_TAUS = (1e-2, 1e-3, 1e-4)
AREA_SEEDS = (11, 23, 47, 59)
SYNTHETIC_SEEDS = (97, 98)
PACKED_SPEC = "synthetic:tuples=200000,me=0.3,seed=3"
#: Queries re-checked against the python backend after the phase, per
#: algorithm: the first exact (k <= 10, 200 lines) and Monte-Carlo ones.
CHECK_QUERIES = {"auto": 4, "mc": 2}
#: The Monte-Carlo slot: a fixed world count and sampling seed, so the
#: estimate is deterministic.  5,000 worlds on the 2,000-tuple tables
#: cost about what an exact k=5 query costs (65-70 ms against 70-85 ms).
MC_SAMPLES = 5000
MC_SEED = 5
#: 100 queries per 20 s leave 10 beyond p90.
TAIL_PCT = 90.0


def source_digest() -> str:
    """A digest of the program's Python sources (``src/repro``)."""
    digest = hashlib.blake2b(digest_size=8)
    src = ROOT / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def packed_path():
    """The packed table, keyed by the sources that packed it: another
    version of the program (its page layout or encoding changed, say)
    packs its own copy instead of reading this one's."""
    return BUILD_DIR / "inputs" / f"packed_200k-{source_digest()}"


def prepare_inputs() -> None:
    """Pack the large table once per checkout and program version
    (``repro pack``), the way users pack once and query many times.
    Not timed."""
    path = packed_path()
    if (path / ".complete").exists():
        return
    shutil.rmtree(path, ignore_errors=True)  # an interrupted pack
    path.parent.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "pack",
            PACKED_SPEC,
            "--out",
            str(path),
            "--scorer",
            "score",
        ],
        check=True,
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
    )
    (path / ".complete").write_text("ok\n")


def build_tables() -> dict[str, Any]:
    from repro.bench.workloads import cartel_workload, synthetic_workload
    from repro.storage import open_table

    tables: dict[str, Any] = {}
    for index, seed in enumerate(AREA_SEEDS):
        tables[f"area{index}"] = cartel_workload(
            seed=seed, segments=120, me_fraction=0.75
        )
    for index, seed in enumerate(SYNTHETIC_SEEDS):
        tables[f"syn{index}"] = synthetic_workload(
            tuples=2000, me_fraction=0.5, seed=seed
        )
    tables["packed"] = open_table(packed_path())
    return tables


def setup() -> dict[str, Any]:
    """Everything a user does before the first query."""
    from repro import Session
    from repro.bench.workloads import congestion_scorer
    from repro.core.kernels import native_available

    native_available()  # load the compiled kernel
    tables = build_tables()
    return {
        "session": Session(tables),
        "tables": tables,
        "scorer": congestion_scorer(),
    }


WIDE = {"max_lines": 1000}
MC = {"algorithm": "mc", "samples": MC_SAMPLES, "seed": MC_SEED}
#: One round: (k, p_tau, extra spec fields).  Six exact k=5 queries and
#: the Monte-Carlo one hold the bottom 70% of a run's latencies, so the
#: median sits inside one cost mode; the k=20 and the wide line budget
#: (the dear pair) hold the top 20%, around the p90 tail.  The k=10 and
#: k=20 thresholds rotate per round.
ROUND = (
    (5, 1e-2, {}),
    (5, 1e-3, {}),
    (5, 1e-4, {}),
    (5, 1e-2, {}),
    (5, 1e-3, {}),
    (5, 1e-4, {}),
    (5, 1e-3, MC),
    (10, None, {}),
    (20, None, {}),
    (5, 1e-2, WIDE),
)
#: Seconds one round takes at the seed commit on a 2-vCPU x86-64 VM;
#: a run measures ``round(seconds / ROUND_SECONDS)`` whole rounds, so
#: every run measures the same amount and mix of work.
ROUND_SECONDS = 2.0


def setup_probe(seed: int) -> None:
    setup()


def query_rounds(
    seed: int, scorer: Any, rounds: int, copies: int = 1
) -> list[list[tuple[Any, ...]]]:
    """The seeded query rounds of one run: per round, per slot, a tuple
    of ``copies`` specs that differ only in their unique perturbation.

    Every round holds the :data:`ROUND` shapes on tables that rotate
    per round.  The seed orders each round and perturbs the thresholds,
    so runs differ in inputs but not in the mix.
    """
    from repro import QuerySpec

    rng = random.Random(seed)
    names = [f"area{i}" for i in range(len(AREA_SEEDS))] + [
        f"syn{i}" for i in range(len(SYNTHETIC_SEEDS))
    ] + ["packed"]
    serial = 0
    out = []
    for round_no in range(rounds):
        shapes = []
        for slot, (k, p_tau, kwargs) in enumerate(ROUND):
            if p_tau is None:
                p_tau = P_TAUS[round_no % len(P_TAUS)]
            if kwargs is WIDE:  # the wide budget runs on the CarTel areas
                name = f"area{round_no % len(AREA_SEEDS)}"
            elif kwargs is MC:  # and sampling on the synthetic tables
                name = f"syn{round_no % len(SYNTHETIC_SEEDS)}"
            else:
                name = names[(slot + round_no) % len(names)]
            shapes.append((name, k, p_tau, kwargs))
        rng.shuffle(shapes)
        specs = []
        for name, k, p_tau, kwargs in shapes:
            twins = []
            for _ in range(copies):
                serial += 1
                twins.append(
                    QuerySpec(
                        table=name,
                        scorer=scorer if name.startswith("area") else "score",
                        k=k,
                        # unique per query: misses every cache
                        p_tau=p_tau * (1.0 + (serial + rng.random()) * 1e-9),
                        semantics="typical",
                        **kwargs,
                    )
                )
            specs.append(tuple(twins))
        out.append(specs)
    return out


def _answer_bytes(answer: Any) -> bytes:
    import json

    from repro.io.json_io import answer_to_jsonable

    return json.dumps(answer_to_jsonable(answer), sort_keys=True).encode()


def _page_info(tables: dict[str, Any]) -> dict:
    return {"packed": tables["packed"].store.cache_info()}


def _wanted(spec: Any, answers: list) -> bool:
    """Whether to keep this answer for the python-backend check."""
    if spec.algorithm == "auto" and (spec.k > 10 or spec.max_lines != 200):
        return False
    kept = sum(1 for other, _ in answers if other.algorithm == spec.algorithm)
    return kept < CHECK_QUERIES[spec.algorithm]


def run_phase(seed: int, seconds: float, inter: Any, result: Result):
    """One measured phase on a fresh set-up.  Returns its numbers.

    Traced (``inter`` given), a run measures half as many rounds and
    every query twice, as twin specs one traced and one not, so the
    pair's difference is the tracing overhead on that query.
    """
    from harness import ProcCounters, reset_peak_rss, peak_rss_mb

    state = setup()
    session = state["session"]
    rounds = max(1, round(seconds / ROUND_SECONDS))
    copies = 1
    if inter is not None:
        rounds, copies = max(1, round(rounds / 2)), 2
    plan = query_rounds(seed, state["scorer"], rounds, copies)
    latencies = Latencies(TAIL_PCT)
    answers: list[tuple[Any, bytes]] = []
    proc = ProcCounters()
    cache_before = session.cache_info()
    pages_before = _page_info(state["tables"])
    reset_peak_rss()
    proc.start()
    start = time.perf_counter()
    for specs in plan:
        for spec in (spec for twins in specs for spec in twins):
            if inter is not None:
                inter.next_block()
            began = time.perf_counter()
            result.attempted += 1
            try:
                answer = session.execute(spec)
            except Exception as exc:  # counted; the run goes on
                result.failed += 1
                result.info.setdefault("errors", []).append(repr(exc)[:200])
                continue
            took = time.perf_counter() - began
            latencies.add(took)
            if inter is not None:
                inter.add(took)
            if _wanted(spec, answers):
                answers.append((spec, _answer_bytes(answer)))
    elapsed = time.perf_counter() - start
    if inter is not None:
        inter.close()
    proc.stop()
    rss = peak_rss_mb()
    return {
        "latencies": latencies,
        "elapsed": elapsed,
        "answers": answers,
        "tables": state["tables"],
        "proc": proc,
        "rss": rss,
        "cache": (cache_before, session.cache_info()),
        "pages": (pages_before, _page_info(state["tables"])),
    }


def check_answers(tables: dict, answers: list, result: Result) -> None:
    """Re-run the sampled queries under the python backend in a fresh
    session: the answers must be byte-identical.  Not timed."""
    from repro import Session

    os.environ["REPRO_BACKEND"] = "python"
    try:
        reference = Session(tables)
        for spec, expected in answers:
            if _answer_bytes(reference.execute(spec)) != expected:
                result.mismatch(
                    f"{spec.table} k={spec.k} p_tau={spec.p_tau!r}: "
                    f"{spec.algorithm} answer differs from the python "
                    "backend's"
                )
    finally:
        del os.environ["REPRO_BACKEND"]
    result.info["checked_answers"] = len(answers)


def measure(seed: int, seconds: float, inter: Any, result: Result) -> dict:
    """The untraced (``inter is None``) or interleaved traced phase."""
    phase = run_phase(seed, seconds, inter, result)
    lat: Latencies = phase["latencies"]
    check_answers(phase["tables"], phase["answers"], result)
    if inter is None:
        result.metric("query_p50_ms", lat.p50_ms(), "ms", len(lat))
        result.metric(
            "query_tail_ms",
            lat.tail_ms(),
            "ms",
            len(lat),
            f"p{lat.tail_pct:g}"
            + ("" if lat.tail_supported() else ", under 10 beyond"),
        )
        result.metric(
            "queries_per_s", len(lat) / phase["elapsed"], "1/s", len(lat)
        )
        result.metric("peak_rss_mb", phase["rss"], "MB", 1, "VmHWM")
    return phase


def layer_extras(phase: dict) -> dict[str, float]:
    from tracing import cache_ratios, storage_counters

    reads = len(phase["latencies"])
    extras = cache_ratios(*phase["cache"])
    extras.update(storage_counters(*phase["pages"], reads))
    return extras
