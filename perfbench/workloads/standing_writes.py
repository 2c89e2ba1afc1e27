"""``standing_writes``: writes beside reads on a durable mutable table.

One in-process client calls ``QueryService.handle`` over a
``DatasetCatalog`` with a ``DurableStore`` (fsync on, snapshot every 256
records, the defaults).  The catalog holds one mutable
``synthetic:tuples=5000,me=0`` table with 12 standing subscriptions.

The client sends a seeded stream of insert, expire, update_probability
and update_score mutations, scores drawn from the table's N(150, 60)
marginal.  Every 10th operation is a ``/v1/answer`` read whose spec no
subscription shares: the version has changed since the previous read,
so every read is cold and all reads cost the same kind of work.

A warm-up of 700 operations fills the session caches first (see
:data:`WARMUP_OPS`).  After the stream the service is shut down and the
data directory is reopened three times (store, catalog, service with
its restored subscriptions): ``recover_s`` is the median.

Correctness: the final subscription answers must equal a cold
recompute, every reopen must come back at the version the
acknowledged writes reached, and every request must answer 200.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import time
from typing import Any

from harness import (
    BUILD_DIR,
    Latencies,
    ProcCounters,
    Result,
    median,
    peak_rss_mb,
    reset_peak_rss,
)

TUPLES = 5000
SUBSCRIBED = ("typical", "pt_k", "global_topk", "expected_ranks")
SUB_KS = (5, 10, 20)
SUB_P_TAU = 0.01
#: The read: a spec no subscription shares.
READ = {"semantics": "typical", "k": 8, "p_tau": 0.02}
READ_EVERY = 10
REOPENS = 3
#: Operations before the measured phase.  Each read adds one entry to
#: the session's 64-entry stage caches; until they are full, reads get
#: slower as the heap the collector walks grows.  700 operations hold
#: 70 reads.
WARMUP_OPS = 700
#: About 1,100 writes and 125 reads per 20 s: p98 leaves 22 writes,
#: p90 leaves 12 reads.
WRITE_TAIL_PCT = 98.0
READ_TAIL_PCT = 90.0


#: The table is the same for every run (reads on it then cost the same);
#: the seed drives the mutation stream.
SOURCE = f"synthetic:tuples={TUPLES},me=0,seed=7"


def _open(data_dir) -> Any:
    from repro.service import DatasetCatalog
    from repro.service.server import QueryService
    from repro.standing import DurableStore

    store = DurableStore(data_dir)
    catalog = DatasetCatalog({"live": SOURCE}, store=store)
    return QueryService(catalog)


def _close(service: Any) -> None:
    service.shutdown(drain=True)


def setup(data_dir) -> Any:
    """A fresh durable catalog with the 12 subscriptions registered."""
    shutil.rmtree(data_dir, ignore_errors=True)
    service = _open(data_dir)
    for semantics in SUBSCRIBED:
        for k in SUB_KS:
            reply = service.handle(
                "subscribe",
                {"table": "live", "k": k, "semantics": semantics,
                 "p_tau": SUB_P_TAU},
            )
            if reply.status != 200:
                raise RuntimeError(f"subscribe failed: {reply.document}")
    return service


def _data_dir():
    return BUILD_DIR / "state" / f"standing-{os.getpid()}"


def setup_probe(seed: int) -> None:
    data_dir = _data_dir()
    try:
        _close(setup(data_dir))
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def mutations(seed: int, tids: list):
    """Endless seeded mutation payloads, valid against ``tids`` (which
    this generator keeps current)."""
    rng = random.Random(seed)
    counter = 0
    live = list(tids)
    while True:
        op = rng.choice(("insert", "expire", "update_probability",
                         "update_score"))
        if op == "insert" or len(live) < 2:
            counter += 1
            tid = f"w{counter}"
            live.append(tid)
            yield {
                "table": "live", "op": "insert", "tid": tid,
                "attributes": {"score": rng.gauss(150.0, 60.0)},
                "probability": rng.uniform(0.05, 0.95),
            }
            continue
        index = rng.randrange(len(live))
        tid = live[index]
        if op == "expire":
            live[index] = live[-1]
            live.pop()
            yield {"table": "live", "op": "expire", "tid": tid}
        elif op == "update_probability":
            yield {"table": "live", "op": op, "tid": tid,
                   "probability": rng.uniform(0.05, 0.95)}
        else:
            yield {"table": "live", "op": op, "tid": tid,
                   "attributes": {"score": rng.gauss(150.0, 60.0)}}


def _tiers(service: Any) -> dict[str, int]:
    document = service.standing.describe()
    return {tier: document[tier] for tier in ("skip", "patch", "recompute")}


def measure(seed: int, seconds: float, inter: Any, result: Result) -> dict:
    """The untraced (``inter is None``) or interleaved traced phase.

    Traced, each block is ten operations (nine writes and a read).
    """
    data_dir = _data_dir()
    try:
        return _measure(seed, seconds, inter, result, data_dir)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def _measure(seed, seconds, inter, result, data_dir) -> dict:
    service = setup(data_dir)
    table = service.catalog.session.catalog.resolve("live")
    stream = mutations(seed, list(table.tids))
    reads = Latencies(READ_TAIL_PCT)
    writes = Latencies(WRITE_TAIL_PCT)
    version0 = table.version
    acked = 0
    clock = time.perf_counter

    def step(number: int) -> tuple[str, float | None]:
        """Operation ``number``: every READ_EVERY-th a read, else a write."""
        result.attempted += 1
        if number % READ_EVERY == 0:
            endpoint, payload = "answer", {"table": "live", **READ}
        else:
            endpoint, payload = "mutate", next(stream)
        began = clock()
        reply = service.handle(endpoint, payload)
        elapsed = clock() - began
        if reply.status != 200:
            result.failed += 1
            result.info.setdefault("errors", []).append(
                str(reply.document.get("error"))[:200]
            )
            return endpoint, None
        return endpoint, elapsed

    ops = 0
    for _ in range(WARMUP_OPS):
        ops += 1
        endpoint, took = step(ops)
        acked += endpoint == "mutate" and took is not None
    tiers_before = _tiers(service)
    proc = ProcCounters()
    reset_peak_rss()
    proc.start()
    start = clock()
    deadline = start + seconds
    while clock() < deadline:
        ops += 1
        if inter is not None and ops % READ_EVERY == 1:
            inter.next_block()
        endpoint, took = step(ops)
        if took is None:
            continue
        if endpoint == "mutate":
            acked += 1
            writes.add(took)
        else:
            reads.add(took)
        if inter is not None:
            inter.add(took, write=endpoint == "mutate")
    elapsed = clock() - start
    proc.stop()
    rss = peak_rss_mb()
    summary = None
    if inter is not None:
        inter.close()
        summary = inter.tracer.summary()
        inter.toggle(True)  # the reopens are traced too
    tiers_after = _tiers(service)
    _check_subscriptions(service, table, result)
    _close(service)
    recover = []
    for _ in range(REOPENS):
        began = clock()
        reopened = _open(data_dir)
        recover.append(clock() - began)
        version = reopened.catalog.session.catalog.resolve("live").version
        if version != version0 + acked:
            result.mismatch(
                f"reopened at version {version}, expected "
                f"{version0 + acked} after {acked} acknowledged writes"
            )
        _close(reopened)
    if inter is not None:
        inter.toggle(False)
    phase = {
        "latencies": reads,
        "write_latencies": writes,
        "elapsed": elapsed,
        "proc": proc,
        "rss": rss,
        "summary": summary,
        "tiers": {k: tiers_after[k] - tiers_before[k] for k in tiers_after},
    }
    if inter is not None:
        # Set-up ran untraced, so every recovery span is a reopen's.
        recovery = inter.tracer.summary()
        calls = recovery["calls"].get("recovery.load", 0)
        phase["recovery"] = {
            "recovery.replay_ms": recovery["total_s"].get(
                "recovery.load", 0.0) * 1e3 / calls if calls else 0.0,
            "recovery.records": recovery["counts"].get(
                "recovery.records", 0) / calls if calls else 0.0,
        }
    else:
        _report(result, reads, writes, elapsed, rss, recover)
    return phase


def _check_subscriptions(service: Any, table: Any, result: Result) -> None:
    """Every maintained answer equals a cold recompute."""
    from repro import Session
    from repro.io.json_io import answer_to_jsonable

    cold = Session({"live": table})
    subs = service.standing.subscriptions()
    for sub in subs:
        maintained = service.standing.snapshot(sub.sid)["answer"]
        expected = answer_to_jsonable(cold.execute(sub.spec))
        if json.dumps(maintained) != json.dumps(expected):
            result.mismatch(
                f"subscription {sub.sid} ({sub.spec.semantics} "
                f"k={sub.spec.k}) differs from a cold recompute"
            )
    result.info["checked_subscriptions"] = len(subs)


def _report(result, reads, writes, elapsed, rss, recover) -> None:
    for prefix, lat, unit in (("query", reads, "queries_per_s"),
                              ("write", writes, "writes_per_s")):
        result.metric(f"{prefix}_p50_ms", lat.p50_ms(), "ms", len(lat))
        result.metric(
            f"{prefix}_tail_ms",
            lat.tail_ms(),
            "ms",
            len(lat),
            f"p{lat.tail_pct:g}"
            + ("" if lat.tail_supported() else ", under 10 beyond"),
        )
        result.metric(unit, len(lat) / elapsed, "1/s", len(lat))
    result.metric("peak_rss_mb", rss, "MB", 1, "VmHWM")
    result.metric("recover_s", median(recover), "s", len(recover), "median")


def layer_extras(phase: dict) -> dict[str, float]:
    extras = {f"standing.tier.{k}": v for k, v in phase["tiers"].items()}
    extras.update(phase.get("recovery", {}))
    return extras
