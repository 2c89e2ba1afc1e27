"""The committed performance baseline (``repro bench --json``).

One fixed set of named workloads covering the three performance
pillars — the independent-tuples dynamic program, the shared-prefix
mutual-exclusion path (with its per-ending ablation twin for the
trajectory), and the delta-maintained sliding window (with its
from-scratch twin) — timed with
:func:`repro.bench.runner.time_callable` and written to
``BENCH_core.json`` at the repository root.  The committed file gives
future changes a trajectory to compare against; the ``tiny_*``
workloads double as the CI perf-smoke set (``repro bench --tiny
--check BENCH_core.json`` fails on crash or on a >3x slowdown against
the committed numbers).

Workload sizes are fixed and seeded, so two runs on the same machine
are comparable; absolute numbers across machines are not, which is why
every baseline also times a fixed *calibration* workload in the same
run and the regression guard compares calibration-normalized ratios —
a uniformly slower CI runner cancels out, and only genuine relative
slowdowns (beyond the generous factor) trip the guard.  The probe is
plain seeded numpy that calls nothing in ``repro``, so neither the DP
backend nor the code under test can move it; the backend the workloads
ran on is recorded instead (``meta.backend``), and a check against a
baseline recorded on another backend is refused rather than compared.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path
from typing import Callable

import numpy as np

from repro.bench.runner import time_callable
from repro.bench.workloads import cartel_workload, congestion_scorer
from repro.core import kernels
from repro.core.distribution import prepare_scored_prefix
from repro.core.dp import dp_distribution, dp_distribution_per_ending
from repro.stream.window import SlidingWindowTopK

#: Default output path, relative to the working directory.
DEFAULT_BASELINE_PATH = "BENCH_core.json"

#: Regression-guard threshold: fail when a workload runs this many
#: times slower than the committed baseline.
DEFAULT_GUARD_FACTOR = 3.0

#: The paper's experimental probability threshold.
P_TAU = 1e-3


def _independent_case(tuples: int, k: int) -> Callable[[], object]:
    from repro.bench.workloads import synthetic_workload

    table = synthetic_workload(tuples=tuples, me_fraction=0.0)
    prefix = prepare_scored_prefix(table, "score", k, p_tau=P_TAU)
    return lambda: dp_distribution(prefix, k)


def _me_case(
    segments: int, k: int, per_ending: bool
) -> Callable[[], object]:
    table = cartel_workload(segments=segments)
    prefix = prepare_scored_prefix(table, congestion_scorer(), k, p_tau=P_TAU)
    algorithm = dp_distribution_per_ending if per_ending else dp_distribution
    return lambda: algorithm(prefix, k)


def _streaming_case(
    window: int, k: int, slides: int, incremental: bool
) -> Callable[[], object]:
    def run() -> float:
        win = SlidingWindowTopK(window=window, k=k, incremental=incremental)
        rng = np.random.default_rng(11)
        for _ in range(window):
            win.append(
                {"score": float(rng.uniform(0, 1000))},
                probability=float(rng.uniform(0.2, 1.0)),
            )
        total = 0.0
        for _ in range(slides):
            win.append(
                {"score": float(rng.uniform(0, 1000))},
                probability=float(rng.uniform(0.2, 1.0)),
            )
            total += win.distribution().expectation()
        return total

    return run


def workload_factories(tiny_only: bool = False) -> dict[str, Callable]:
    """Named workload constructors (each returns a timed callable).

    ``tiny_*`` workloads are sized for the CI perf-smoke step; the full
    set (default) additionally covers paper-scale configurations.
    """
    tiny: dict[str, Callable[[], Callable]] = {
        "tiny_independent_dp_n80_k5": lambda: _independent_case(80, 5),
        "tiny_me_shared_prefix_cartel40_k5": lambda: _me_case(40, 5, False),
        "tiny_streaming_delta_w60_k3": lambda: _streaming_case(
            60, 3, 30, True
        ),
    }
    if tiny_only:
        return tiny
    full: dict[str, Callable[[], Callable]] = {
        "independent_dp_n300_k10": lambda: _independent_case(300, 10),
        "me_shared_prefix_cartel120_k10": lambda: _me_case(120, 10, False),
        "me_per_ending_cartel120_k10": lambda: _me_case(120, 10, True),
        "streaming_delta_w500_k5": lambda: _streaming_case(
            500, 5, 100, True
        ),
        "streaming_scratch_w500_k5": lambda: _streaming_case(
            500, 5, 100, False
        ),
    }
    return {**tiny, **full}


def _calibration_factory() -> Callable[[], object]:
    """The fixed machine-speed probe timed alongside every baseline.

    Seeded numpy work shaped like a DP cell reduce — shift, stable
    merge position, grid bucketing and segment sums over a few hundred
    lines, repeated — so it is bound by the same small-array overheads
    as the guarded workloads.  It calls nothing in ``repro``: a faster
    kernel backend or a change to the code under test cannot move the
    yardstick the guard divides by.
    """
    rng = np.random.default_rng(2009)
    scores = np.sort(rng.uniform(0.0, 100.0, 400))
    probs = rng.uniform(0.05, 1.0, 400)
    shifts = rng.uniform(0.0, 10.0, 600)

    def run() -> float:
        total = 0.0
        for shift in shifts:
            moved = scores + shift
            positions = np.searchsorted(scores, moved, side="right")
            buckets = np.minimum(
                ((moved - moved[0]) / 0.55).astype(np.int64), 199
            )
            sums = np.bincount(buckets, weights=probs * moved)
            total += float(sums.max()) + float(positions[-1])
        return total

    return run


def run_baseline(
    *, tiny_only: bool = False, repeats: int = 3
) -> dict[str, object]:
    """Time every workload; return the machine-readable baseline."""
    seconds: dict[str, float] = {}
    for name, factory in workload_factories(tiny_only).items():
        case = factory()  # setup (dataset + prefix) outside the timer
        seconds[name] = time_callable(case, repeats=repeats).seconds
    calibration = time_callable(
        _calibration_factory(), repeats=max(3, repeats)
    ).seconds
    return {
        "schema": 2,
        "meta": {
            "repeats": repeats,
            "tiny_only": tiny_only,
            "backend": kernels.resolve_backend(None),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "calibration": {"seconds": calibration},
        "workloads": {
            name: {"seconds": value} for name, value in seconds.items()
        },
    }


def write_baseline(data: dict, path: str | Path) -> None:
    """Write a baseline dict as pretty JSON."""
    Path(path).write_text(json.dumps(data, indent=2) + "\n")


def read_baseline(path: str | Path) -> dict:
    """Read a committed baseline file."""
    return json.loads(Path(path).read_text())


def _calibration_scale(current: dict, committed: dict) -> float:
    """How much slower the current machine is than the committed one.

    The ratio of the two runs' calibration probes; 1.0 when either
    baseline lacks a calibration entry (pre-calibration files fall
    back to absolute comparison).
    """
    now = float(current.get("calibration", {}).get("seconds", 0.0))
    before = float(committed.get("calibration", {}).get("seconds", 0.0))
    if now > 0.0 and before > 0.0:
        return now / before
    return 1.0


def backend_mismatch(current: dict, committed: dict) -> str | None:
    """Why ``current`` cannot be checked against ``committed``, if so.

    Timings taken on different DP backends differ several-fold by
    design, so comparing them would only report the backend.  A
    baseline that records no backend (schema 1) is not refused.
    """
    now = current.get("meta", {}).get("backend")
    before = committed.get("meta", {}).get("backend")
    if now is None or before is None or now == before:
        return None
    return (
        f"this run used the {now!r} DP backend but the baseline was "
        f"recorded on {before!r}; pin REPRO_BACKEND={before} or "
        "re-record the baseline on this backend"
    )


def check_against_baseline(
    current: dict,
    committed: dict,
    *,
    factor: float = DEFAULT_GUARD_FACTOR,
) -> list[str]:
    """Regression-guard: workloads slower than ``factor`` x committed.

    Workload times are normalized by the in-run calibration probe
    before comparing, so a uniformly slower machine does not trip the
    guard.  Only workloads present in both baselines are compared;
    returns human-readable violation lines (empty = pass).
    """
    violations: list[str] = []
    scale = _calibration_scale(current, committed)
    committed_workloads = committed.get("workloads", {})
    for name, entry in current.get("workloads", {}).items():
        reference = committed_workloads.get(name)
        if reference is None:
            continue
        now = float(entry["seconds"])
        before = float(reference["seconds"]) * scale
        if before > 0.0 and now > factor * before:
            violations.append(
                f"{name}: {now:.4f}s vs baseline {before:.4f}s "
                f"(machine-normalized, x{scale:.2f}; "
                f"{now / before:.1f}x > {factor:.1f}x guard)"
            )
    return violations
