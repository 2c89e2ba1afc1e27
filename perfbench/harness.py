"""Shared plumbing of the benchmark: environment pinning, statistics,
process counters and the result document.

Nothing here imports ``repro``; :func:`prepare_environment` must run
before the first ``repro`` import so the pinned variables take effect.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import sys
import time
from array import array
from pathlib import Path

#: The checkout root (the directory holding ``src/`` and ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: Build outputs and generated inputs; never committed.
BUILD_DIR = ROOT / ".bench_build"

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


class BenchError(Exception):
    """A set-up problem that makes the run meaningless (exit 2)."""


def prepare_environment() -> None:
    """Pin the environment the program runs under and make ``src/``
    importable."""
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no program source under {ROOT / 'src'}")
    if os.environ.get("REPRO_FAULTS"):
        raise BenchError("REPRO_FAULTS is set; refusing to measure")
    if os.environ.get("REPRO_BACKEND"):
        raise BenchError(
            "REPRO_BACKEND is set; the benchmark measures the planner's "
            "own backend choice"
        )
    # The builtin cost model: a stray per-user calibration file would
    # flip exact plans to Monte-Carlo.
    os.environ["REPRO_CALIBRATION"] = ""
    os.environ["REPRO_KERNEL_CACHE"] = str(BUILD_DIR / "kernels")
    os.environ.pop("REPRO_STORE_CACHE_BYTES", None)
    # Temporary files (the C compiler's included) stay in the checkout.
    os.environ["TMPDIR"] = str(BUILD_DIR / "tmp")
    (BUILD_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    existing = os.environ.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        os.environ["PYTHONPATH"] = (
            src + (os.pathsep + existing if existing else "")
        )


def environment_record(seed: int) -> dict:
    """Seed, machine and toolchain facts recorded in every result.

    Loads (compiling if need be) the native kernel, and refuses to run
    without it."""
    import numpy

    from repro.core.kernels import backends_report

    backends = backends_report()
    if not backends["native"]["available"]:
        # On the python backend the timings are not comparable and the
        # differential check of cold_exact would compare python with
        # python.
        raise BenchError(
            "the native DP kernel is unavailable: "
            + str(backends["native"].get("error"))
        )
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backends": backends,
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of already sorted values."""
    if not sorted_values:
        raise BenchError("percentile of an empty sample")
    pos = (len(sorted_values) - 1) * pct / 100.0
    low = int(pos)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (
        sorted_values[high] - sorted_values[low]
    ) * (pos - low)


def median(values: list[float]) -> float:
    return percentile(sorted(values), 50.0)


class Latencies:
    """Latency samples of one operation kind, in seconds."""

    def __init__(self, tail_pct: float) -> None:
        #: The tail percentile, fixed per workload so that every run of
        #: it reports the same one: the highest of 99.9, 99.5, 99, 98,
        #: 95, 90, 80 and 75 that leaves ``TAIL_BEYOND`` samples beyond
        #: it at the workload's design sample size.
        self.tail_pct = tail_pct
        #: Packed doubles: window_stream keeps ~50,000 samples a run, and
        #: as Python floats they would add to the peak RSS it reports.
        self.samples = array("d")

    def add(self, seconds: float) -> None:
        self.samples.append(seconds)

    def __len__(self) -> int:
        return len(self.samples)

    def p50_ms(self) -> float:
        return percentile(sorted(self.samples), 50.0) * 1e3

    def tail_ms(self) -> float:
        return percentile(sorted(self.samples), self.tail_pct) * 1e3

    def tail_supported(self) -> bool:
        beyond = len(self.samples) * (1.0 - self.tail_pct / 100.0)
        return beyond >= TAIL_BEYOND


# ----------------------------------------------------------------------
# Process counters
# ----------------------------------------------------------------------
def _status_kb(field: str, pid: int | str = "self") -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise BenchError(f"/proc/{pid}/status has no {field}")


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    return _status_kb("VmHWM", pid) / 1024.0


def reset_peak_rss() -> bool:
    """Reset this process's VmHWM to its current RSS (Linux >= 4.0),
    so the peak covers only what follows.  False when refused."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs from /proc/stat."""
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


class ProcCounters:
    """Garbage-collector time, CPU time and the host's steal share (CPU
    time the hypervisor gave to other guests) over a measured phase."""

    def __init__(self) -> None:
        self.gc_seconds = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0
        self._cpu_start = 0.0
        self.cpu_seconds = 0.0
        self._ticks_start = (0, 0)
        self.steal_share = 0.0

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_seconds += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    def start(self) -> None:
        gc.callbacks.append(self._on_gc)
        self._cpu_start = time.process_time()
        self._ticks_start = _cpu_ticks()

    def stop(self) -> None:
        self.cpu_seconds = time.process_time() - self._cpu_start
        steal, total = _cpu_ticks()
        elapsed = total - self._ticks_start[1]
        if elapsed > 0:
            self.steal_share = (steal - self._ticks_start[0]) / elapsed
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def document(self) -> dict:
        return {
            "gc_ms": self.gc_seconds * 1e3,
            "gc_collections": self.gc_collections,
            "cpu_s": self.cpu_seconds,
            "steal_share": self.steal_share,
        }


# ----------------------------------------------------------------------
# The result
# ----------------------------------------------------------------------
class Result:
    """Operation counts, correctness and metrics of one run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        #: name -> (value, unit, samples, note)
        self.metrics: dict[str, tuple[float, str, int, str]] = {}
        self.info: dict = {}

    def metric(
        self, name: str, value: float, unit: str, samples: int, note: str = ""
    ) -> None:
        self.metrics[name] = (float(value), unit, int(samples), note)

    def mismatch(self, what: str) -> None:
        """Record a wrong answer: it fails the run."""
        self.mismatches.append(what)
        self.failed += 1

    @property
    def correct(self) -> bool:
        return not self.mismatches

    def print_report(self, names: list[str]) -> None:
        """Human-readable lines: every metric with unit and samples."""
        print(f"# workload {self.workload} seed {self.seed}")
        for key, value in sorted(self.info.items()):
            print(f"#   {key}: {json.dumps(value, sort_keys=True)}")
        for name in names:
            value, unit, samples, note = self.metrics[name]
            extra = f"  ({note})" if note else ""
            print(f"{name:<32} {value:>14.4f} {unit:<6} n={samples}{extra}")
        share = self.failed / self.attempted if self.attempted else 0.0
        print(
            f"{'failed_share':<32} {share:>14.4f} {'ratio':<6} "
            f"n={self.attempted} (failed {self.failed})"
        )
        for what in self.mismatches[:20]:
            print(f"# MISMATCH {what}")
        sys.stdout.flush()

    def final_line(self, names: list[str]) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {
                        "value": self.metrics[name][0],
                        "unit": self.metrics[name][1],
                    }
                    for name in names
                },
            }
        )
