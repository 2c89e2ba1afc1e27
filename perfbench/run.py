"""Run one benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload cold_exact --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` switches tracing on and off in alternating blocks of one
measured phase (see ``tracing.Interleave``) and prints the per-layer
metrics plus the tracing overhead.  Either way the answers are checked;
the last line of stdout is one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` and the exit code is 1 when a check failed, 2
when the run could not start.
See ``perfbench/README.md`` for the workloads and the metric
definitions.
"""

from __future__ import annotations

import argparse
import importlib
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import harness  # noqa: E402

WORKLOADS = ("cold_exact", "served_mix", "standing_writes", "window_stream")
#: End-to-end metrics every workload reports (BENCHMARK.json order).
END_TO_END = (
    "setup_s",
    "query_p50_ms",
    "query_tail_ms",
    "queries_per_s",
    "peak_rss_mb",
)
#: Reported (not gated) on the workloads that write or recover.
WORKLOAD_ONLY = ("write_p50_ms", "write_tail_ms", "writes_per_s", "recover_s")
#: Fresh-process set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
#: A set-up probe that takes longer than this is broken.
PROBE_TIMEOUT_S = 60.0


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until the workload's
    set-up is ready to serve (imports and kernel load included)."""
    started = time.perf_counter()
    child = subprocess.Popen(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--setup-probe",
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    if line.strip() != "ready" or child.returncode != 0:
        raise harness.BenchError(f"set-up probe of {workload} failed")
    return elapsed


def measure_setup(module, workload: str, seed: int) -> list[float]:
    """``SETUP_REPEATS`` set-up times; a workload whose set-up is a
    server boot times it itself (``time_setup``)."""
    timer = getattr(module, "time_setup", None)
    return [
        timer(seed) if timer is not None else probe_setup(workload, seed)
        for _ in range(SETUP_REPEATS)
    ]


def phase_proc(phase: dict) -> dict:
    """The phase's process counters (the server child sends a dict)."""
    proc = phase["proc"]
    return proc if isinstance(proc, dict) else proc.document()


def traced_metrics(module, phase: dict, inter) -> dict[str, float]:
    import tracing

    summary = phase.get("summary") or inter.tracer.summary()
    extras = module.layer_extras(phase)
    proc = phase_proc(phase)
    extras.update({f"proc.{name}": value for name, value in proc.items()})
    ops = inter.reads + inter.writes
    extras["trace.root_ms"] = inter.untraced_mean_ms()
    extras["trace.layer_sum_ms"] = (
        sum(summary["self_s"].values()) * 1e3 / ops if ops else 0.0
    )
    extras["trace.overhead_share"] = inter.overhead_share()
    return tracing.layer_metrics(
        summary, reads=inter.reads, writes=inter.writes, extra=extras
    )


def run(args: argparse.Namespace) -> int:
    harness.prepare_environment()
    module = importlib.import_module(f"workloads.{args.workload}")
    if args.setup_probe:
        module.setup_probe(args.seed)
        print("ready", flush=True)
        return 0
    result = harness.Result(args.workload, args.seed)
    result.info["environment"] = harness.environment_record(args.seed)
    if hasattr(module, "prepare_inputs"):
        module.prepare_inputs()
    setups = measure_setup(module, args.workload, args.seed)
    result.info["setup_samples_s"] = setups
    if not args.trace:
        phase = module.measure(args.seed, args.seconds, None, result)
        result.info["host_steal_share"] = phase_proc(phase)["steal_share"]
        result.metric(
            "setup_s", harness.median(setups), "s", len(setups), "median"
        )
        names = list(END_TO_END) + [
            name for name in WORKLOAD_ONLY if name in result.metrics
        ]
        result.print_report(names)
        print(result.final_line(list(END_TO_END)))
        return 0 if result.correct else 1

    import tracing

    inter = tracing.Interleave(tracing.Tracer())
    try:
        phase = module.measure(args.seed, args.seconds, inter, result)
    finally:
        inter.close()
    metrics = traced_metrics(module, phase, inter)
    trace_dir = harness.BUILD_DIR / "traces"
    inter.tracer.dump(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
    traced_ops = inter.reads + inter.writes
    for name, value in metrics.items():
        result.metric(name, value, tracing.LAYER_METRICS[name], traced_ops)
    result.print_report(list(tracing.LAYER_METRICS))
    print(result.final_line(list(tracing.LAYER_METRICS)))
    return 0 if result.correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
