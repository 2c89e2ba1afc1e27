"""Spread report: run one workload N times and show how steady it is.

    python3 perfbench/spread.py --workload cold_exact --runs 10 [--seconds 20] [--trace 0] [--first-seed 1]

Each run uses its own seed (``--first-seed`` onwards).  For every metric
of the last JSON line the report prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the interquartile
range as a share of the median, and the largest relative deviation of
a single run from the median.  ``--save FILE`` keeps the raw result
lines.  Runs go one after another, never in parallel, so they do not
disturb each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(
            f"run with seed {seed} exited {completed.returncode}:\n"
            f"{completed.stdout[-2000:]}{completed.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def report(results: list[dict]) -> list[str]:
    rows = []
    header = (f"{'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'maxdev':>8}")
    rows.append(header)
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        mid = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        spread = (q3 - q1) / mid if mid else 0.0
        worst = max(abs(v - mid) for v in values) / mid if mid else 0.0
        rows.append(f"{name:<32} {mid:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                    f"{spread:>8.3f} {worst:>8.3f}")
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    correct = all(r["correct"] for r in results)
    rows.append(f"runs={len(results)} correct={correct} "
                f"failed={failed}/{attempted}")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", default=None)
    args = parser.parse_args(argv)
    results = []
    for offset in range(args.runs):
        seed = args.first_seed + offset
        result = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(result)
        if args.save:
            with open(args.save, "a") as handle:
                handle.write(f"{args.workload} {seed} {json.dumps(result)}\n")
    print(f"# {args.workload}: {args.runs} runs of {args.seconds:g}s, "
          f"seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
    print("\n".join(report(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
