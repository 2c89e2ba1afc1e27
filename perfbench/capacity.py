"""Closed-loop capacity of the ``served_mix`` request mix.

    python3 perfbench/capacity.py [--seed 1] [--seconds 20]

Boots the same ``repro serve`` child as ``served_mix``, answers every
hot shape once, then sends the workload's seeded schedule back to back
over the same two connections for ``--seconds``.  Prints the requests
completed per second and the latency quartiles.  ``served_mix`` offers
a quarter of this rate (``RATE`` in ``workloads/served_mix.py``).
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import harness  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    harness.prepare_environment()
    from workloads import served_mix

    # More requests than the loop can send in the time given.
    schedule = served_mix.request_schedule(args.seed, int(args.seconds * 1000))
    server = served_mix.warm_server(False, f"capacity-{os.getpid()}")
    try:
        outcome = served_mix.open_loop(
            server.port, schedule, math.inf, stop_after=args.seconds
        )
    finally:
        server.stop()
    done = [r for r in outcome["records"] if r is not None]
    failed = sum(1 for r in done if r[3] != 200)
    elapsed = max(r[2] for r in done) - outcome["start"]
    latencies = [(r[2] - r[1]) * 1e3 for r in done if r[3] == 200]
    quartiles = statistics.quantiles(latencies, n=4)
    print(
        f"closed loop, {served_mix.CONNECTIONS} connections, seed {args.seed}:"
        f" {len(done)} requests in {elapsed:.2f} s ="
        f" {len(done) / elapsed:.1f} req/s; latency ms p25"
        f" {quartiles[0]:.2f} p50 {quartiles[1]:.2f} p75 {quartiles[2]:.2f};"
        f" failed {failed}"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
