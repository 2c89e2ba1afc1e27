"""Boot ``repro serve`` for the ``served_mix`` workload.

    python3 perfbench/serve_boot.py --trace 0|1 --out FILE -- <repro serve arguments>

Pins the benchmark environment, then calls the ``repro serve`` entry
point.  With ``--trace 1``, SIGUSR2 installs the span wrappers of
:mod:`tracing` in this (server) process or removes them again, and the
count of switches so far is written to ``--out`` with the suffix
``.toggles``, which the client waits for.  The server boots untraced
either way, so traced and untraced blocks differ only in tracing.

SIGUSR1 marks the start of the measured phase: spans, counters and the
process counters recorded so far (boot and warm-up) are dropped.  When
the server drains after SIGTERM, this module writes one JSON document
to ``--out``: the span summary (traced runs), the process counters of
the measured phase and the server's peak resident set.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import harness  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args and serve_args[0] == "--":
        serve_args = serve_args[1:]
    harness.prepare_environment()
    out = Path(args.out)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        toggles = 0

        def toggle(signum, frame) -> None:
            nonlocal toggles
            if toggles % 2 == 0:
                tracing.install(tracer)
            else:
                tracer.uninstall()
            toggles += 1
            out.with_suffix(".toggles").write_text(str(toggles))

        signal.signal(signal.SIGUSR2, toggle)
    proc = harness.ProcCounters()
    proc.start()

    def mark_phase(signum, frame) -> None:
        nonlocal proc
        proc.stop()
        proc = harness.ProcCounters()
        proc.start()
        if tracer is not None:
            tracer.reset()

    signal.signal(signal.SIGUSR1, mark_phase)
    from repro.cli import main as repro_main

    code = repro_main(["serve", *serve_args])
    proc.stop()
    document = {
        "proc": proc.document(),
        "peak_rss_mb": harness.peak_rss_mb(),
        "summary": tracer.summary() if tracer is not None else None,
    }
    out.write_text(json.dumps(document))
    if tracer is not None:
        tracer.dump(out.with_suffix(".spans.jsonl"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
