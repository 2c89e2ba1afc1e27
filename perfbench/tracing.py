"""Span recording around the program's layer boundaries.

The benchmark never edits the program: :func:`install` replaces public
callables of each layer with wrappers that record a span (name, start,
end, parent span, request id) and, where the boundary carries one, a
count.  Spans stay in memory until :meth:`Tracer.dump`.  A span's self
time is its duration minus the time its child spans cover; children
always nest inside their parent on one thread, so the subtraction is
exact.

:func:`layer_metrics` turns the spans and counts of one measured phase
into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

#: The registered answer semantics; each gets a ``semantics.<name>_ms``.
SEMANTICS = (
    "distribution",
    "typical",
    "u_topk",
    "pt_k",
    "u_kranks",
    "global_topk",
    "expected_ranks",
)


class Tracer:
    """Thread-aware span and counter recorder."""

    def __init__(self) -> None:
        #: [name, start, end, parent_id, request_id, span_id]
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._ids = itertools.count()
        self._requests = itertools.count(1)
        self._undo: list[tuple[Any, str, Any]] = []
        #: submit time per spec object, for the executor queue wait
        self.submitted: dict[int, float] = {}
        #: worlds drawn per MC engine before its current ``run`` call
        self.mc_before: dict[int, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _replace(self, owner: Any, attr: str, wrapper: Callable) -> None:
        original = getattr(owner, attr)
        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        self._undo.append((owner, attr, owner.__dict__.get(attr, original)))
        setattr(owner, attr, wrapper)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[[tuple], str],
        after: Callable[["Tracer", tuple, Any], None] | None = None,
        before: Callable[["Tracer", tuple], None] | None = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``."""
        original = getattr(owner, attr)
        spans = self.spans
        stack_of = self._stack
        ids = self._ids
        requests = self._requests
        clock = time.perf_counter
        label_of = name if callable(name) else None

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            if stack:
                parent = stack[-1]
                parent_id, request = parent[5], parent[4]
            else:
                parent_id, request = -1, next(requests)
            label = label_of(args) if label_of is not None else name
            if before is not None:
                before(self, args)
            record = [label, clock(), 0.0, parent_id, request, next(ids)]
            spans.append(record)
            stack.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        self._replace(owner, attr, traced)

    def count_calls(
        self,
        owner: Any,
        attr: str,
        after: Callable[["Tracer", tuple, Any], None],
    ) -> None:
        """Count at a boundary too fine-grained for a span."""
        original = getattr(owner, attr)

        def counted(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            after(self, args, result)
            return result

        self._replace(owner, attr, counted)

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Drop what was recorded so far (set-up and warm-up)."""
        self.spans.clear()
        self.counts.clear()
        self.submitted.clear()
        self.mc_before.clear()

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Per span name: calls, total and self seconds; root totals."""
        covered: dict[int, float] = defaultdict(float)
        for record in self.spans:
            if record[3] >= 0 and record[2]:
                covered[record[3]] += record[2] - record[1]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        roots: dict[str, float] = defaultdict(float)
        root_calls: dict[str, int] = defaultdict(int)
        for name, start, end, parent, _request, span_id in self.spans:
            if not end:
                continue
            duration = end - start
            calls[name] += 1
            total[name] += duration
            own[name] += duration - covered.get(span_id, 0.0)
            if parent < 0:
                roots[name] += duration
                root_calls[name] += 1
        return {
            "calls": dict(calls),
            "total_s": dict(total),
            "self_s": dict(own),
            "root_s": dict(roots),
            "root_calls": dict(root_calls),
            "counts": dict(self.counts),
        }

    def dump(self, path: Path) -> None:
        """Write every span (one JSON array per line) to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


class Interleave:
    """Tracing on and off in alternating blocks of one measured phase.

    Blocks pair up.  A pair runs its untraced block first and its traced
    block second, or the other way round, alternating pair by pair, so
    a steady drift of the host's speed cancels.  The tracing overhead is
    the median over pairs of the traced block's mean operation time over
    the untraced block's, minus 1.  Per-layer metrics divide by the
    traced operations only (:attr:`reads`, :attr:`writes`).

    :attr:`toggle` switches tracing on or off; by default it installs the
    wrappers in this process or removes them.  A workload whose program
    runs in another process replaces it.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.toggle: Callable[[bool], None] = self._local_toggle
        self.traced = False
        #: [traced, seconds, operations] per block
        self.blocks: list[list[Any]] = []
        self.reads = 0
        self.writes = 0

    def _local_toggle(self, on: bool) -> None:
        if on:
            install(self.tracer)
        else:
            self.tracer.uninstall()

    def next_block(self) -> bool:
        """Start the next block; returns whether it is traced."""
        pair, half = divmod(len(self.blocks), 2)
        traced = bool(half) != bool(pair % 2)
        if traced != self.traced:
            self.toggle(traced)
            self.traced = traced
        self.blocks.append([traced, 0.0, 0])
        return traced

    def add(self, seconds: float, write: bool = False) -> None:
        """One operation of the current block took ``seconds``."""
        block = self.blocks[-1]
        block[1] += seconds
        block[2] += 1
        if block[0]:
            if write:
                self.writes += 1
            else:
                self.reads += 1

    def close(self) -> None:
        if self.traced:
            self.toggle(False)
            self.traced = False

    def pairs(self) -> list[tuple[float, float]]:
        """(untraced, traced) mean operation seconds of complete pairs."""
        out = []
        for first, second in zip(self.blocks[::2], self.blocks[1::2]):
            if first[2] and second[2]:
                means = {b[0]: b[1] / b[2] for b in (first, second)}
                out.append((means[False], means[True]))
        return out

    def overhead_share(self) -> float:
        pairs = self.pairs()
        if not pairs:
            return 0.0
        return statistics.median(t / u - 1.0 for u, t in pairs)

    def untraced_mean_ms(self) -> float:
        seconds = sum(b[1] for b in self.blocks if not b[0])
        ops = sum(b[2] for b in self.blocks if not b[0])
        return seconds / ops * 1e3 if ops else 0.0


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------
def _lines_out(tracer: Tracer, args: tuple, result: Any) -> None:
    pmfs = result if isinstance(result, list) else [result]
    tracer.add("dp.runs", len(pmfs))
    tracer.add("dp.lines", sum(len(pmf) for pmf in pmfs))


def _engine_kind(tracer: Tracer, args: tuple, engine: Any) -> None:
    tracer.add("dp.engines")
    if type(engine).__name__ == "NativeEngine":
        tracer.add("dp.native_engines")


def _prefix_rows(tracer: Tracer, args: tuple, prefix: Any) -> None:
    tracer.add("scan.prefixes")
    tracer.add("scan.rows", len(prefix))


def _plan_kind(tracer: Tracer, args: tuple, physical: Any) -> None:
    if getattr(physical, "pmf_op", None) is not None:
        tracer.add("api.pmf_plans")
        if physical.algorithm == "mc":
            tracer.add("api.mc_plans")


def _mc_started(tracer: Tracer, args: tuple) -> None:
    # MCEngine.run(self); a second run of one engine draws nothing.
    tracer.mc_before[id(args[0])] = args[0].samples_drawn


def _mc_samples(tracer: Tracer, args: tuple, engine: Any) -> None:
    before = tracer.mc_before.pop(id(args[0]), 0)
    tracer.add("mc.samples", engine.samples_drawn - before)


def _submitted(tracer: Tracer, args: tuple) -> None:
    # BatchingExecutor.submit(self, op, spec, ...)
    tracer.submitted[id(args[2])] = time.perf_counter()


def _batch_started(tracer: Tracer, args: tuple) -> None:
    # Session.execute_many(self, specs, ...)
    now = time.perf_counter()
    specs = args[1]
    tracer.add("service.batches")
    tracer.add("service.batched_specs", len(specs))
    for spec in specs:
        sent = tracer.submitted.pop(id(spec), None)
        if sent is not None:
            tracer.add("service.queue_wait_s", now - sent)
            tracer.add("service.queue_waits")


def _wal_bytes(tracer: Tracer, args: tuple, frame: bytes) -> None:
    tracer.add("wal.bytes", len(frame))


def _recovered(tracer: Tracer, args: tuple, table: Any) -> None:
    store, name = args[0], args[1]
    info = store.recovery_info.get(name, {})
    tracer.add("recovery.records", info.get("replayed", 0))


def _stream_lines(tracer: Tracer, args: tuple, pmf: Any) -> None:
    tracer.add("stream.lines", len(pmf))
    tracer.add("stream.distributions")


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the metrics read."""
    from repro.api import plan as plan_stages
    from repro.api import physical
    from repro.api.planner import Planner
    from repro.api.session import Session
    from repro.core import dp
    from repro.core.kernels import native
    from repro.mc.engine import MCEngine
    from repro.service import server
    from repro.service.batching import BatchingExecutor
    from repro.standing import changelog, registry, wal
    from repro.stream.window import SlidingWindowTopK

    # api: the session façade and the planner
    tracer.wrap(Session, "execute", "api.execute")
    tracer.wrap(Session, "distribution", "api.distribution")
    tracer.wrap(
        Session, "execute_many", "api.execute_many", before=_batch_started
    )
    tracer.wrap(Planner, "lower", "api.plan", after=_plan_kind)
    tracer.wrap(Planner, "fuse", "api.plan")
    # uncertain + storage: the scan
    tracer.wrap(
        plan_stages, "scored_prefix_for", "scan.prefix", after=_prefix_rows
    )
    tracer.wrap(Session, "_scored_table", "scan.prefix")
    # core.dp + core.kernels
    for op in (
        physical.SharedPrefixDPOp,
        physical.PerEndingDPOp,
        physical.FusedSweepOp,
        physical.KComboOp,
        physical.StateExpansionOp,
    ):
        tracer.wrap(op, "run", "dp.fold", after=_lines_out)
    tracer.count_calls(dp, "_engine_for", _engine_kind)
    tracer.wrap(native.NativeEngine, "fold_into", "dp.foreign")
    tracer.wrap(native.NativeEngine, "take_reduce", "dp.foreign")
    tracer.wrap(native.NativeEngine, "materialize_ids", "dp.materialize")
    tracer.wrap(dp._PythonEngine, "materialize_ids", "dp.materialize")
    # semantics (core.typical runs inside semantics.typical)
    tracer.wrap(
        physical.SemanticsOp,
        "run",
        lambda args: f"semantics.{args[0].semantics}",
    )
    # mc
    tracer.wrap(physical.MCSampleOp, "run", "mc.sample")
    tracer.wrap(
        MCEngine, "run", "mc.engine", after=_mc_samples, before=_mc_started
    )
    # service
    tracer.wrap(server.QueryService, "handle", "service.handle")
    tracer.wrap(BatchingExecutor, "submit", "service.submit", before=_submitted)
    tracer.wrap(server, "answer_to_jsonable", "service.encode")
    tracer.wrap(server, "pmf_to_json", "service.encode")
    # standing: change log, registry, WAL
    tracer.wrap(
        changelog.MutableUncertainTable, "apply_payload", "standing.apply"
    )
    tracer.wrap(registry.StandingRegistry, "on_delta", "standing.maintain")
    tracer.wrap(wal.TableWAL, "append", "wal.append")
    tracer.wrap(wal.DurableStore, "_write_snapshot", "wal.snapshot")
    tracer.wrap(os, "fsync", "wal.fsync")
    tracer.count_calls(wal, "encode_record", _wal_bytes)
    tracer.wrap(
        wal.DurableStore, "recover_or_load", "recovery.load", after=_recovered
    )
    # stream
    tracer.wrap(SlidingWindowTopK, "append", "stream.append")
    tracer.wrap(
        SlidingWindowTopK, "distribution", "stream.read", after=_stream_lines
    )
    tracer.wrap(SlidingWindowTopK, "typical", "stream.read")
    return tracer


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: name -> unit, in the order BENCHMARK.json lists them.
LAYER_METRICS: dict[str, str] = {
    "api.plan_ms": "ms",
    "api.session_ms": "ms",
    "api.cache_hit_ratio.prefix": "ratio",
    "api.cache_hit_ratio.pmf": "ratio",
    "api.cache_hit_ratio.answer": "ratio",
    "api.mc_share": "ratio",
    "scan.prefix_ms": "ms",
    "scan.rows_per_query": "count",
    "storage.page_reads": "count",
    "storage.page_hit_ratio": "ratio",
    "storage.evictions": "count",
    "dp.fold_ms": "ms",
    "dp.foreign_calls": "count",
    "dp.foreign_ms": "ms",
    "dp.materialize_ms": "ms",
    "dp.native_share": "ratio",
    "dp.lines_out": "count",
    **{f"semantics.{name}_ms": "ms" for name in SEMANTICS},
    "mc.samples": "count",
    "mc.ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.exec_ms": "ms",
    "service.batch_size_mean": "count",
    "service.encode_ms": "ms",
    "service.http_ms": "ms",
    "service.degraded": "count",
    "service.rejected": "count",
    "client.lateness_ms": "ms",
    "standing.adopt_ms": "ms",
    "standing.maintain_ms": "ms",
    "standing.tier.skip": "count",
    "standing.tier.patch": "count",
    "standing.tier.recompute": "count",
    "wal.snapshots": "count",
    "wal.snapshot_ms": "ms",
    "wal.append_ms": "ms",
    "wal.fsyncs": "count",
    "wal.fsync_ms": "ms",
    "wal.bytes_per_write": "B",
    "recovery.replay_ms": "ms",
    "recovery.records": "count",
    "stream.append_ms": "ms",
    "stream.read_ms": "ms",
    "stream.lines": "count",
    "proc.gc_ms": "ms",
    "proc.gc_collections": "count",
    "proc.cpu_s": "s",
    "proc.steal_share": "ratio",
    "trace.overhead_share": "ratio",
    "trace.layer_sum_ms": "ms",
    "trace.root_ms": "ms",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    summary: dict[str, Any],
    *,
    reads: int,
    writes: int,
    extra: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics of one traced phase.

    Times are milliseconds of self time per measured operation: per
    read for the read path (api, scan, dp, semantics, mc, service), per
    write for the write path (standing, wal) and per append/read for
    the stream.  Counts are per read or per write the same way, except
    the standing tiers, WAL snapshots, ``service.degraded``/``rejected``
    and the process counters, which are totals over the phase, and the
    recovery figures, which are per reopen.  ``extra`` supplies what the
    spans cannot see (cache counters, client-side times, process
    counters); its keys win.
    """
    own = summary["self_s"]
    calls = summary["calls"]
    counts = summary["counts"]

    def per(value: float, ops: int) -> float:
        return value / ops if ops else 0.0

    def ms_per_read(*names: str) -> float:
        return per(sum(own.get(n, 0.0) for n in names) * 1e3, reads)

    def ms_per_write(*names: str) -> float:
        return per(sum(own.get(n, 0.0) for n in names) * 1e3, writes)

    metrics: dict[str, float] = {name: 0.0 for name in LAYER_METRICS}
    metrics.update(
        {
            "api.plan_ms": ms_per_read("api.plan"),
            "api.session_ms": ms_per_read(
                "api.execute", "api.distribution", "api.execute_many"
            ),
            "api.mc_share": _ratio(
                counts.get("api.mc_plans", 0), counts.get("api.pmf_plans", 0)
            ),
            "scan.prefix_ms": ms_per_read("scan.prefix"),
            "scan.rows_per_query": _ratio(
                counts.get("scan.rows", 0), counts.get("scan.prefixes", 0)
            ),
            "dp.fold_ms": ms_per_read("dp.fold"),
            "dp.foreign_calls": per(calls.get("dp.foreign", 0), reads),
            "dp.foreign_ms": ms_per_read("dp.foreign"),
            "dp.materialize_ms": ms_per_read("dp.materialize"),
            "dp.native_share": _ratio(
                counts.get("dp.native_engines", 0),
                counts.get("dp.engines", 0),
            ),
            "dp.lines_out": _ratio(
                counts.get("dp.lines", 0), counts.get("dp.runs", 0)
            ),
            "mc.samples": per(counts.get("mc.samples", 0), reads),
            "mc.ms": ms_per_read("mc.sample", "mc.engine"),
            "service.queue_wait_ms": _ratio(
                counts.get("service.queue_wait_s", 0) * 1e3,
                counts.get("service.queue_waits", 0),
            ),
            "service.exec_ms": _ratio(
                summary["total_s"].get("api.execute_many", 0.0) * 1e3,
                calls.get("api.execute_many", 0),
            ),
            "service.batch_size_mean": _ratio(
                counts.get("service.batched_specs", 0),
                counts.get("service.batches", 0),
            ),
            "service.encode_ms": ms_per_read("service.encode"),
            "standing.adopt_ms": ms_per_write("standing.apply"),
            "standing.maintain_ms": ms_per_write("standing.maintain"),
            "wal.snapshots": calls.get("wal.snapshot", 0),
            "wal.snapshot_ms": ms_per_write("wal.snapshot"),
            "wal.append_ms": ms_per_write("wal.append"),
            "wal.fsyncs": per(calls.get("wal.fsync", 0), writes),
            "wal.fsync_ms": ms_per_write("wal.fsync"),
            "wal.bytes_per_write": per(counts.get("wal.bytes", 0), writes),
            "recovery.replay_ms": per(
                summary["total_s"].get("recovery.load", 0.0) * 1e3,
                calls.get("recovery.load", 0),
            ),
            "recovery.records": counts.get("recovery.records", 0),
            "stream.append_ms": _ratio(
                summary["total_s"].get("stream.append", 0.0) * 1e3,
                calls.get("stream.append", 0),
            ),
            "stream.read_ms": per(
                summary["root_s"].get("stream.read", 0.0) * 1e3, reads
            ),
            "stream.lines": _ratio(
                counts.get("stream.lines", 0),
                counts.get("stream.distributions", 0),
            ),
        }
    )
    for name in SEMANTICS:
        metrics[f"semantics.{name}_ms"] = ms_per_read(f"semantics.{name}")
    metrics.update(extra)
    return metrics


def cache_ratios(before: dict, after: dict) -> dict[str, float]:
    """Session stage hit ratios over a phase, from two cache_info()s."""
    out = {}
    for stage in ("prefix", "pmf", "answer"):
        hits = after[stage]["hits"] - before[stage]["hits"]
        misses = after[stage]["misses"] - before[stage]["misses"]
        out[f"api.cache_hit_ratio.{stage}"] = _ratio(hits, hits + misses)
    return out


def storage_counters(before: dict, after: dict, reads: int) -> dict[str, float]:
    """Page reads (cache misses), hit ratio and evictions per read,
    summed over every packed table, from two page-cache snapshots."""
    hits = misses = evictions = 0
    for name, pages in after.items():
        for kind, stats in pages.items():
            old = before.get(name, {}).get(kind, {})
            hits += stats["hits"] - old.get("hits", 0)
            misses += stats["misses"] - old.get("misses", 0)
            evictions += stats.get("capacity_evictions", 0) - old.get(
                "capacity_evictions", 0
            )
    return {
        "storage.page_reads": misses / reads if reads else 0.0,
        "storage.page_hit_ratio": _ratio(hits, hits + misses),
        "storage.evictions": evictions / reads if reads else 0.0,
    }
