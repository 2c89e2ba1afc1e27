"""Delta-maintained sliding-window top-k state (segment DP caches).

:class:`DeltaWindowState` keeps the window's tuples in canonical rank
order (descending ``(score, prob)``, arrival order breaking ties —
exactly the :class:`~repro.uncertain.scoring.ScoredTable` sort) inside
a :class:`~repro.stream.segments.RankedSegments` index, and attaches
two families of cached partial DP states to each segment:

* ``exist[j]`` — the distribution of the total score of exactly ``j``
  existing rows (with the absent factor of every other segment row
  applied): the forward DP columns of Section 3.2, which are a
  symmetric function of the row set and therefore survive changes
  elsewhere in the window;
* ``ending[i]`` — the summed "exit" contributions of vectors whose
  last (k-th) pick lands in this segment, with ``i`` picks above it
  inside the segment.

Both are linear in the prefix state, so a query folds segment states
left-to-right instead of re-running the dynamic program over every
row: combining a prefix state ``P`` with a segment contributes
``sum_j P[j] (x) ending[k-1-j]`` to the answer and advances ``P`` by
``sum_i P[i] (x) exist[j-i]`` — the two-stack-style trick of keeping
partial aggregates per block so a slide only rebuilds the block it
touches.  ``insert``/``remove`` therefore do amortized sub-window
work: they edit one segment of the index and mark it stale; stale
segments rebuild lazily (O(segment * k)) the next time a query
consumes them.

The rank-order/segment-split/scan-depth machinery itself lives in
:mod:`repro.stream.segments` (shared with the standing-query
maintainer's :class:`~repro.standing.registry.PrefixMirror`); this
module owns only the DP-cell caching layered on top.

The Theorem-2 truncation is honoured incrementally: the query walks
segments only up to the scan depth (recomputed in O(depth) per query
from per-segment mass sums), and the boundary segment is processed row
by row, so the consumed row set matches a from-scratch
:func:`~repro.core.scan_depth.scan_depth` exactly.

Scope: the state assumes *independent* tuples (singleton ME groups).
:class:`~repro.stream.window.SlidingWindowTopK` routes queries through
this state only while the window holds no live multi-member ME group
and falls back to the full Section-3 pipeline otherwise — expiry of a
group member that makes the group degrade to a singleton re-enables
the delta path automatically.  Cells here carry no representative
vectors: they are ``(scores, probs, None)`` triples, folded and
reduced by the DP's own :func:`~repro.core.dp._combine` and
:func:`~repro.core.dp._reduce_cell` (always on numpy — the compiled
kernel serves only the vector-carrying DP).  Representative vectors are
reconstructed *lazily* from the cached rank order — the window wraps
delta results in a :class:`~repro.core.pmf.LazyVectorPMF` whose first
vector access runs one vector-carrying dynamic program over
:meth:`DeltaWindowState.vector_inputs` (the segments' rank-ordered
rows up to the incremental Theorem-2 depth, snapshot at query time so
later slides cannot skew the reconstruction).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.dp import _cell_to_pmf, _combine, _dp_run, _merge_cells, _Unit
from repro.core.pmf import ScorePMF
from repro.stream.segments import (
    DEFAULT_SEGMENT_SIZE,
    RankedSegments,
    RankSegment,
)

__all__ = [
    "DEFAULT_SEGMENT_SIZE",
    "DeltaWindowState",
    "reconstruct_vector_pmf",
]

#: A DP cell without vectors: ``(scores ascending, probs, None)``, or
#: None — reduced by :func:`repro.core.dp._reduce_cell`.
_Cell = tuple


def _base_cell() -> _Cell:
    return (np.zeros(1), np.ones(1), None)


def _shift(cell: _Cell, score: float, prob: float) -> _Cell:
    """The "take" step: add a tuple's score, scale by its probability."""
    return cell[0] + score, cell[1] * prob, None


def _fold_row(
    state: list[_Cell | None],
    score: float,
    prob: float,
    max_lines: int,
) -> list[_Cell | None]:
    """Advance forward DP columns by one independent row."""
    unit = _Unit(((score, prob, None),))
    new: list[_Cell | None] = [None] * len(state)
    for j in range(len(state) - 1, -1, -1):
        new[j] = _combine(
            unit, state[j], state[j - 1] if j else None, None, max_lines
        )
    return new


def _cross(a: _Cell, b: _Cell, max_lines: int) -> _Cell:
    """Convolution of two cells (every pair of lines), reduced.

    Each line of the smaller cell shifts the larger one into an
    already-ascending part, so the pairs merge without a sort.
    """
    if len(a[0]) > len(b[0]):
        a, b = b, a
    parts = [_shift(b, score, prob) for score, prob in zip(a[0], a[1])]
    return _merge_cells(parts, max_lines)


def _fold_states(
    prefix: list[_Cell | None],
    exist: list[_Cell | None],
    max_lines: int,
) -> list[_Cell | None]:
    """Advance prefix DP columns by a whole segment's exist states."""
    columns = len(prefix)
    new: list[_Cell | None] = [None] * columns
    for j in range(columns):
        parts: list[_Cell] = []
        for i in range(j + 1):
            if prefix[i] is not None and exist[j - i] is not None:
                parts.append(_cross(prefix[i], exist[j - i], max_lines))
        new[j] = _merge_cells(parts, max_lines)
    return new


class _DPSegment(RankSegment):
    """A rank segment plus its cached partial DP states."""

    __slots__ = ("exist", "ending", "cache_lines")

    def __init__(self, entries):
        super().__init__(entries)
        self.exist: list[_Cell | None] | None = None
        self.ending: list[_Cell | None] | None = None
        #: Widest cell (in lines) of the last rebuild; None = never built.
        self.cache_lines: int | None = None

    def rebuild(self, k: int, max_lines: int) -> None:
        """Recompute the segment's partial DP states (O(rows * k))."""
        state: list[_Cell | None] = [_base_cell()] + [None] * (k - 1)
        take_parts: list[list[_Cell]] = [[] for _ in range(k)]
        for entry in self.entries:
            for i in range(k):
                if state[i] is not None:
                    take_parts[i].append(
                        _shift(state[i], entry.score, entry.prob)
                    )
            state = _fold_row(state, entry.score, entry.prob, max_lines)
        self.exist = state
        self.ending = [
            _merge_cells(parts, max_lines) for parts in take_parts
        ]
        self.mass = sum(e.prob for e in self.entries)
        self.stale = False
        self.cache_lines = max(
            (
                len(cell[0])
                for cell in (*self.exist, *self.ending)
                if cell is not None
            ),
            default=1,
        )


class _DPIndex(RankedSegments):
    segment_class = _DPSegment


class DeltaWindowState:
    """Incrementally maintained top-k DP state of a sliding window.

    :param k: top-k size (>= 1).
    :param max_lines: per-cell coalescing budget.
    :param segment_size: target rows per segment (splits at twice it).
    """

    def __init__(
        self,
        k: int,
        *,
        max_lines: int,
        segment_size: int = DEFAULT_SEGMENT_SIZE,
    ) -> None:
        self._k = k
        self._max_lines = max_lines
        self._index = _DPIndex(segment_size=segment_size)

    def __len__(self) -> int:
        return len(self._index)

    @property
    def _segments(self) -> list[_DPSegment]:
        """The index's segments (kept for tests and introspection)."""
        return self._index.segments  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def insert(self, tid: Any, score: float, prob: float, seq: int) -> None:
        """Add one tuple at its canonical rank position.

        ``seq`` is the arrival number: the canonical order is
        descending ``(score, prob)`` with arrival breaking ties, i.e.
        the exact :class:`ScoredTable` sort of the window's table.
        """
        self._index.insert(tid, score, prob, seq)

    def remove(self, tid: Any, score: float, prob: float, seq: int) -> None:
        """Drop an expired tuple (located by its rank key)."""
        try:
            self._index.remove(tid, score, prob, seq)
        except KeyError:
            raise KeyError(
                f"tuple {tid!r} not in the delta window state"
            ) from None

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def _scan_depth(self, p_tau: float) -> int:
        """Theorem-2 depth over the rank order (mass-skipping)."""
        return self._index.scan_depth(self._k, p_tau)

    def _cache_worthwhile(self, segment: _DPSegment) -> bool:
        """Whether the segment's cached states should serve the query.

        Folding a cached segment costs O(k^2) cell convolutions of up
        to ``cache_lines`` lines each, while walking its rows costs
        O(rows * k) two-part merges — so caches win only while their
        cells stay narrow (``cache_lines * k <= 2 * rows``).  Stale
        segments rebuild optimistically once; when the rebuild comes
        out saturated, later slides skip the rebuild and walk instead.
        """
        rows = len(segment.entries)
        if segment.stale:
            if (
                segment.cache_lines is not None
                and segment.cache_lines * self._k > 2 * rows
            ):
                return False
            segment.rebuild(self._k, self._max_lines)
        return segment.cache_lines * self._k <= 2 * rows

    def vector_inputs(
        self, p_tau: float
    ) -> list[tuple[Any, float, float]]:
        """Snapshot of the consumed rows, ``(tid, score, prob)`` in
        canonical rank order up to the incremental Theorem-2 depth.

        This is the cached segment state a lazy vector reconstruction
        runs over: no re-scoring, no re-sorting — the segments already
        hold the window's rank order, and the depth matches what
        :meth:`query` consumed.  Taken as a snapshot so the
        reconstruction stays correct even if the window slides before
        the vectors are first read.
        """
        depth = self._scan_depth(p_tau)
        return [
            (entry.tid, entry.score, entry.prob)
            for entry in self._index.rows(depth)
        ]

    def query(self, p_tau: float) -> ScorePMF:
        """The window's top-k score distribution.

        Folds cached segment states up to the Theorem-2 depth; only the
        boundary segment (and stale segments) do per-row work.
        """
        k = self._k
        max_lines = self._max_lines
        depth = self._scan_depth(p_tau)
        prefix: list[_Cell | None] = [_base_cell()] + [None] * (k - 1)
        answer_parts: list[_Cell] = []
        remaining = depth
        for segment in self._segments:
            if remaining <= 0:
                break
            rows = segment.entries
            if len(rows) <= remaining and self._cache_worthwhile(segment):
                for j in range(k):
                    ending = segment.ending[k - 1 - j]
                    if prefix[j] is not None and ending is not None:
                        answer_parts.append(
                            _cross(prefix[j], ending, max_lines)
                        )
                prefix = _fold_states(prefix, segment.exist, max_lines)
                remaining -= len(rows)
            else:
                # Per-row walk: the truncation-boundary segment, and
                # segments whose cells are too wide for the cached
                # convolutions to beat walking (same math either way).
                for entry in rows[:remaining]:
                    if prefix[k - 1] is not None:
                        answer_parts.append(
                            _shift(prefix[k - 1], entry.score, entry.prob)
                        )
                    prefix = _fold_row(
                        prefix, entry.score, entry.prob, max_lines
                    )
                remaining = max(0, remaining - len(rows))
        final = _merge_cells(answer_parts, max_lines)
        if final is None:
            return ScorePMF(())
        scores, probs, _ = final
        return ScorePMF(
            (float(s), float(p), None) for s, p in zip(scores, probs)
        )


def reconstruct_vector_pmf(
    rows: list[tuple[Any, float, float]], k: int, max_lines: int
) -> ScorePMF:
    """A vector-carrying top-k distribution over snapshot ``rows``.

    Runs the exact bottom-up dynamic program of :mod:`repro.core.dp`
    (independent tuples, every exit enabled) over the rank-ordered
    rows :meth:`DeltaWindowState.vector_inputs` captured — the same
    computation the from-scratch session path performs, minus the
    re-scoring, validation and sorting of the window table.  Each
    line carries the most probable top-k vector attaining its score.
    """
    units = [_Unit([(score, prob, tid)]) for tid, score, prob in rows]
    return _cell_to_pmf(
        _dp_run(units, k, [True] * len(units), max_lines)
    )
