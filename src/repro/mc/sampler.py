"""Batched possible-world sampling.

One possible world is one independent categorical outcome per ME
group: either one member (with that member's probability) or nothing
(with the group's residual mass).  :class:`BatchWorldSampler` draws S
worlds at once as a boolean *existence matrix* of shape
``(S, columns)`` instead of one Python-level world at a time.

The draw is a single ``(S × groups)`` uniform matrix: each member
column owns a half-open interval ``[lo, hi)`` of its group's
cumulative membership probabilities, and a tuple exists exactly when
its group's uniform lands in its interval (the residual ``[mass, 1)``
is the empty outcome).  Evaluating every column is then one gather of
the group uniforms plus two vectorized comparisons — no per-group
Python, no searchsorted, uniform cost regardless of group sizes.

Downstream consumers (:mod:`repro.mc.engine`) operate directly on the
matrix; :meth:`BatchWorldSampler.world_sets` converts rows to
``frozenset`` worlds where a caller wants sets of tids.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.exceptions import AlgorithmError
from repro.uncertain.scoring import ScoredTable
from repro.uncertain.table import UncertainTable


def _as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Normalize a seed-like argument into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class BatchWorldSampler:
    """Vectorized i.i.d. sampler over the possible-worlds distribution.

    :param columns: number of existence-matrix columns (one per tuple).
    :param groups: ME groups as sequences of ``(column, probability)``
        pairs; every column must appear in at most one group (columns
        in no group never exist).
    :param labels: optional per-column labels (tids) used by
        :meth:`world_sets`.
    :param seed: seed or :class:`numpy.random.Generator`.
    """

    def __init__(
        self,
        columns: int,
        groups: Sequence[Sequence[tuple[int, float]]],
        *,
        labels: Sequence[Any] | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if columns < 0:
            raise AlgorithmError(f"columns must be >= 0, got {columns}")
        self._columns = columns
        self._rng = _as_rng(seed)
        self._labels = (
            None if labels is None else np.array(list(labels), dtype=object)
        )
        # Per column: owning group slot and the [lo, hi) slice of the
        # group's cumulative membership probability.  Columns outside
        # every group keep the empty interval [0, 0) — never exist.
        self._col_group = np.zeros(columns, dtype=np.intp)
        self._col_lo = np.zeros(columns, dtype=np.float64)
        self._col_hi = np.zeros(columns, dtype=np.float64)
        slot = 0
        for members in groups:
            members = list(members)
            if not members:
                continue
            acc = 0.0
            for col, prob in members:
                self._col_group[col] = slot
                self._col_lo[col] = acc
                acc += float(prob)
                self._col_hi[col] = acc
            slot += 1
        self._group_count = slot

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_table(
        cls,
        table: UncertainTable,
        seed: int | np.random.Generator | None = None,
    ) -> "BatchWorldSampler":
        """Sampler over a table; columns follow the table's tuple order."""
        column_of = {tid: index for index, tid in enumerate(table.tids)}
        groups = [
            [(column_of[tid], table[tid].probability) for tid in members]
            for members in table.groups
        ]
        return cls(
            len(table), groups, labels=table.tids, seed=seed
        )

    @classmethod
    def from_prefix(
        cls,
        scored: ScoredTable,
        seed: int | np.random.Generator | None = None,
    ) -> "BatchWorldSampler":
        """Sampler over a scored prefix; columns are rank positions.

        Members of a group cut off by Theorem-2 truncation simply fold
        into the group's empty outcome — the same truncation semantics
        the exact algorithms use.
        """
        groups = [
            [(pos, scored[pos].prob) for pos in scored.group_positions(gid)]
            for gid in scored.groups()
        ]
        labels = [item.tid for item in scored]
        return cls(len(scored), groups, labels=labels, seed=seed)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    @property
    def columns(self) -> int:
        """Width of the existence matrix."""
        return self._columns

    @property
    def labels(self) -> tuple[Any, ...] | None:
        """Per-column labels (tids), when known."""
        return None if self._labels is None else tuple(self._labels)

    def sample(self, count: int) -> np.ndarray:
        """Draw ``count`` worlds as a boolean ``(count, columns)`` matrix.

        ``exists[s, j]`` is True when tuple ``j`` appears in world
        ``s``: one uniform draw per (world, group), gathered per member
        column and tested against the column's CDF interval.
        """
        if count < 1:
            raise AlgorithmError(f"count must be >= 1, got {count}")
        if self._columns == 0 or self._group_count == 0:
            return np.zeros((count, self._columns), dtype=bool)
        draws = self._rng.random((count, self._group_count))
        member_u = draws[:, self._col_group]
        return (self._col_lo <= member_u) & (member_u < self._col_hi)

    def world_sets(self, exists: np.ndarray) -> list[frozenset]:
        """Convert existence-matrix rows into ``frozenset`` worlds."""
        if self._labels is None:
            raise AlgorithmError(
                "sampler has no column labels; construct with labels "
                "(or via from_table/from_prefix) to materialize worlds"
            )
        return [frozenset(self._labels[row]) for row in exists]
