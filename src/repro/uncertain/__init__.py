"""Probabilistic-relation substrate.

This subpackage implements the tuple-level uncertain data model of the
paper (Section 2.1): tables whose tuples carry a membership probability
and may participate in *mutual exclusion* (ME) rules, the possible-
worlds semantics used throughout the paper, and scoring functions
(including non-injective ones, i.e. ties).

Public entry points:

* :class:`~repro.uncertain.model.UncertainTuple` — one uncertain tuple.
* :class:`~repro.uncertain.table.UncertainTable` — an x-relation.
* :class:`~repro.uncertain.scoring.ScoredTable` — the canonical,
  rank-ordered algorithm input produced by applying a scoring function.
* :mod:`~repro.uncertain.worlds` — exact possible-world enumeration.
* Monte-Carlo world sampling lives in :mod:`repro.mc`
  (:class:`~repro.mc.sampler.BatchWorldSampler`).
"""

from repro.uncertain.model import UncertainTuple
from repro.uncertain.table import UncertainTable
from repro.uncertain.scoring import (
    ScoredItem,
    ScoredTable,
    attribute_scorer,
    expression_scorer,
)
from repro.uncertain.worlds import (
    PossibleWorld,
    enumerate_worlds,
    world_count,
    top_k_of_world,
    top_k_vectors_of_world,
    score_distribution_by_enumeration,
)
from repro.uncertain.discretize import (
    Bin,
    equal_depth_bins,
    equal_width_bins,
    k_medians_bins,
    measurements_to_table,
)

__all__ = [
    "UncertainTuple",
    "UncertainTable",
    "ScoredItem",
    "ScoredTable",
    "attribute_scorer",
    "expression_scorer",
    "PossibleWorld",
    "enumerate_worlds",
    "world_count",
    "top_k_of_world",
    "top_k_vectors_of_world",
    "score_distribution_by_enumeration",
    "Bin",
    "equal_width_bins",
    "equal_depth_bins",
    "k_medians_bins",
    "measurements_to_table",
]
