"""Unit tests for Monte-Carlo world sampling.

Worlds come from :class:`repro.mc.sampler.BatchWorldSampler` (an
existence matrix per batch of draws); sampled score distributions from
:class:`repro.mc.engine.MCEngine`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import AlgorithmError
from repro.mc.engine import MCEngine
from repro.mc.sampler import BatchWorldSampler
from repro.uncertain.scoring import ScoredTable
from tests.conftest import make_table, oracle_pmf


def sampled_distribution(table, k, samples, seed=None):
    """MC estimate of the top-k score distribution: ``score -> prob``."""
    scored = ScoredTable.from_table(table, lambda t: float(t["score"]))
    engine = MCEngine(scored, k, samples=samples, seed=seed).run()
    return engine.distribution().to_dict()


class TestWorldSampler:
    def test_deterministic_with_seed(self, soldiers):
        a = BatchWorldSampler.from_table(soldiers, seed=5)
        b = BatchWorldSampler.from_table(soldiers, seed=5)
        for _ in range(20):
            assert np.array_equal(a.sample(3), b.sample(3))

    def test_me_rule_respected(self):
        t = make_table(
            [("a", 1, 0.5), ("b", 2, 0.4), ("c", 3, 0.9)],
            rules=[("a", "b")],
        )
        sampler = BatchWorldSampler.from_table(t, seed=1)
        for world in sampler.world_sets(sampler.sample(200)):
            assert not ({"a", "b"} <= world)

    def test_marginal_frequencies(self):
        t = make_table([("a", 1, 0.3), ("b", 2, 0.8)])
        sampler = BatchWorldSampler.from_table(t, seed=42)
        exists = sampler.sample(20_000)
        column = list(t.tids).index("a")
        assert exists[:, column].mean() == pytest.approx(0.3, abs=0.02)

    def test_accepts_generator(self, soldiers):
        rng = np.random.default_rng(3)
        sampler = BatchWorldSampler.from_table(soldiers, seed=rng)
        (world,) = sampler.world_sets(sampler.sample(1))
        assert isinstance(world, frozenset)

    def test_saturated_group_always_produces_member(self):
        t = make_table([("a", 1, 0.5), ("b", 2, 0.5)], rules=[("a", "b")])
        sampler = BatchWorldSampler.from_table(t, seed=9)
        for world in sampler.world_sets(sampler.sample(100)):
            assert len(world & {"a", "b"}) == 1


class TestSampleScoreDistribution:
    def test_converges_to_oracle(self, soldiers):
        estimated = sampled_distribution(soldiers, 2, 40_000, seed=7)
        exact = oracle_pmf(soldiers, 2)
        for score, prob in exact.items():
            assert estimated.get(score, 0.0) == pytest.approx(prob, abs=0.02)

    def test_short_worlds_skipped(self):
        t = make_table([("a", 2, 0.5), ("b", 1, 0.5)])
        estimated = sampled_distribution(t, 2, 10_000, seed=1)
        assert sum(estimated.values()) == pytest.approx(0.25, abs=0.02)

    def test_invalid_sample_count(self, soldiers):
        with pytest.raises(AlgorithmError):
            sampled_distribution(soldiers, 2, 0)
