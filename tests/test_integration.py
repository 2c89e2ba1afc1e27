"""Cross-module integration tests.

These exercise the full pipeline — dataset generation, the SQL layer,
the DP algorithm, typical-answer selection — and cross-validate the
exact algorithms against Monte-Carlo sampling at sizes where world
enumeration is infeasible.
"""

from __future__ import annotations

import pytest

from repro import (
    c_typical_top_k,
    execute_query,
    top_k_score_distribution,
    typicality_report,
    u_topk,
)
from repro.core.pmf import ScorePMF
from repro.datasets.cartel import congestion_query, generate_cartel_area
from repro.datasets.soldier import generate_soldier_table
from repro.datasets.synthetic import (
    MEGroupLayout,
    SyntheticConfig,
    generate_synthetic_table,
)
from repro.mc.engine import MCEngine
from repro.stats.metrics import wasserstein_distance
from repro.uncertain.scoring import ScoredTable


def sample_score_distribution(table, k, samples, seed):
    """MC estimate of the top-k score distribution: ``score -> prob``."""
    scored = ScoredTable.from_table(table, lambda t: float(t["score"]))
    engine = MCEngine(scored, k, samples=samples, seed=seed).run()
    return engine.distribution().to_dict()


class TestMonteCarloCrossCheck:
    """The DP distribution must agree with world sampling on tables far
    beyond enumerable size."""

    def test_synthetic_with_me_groups(self):
        config = SyntheticConfig(
            tuples=120,
            me_layout=MEGroupLayout(size_range=(2, 4), gap_range=(1, 6)),
        )
        table = generate_synthetic_table(config, seed=13)
        k = 5
        exact = top_k_score_distribution(
            table, "score", k, p_tau=1e-4, max_lines=100_000
        )
        sampled_map = sample_score_distribution(table, k, 30_000, seed=14)
        sampled = ScorePMF(
            (score, prob, None) for score, prob in sampled_map.items()
        )
        assert exact.total_mass() == pytest.approx(1.0, abs=0.01)
        assert exact.expectation() == pytest.approx(
            sampled.expectation(), rel=0.02
        )
        # Earth-mover distance small relative to the span.
        distance = wasserstein_distance(exact, sampled)
        assert distance < 0.05 * exact.support_span()

    def test_soldier_generator_pipeline(self):
        table = generate_soldier_table(40, seed=15)
        k = 6
        exact = top_k_score_distribution(table, "score", k, p_tau=1e-4)
        sampled_map = sample_score_distribution(table, k, 20_000, seed=16)
        mean_sampled = sum(s * p for s, p in sampled_map.items()) / sum(
            sampled_map.values()
        )
        assert exact.expectation() == pytest.approx(mean_sampled, rel=0.02)


class TestCartelPipeline:
    def test_query_end_to_end(self):
        area = generate_cartel_area(seed=21)
        result = execute_query(congestion_query(5), {"area": area})
        assert len(result.answers) == 3
        scores = [row.score for row in result.answers]
        assert scores == sorted(scores)
        assert result.pmf.total_mass() == pytest.approx(1.0, abs=0.01)
        # typical scores sit inside the distribution's support
        lo, hi = result.pmf.scores[0], result.pmf.scores[-1]
        for score in scores:
            assert lo <= score <= hi

    def test_algorithms_agree_on_small_area(self):
        from repro.datasets.cartel import CartelConfig

        area = generate_cartel_area(
            config=CartelConfig(segments=12), seed=22
        )
        k = 2
        reference = top_k_score_distribution(
            area,
            "delay",
            k,
            p_tau=0.0,
            max_lines=10**6,
        )
        from tests.conftest import assert_pmf_equal

        for algorithm in ("state_expansion", "k_combo"):
            other = top_k_score_distribution(
                area,
                "delay",
                k,
                p_tau=0.0,
                max_lines=10**6,
                algorithm=algorithm,
            )
            # Saturated ME groups leave ~1e-18 float-residue lines in
            # the baselines; the tolerance-aware comparison drops them.
            assert_pmf_equal(
                other.to_dict(), reference.to_dict(), tol=1e-9
            )


class TestTypicalityPipeline:
    def test_report_consistency(self):
        table = generate_soldier_table(30, seed=23)
        report = typicality_report(table, "score", 5, 3)
        pmf = report.pmf
        assert report.u_topk is not None
        # Tail mass and percentile agree.
        assert report.prob_above_u_topk == pytest.approx(
            1.0 - report.u_topk_percentile, abs=0.05
        )
        # Typical scores minimize distance better than U-Topk alone.
        from repro.core.typical import expected_typical_distance

        typical_distance = report.typical.expected_distance
        u_only = expected_typical_distance(
            pmf.scores, pmf.probs, [report.u_topk.total_score]
        )
        assert typical_distance <= u_only + 1e-9

    def test_c_typical_cheaper_recomputation(self):
        # select_typical on an existing pmf == full recomputation.
        table = generate_soldier_table(25, seed=24)
        full = c_typical_top_k(table, "score", 4, 3)
        from repro.core.typical import select_typical

        pmf = top_k_score_distribution(table, "score", 4)
        again = select_typical(pmf, 3)
        assert [a.score for a in full.answers] == [
            a.score for a in again.answers
        ]

    def test_u_topk_probability_below_distribution_mode(self):
        # Sanity: U-Topk's probability can't exceed the heaviest
        # score-line mass plus tolerance (its score's line aggregates
        # all vectors with that score).
        table = generate_soldier_table(30, seed=25)
        k = 4
        pmf = top_k_score_distribution(
            table, "score", k, p_tau=0.0, max_lines=10**6
        )
        best = u_topk(table, "score", k, p_tau=0.0)
        assert best is not None
        line_probs = dict(zip(pmf.scores, pmf.probs))
        assert best.probability <= line_probs[best.total_score] + 1e-9
