"""Equivalence tests for the delta-maintained sliding window.

After any interleaving of appends and expiries, the delta-maintained
result must equal a from-scratch recompute (``incremental=False``)
line for line whenever the per-cell line budget does not force
coalescing, and must agree on mass/expectation when it does.
"""

from __future__ import annotations

import random
import warnings

import numpy as np
import pytest

from repro.exceptions import InvalidProbabilityError
from repro.stream.delta import DeltaWindowState
from repro.stream.window import SlidingWindowTopK
from tests.conftest import assert_pmf_equal, oracle_pmf

BIG = 10**6


def paired_windows(window, k, **kwargs):
    delta = SlidingWindowTopK(window=window, k=k, **kwargs)
    scratch = SlidingWindowTopK(
        window=window, k=k, incremental=False, **kwargs
    )
    return delta, scratch


def assert_same_pmf(a, b, context=None):
    assert len(a) == len(b), (context, a.scores, b.scores)
    assert np.allclose(a.scores, b.scores), context
    assert np.allclose(a.probs, b.probs, atol=1e-12), context


class TestExactEquivalence:
    def test_random_interleavings(self):
        rng = np.random.default_rng(17)
        for trial in range(25):
            window = int(rng.integers(3, 12))
            k = int(rng.integers(1, min(4, window) + 1))
            delta, scratch = paired_windows(
                window, k, p_tau=0.0, max_lines=BIG
            )
            for i in range(int(rng.integers(5, 40))):
                score = float(rng.integers(0, 8))
                prob = float(rng.uniform(0.05, 1.0))
                delta.append({"score": score}, probability=prob)
                scratch.append({"score": score}, probability=prob)
                if rng.random() < 0.4:
                    assert_same_pmf(
                        delta.distribution(),
                        scratch.distribution(),
                        (trial, i),
                    )

    def test_truncated_equivalence(self):
        # Default p_tau: the delta path must replicate the Theorem-2
        # scan depth (same consumed tuple set, same exact lines).
        rng = np.random.default_rng(23)
        delta, scratch = paired_windows(50, 3, max_lines=BIG)
        for i in range(150):
            score = float(rng.uniform(0, 100))
            prob = float(rng.uniform(0.3, 1.0))
            delta.append({"score": score}, probability=prob)
            scratch.append({"score": score}, probability=prob)
            if i % 13 == 0:
                assert_same_pmf(
                    delta.distribution(), scratch.distribution(), i
                )

    def test_certain_tuples(self):
        delta, scratch = paired_windows(6, 2, p_tau=0.0, max_lines=BIG)
        for i in range(10):
            delta.append({"score": float(i)}, probability=1.0)
            scratch.append({"score": float(i)}, probability=1.0)
        assert_same_pmf(delta.distribution(), scratch.distribution())

    def test_matches_oracle(self):
        win = SlidingWindowTopK(window=5, k=2, p_tau=0.0, max_lines=BIG)
        rng = np.random.default_rng(31)
        for i in range(12):
            win.append(
                {"score": float(rng.integers(0, 6))},
                probability=float(rng.uniform(0.1, 0.95)),
            )
        assert_pmf_equal(
            win.distribution().to_dict(), oracle_pmf(win.table(), 2)
        )

    def test_tie_heavy_stream(self):
        delta, scratch = paired_windows(8, 3, p_tau=0.0, max_lines=BIG)
        rng = np.random.default_rng(37)
        for i in range(30):
            score = float(rng.integers(0, 3))  # constant collisions
            prob = float(rng.uniform(0.2, 1.0))
            delta.append({"score": score}, probability=prob)
            scratch.append({"score": score}, probability=prob)
            assert_same_pmf(
                delta.distribution(), scratch.distribution(), i
            )


class TestCoalescedEquivalence:
    def test_mass_and_moments_under_budget(self):
        delta, scratch = paired_windows(40, 4, p_tau=0.0, max_lines=64)
        rng = np.random.default_rng(41)
        for i in range(80):
            score = float(rng.uniform(0, 1000))
            prob = float(rng.uniform(0.2, 1.0))
            delta.append({"score": score}, probability=prob)
            scratch.append({"score": score}, probability=prob)
        a, b = delta.distribution(), scratch.distribution()
        assert a.total_mass() == pytest.approx(b.total_mass(), abs=1e-9)
        span = max(a.support_span(), 1e-12)
        assert abs(a.expectation() - b.expectation()) < span / 10

    @pytest.mark.parametrize(
        "window, k, prob",
        [(200, 3, 0.999), (300, 5, 0.95), (500, 5, 0.9)],
    )
    def test_underflowing_buckets_are_dropped(self, window, k, prob):
        # Long windows of near-certain tuples push whole coalescing
        # buckets below the smallest normal double; their weighted-mean
        # score is 0/0.  The delta window must drop them as the
        # from-scratch DP does, not divide and crash.
        delta, scratch = paired_windows(window, k, p_tau=0.0, max_lines=200)
        rng = random.Random(1)
        for _ in range(window):
            score = rng.uniform(0, 100)
            delta.append({"score": score}, probability=prob)
            scratch.append({"score": score}, probability=prob)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, b = delta.distribution(), scratch.distribution()
        assert a.total_mass() == pytest.approx(b.total_mass(), abs=1e-9)
        assert a.expectation() == pytest.approx(b.expectation(), rel=1e-9)


class TestGroupFallback:
    def test_live_group_uses_full_pipeline(self):
        win = SlidingWindowTopK(window=6, k=1, p_tau=0.0, max_lines=BIG)
        win.append({"score": 10.0}, probability=0.5, group="g")
        win.append({"score": 5.0}, probability=0.5, group="g")
        assert not win._delta_eligible()
        assert_pmf_equal(
            win.distribution().to_dict(), {10.0: 0.5, 5.0: 0.5}
        )

    def test_group_expiry_reenables_delta(self):
        win = SlidingWindowTopK(window=2, k=1, p_tau=0.0, max_lines=BIG)
        win.append({"score": 10.0}, probability=0.5, group="g")
        win.append({"score": 5.0}, probability=0.5, group="g")
        win.append({"score": 1.0}, probability=1.0)  # evicts the 10
        assert win._delta_eligible()
        assert_pmf_equal(
            win.distribution().to_dict(), {5.0: 0.5, 1.0: 0.5}
        )

    def test_delta_matches_scratch_after_group_degrades(self):
        delta, scratch = paired_windows(4, 2, p_tau=0.0, max_lines=BIG)
        for win in (delta, scratch):
            win.append({"score": 9.0}, probability=0.4, group="g")
            win.append({"score": 7.0}, probability=0.4, group="g")
            win.append({"score": 5.0}, probability=0.8)
            win.append({"score": 3.0}, probability=0.9)
            win.append({"score": 1.0}, probability=0.7)  # evicts 9.0
        assert_same_pmf(delta.distribution(), scratch.distribution())


class TestTypicalAndCaching:
    def test_typical_on_short_window_is_empty(self):
        # Fewer tuples than k: both paths must return the empty
        # TypicalResult, not raise (regression: the delta path once
        # bypassed the select_typical_clamped guard).
        delta, scratch = paired_windows(4, 2, p_tau=0.0, max_lines=BIG)
        for win in (delta, scratch):
            win.append({"score": 1.0}, probability=0.9)
            result = win.typical(1)
            assert result.answers == ()
        assert delta.distribution().is_empty()

    def test_typical_cached_per_c(self):
        win = SlidingWindowTopK(window=8, k=2, p_tau=0.0, max_lines=BIG)
        for i in range(8):
            win.append({"score": float(10 * i)}, probability=0.5)
        first = win.typical(3)
        assert win.typical(3) is first
        assert len(win.typical(2).answers) == 2

    def test_distribution_identity_until_slide(self):
        win = SlidingWindowTopK(window=4, k=2)
        for i in range(4):
            win.append({"score": float(i)}, probability=0.9)
        first = win.distribution()
        assert win.distribution() is first
        win.append({"score": 9.0}, probability=0.9)
        assert win.distribution() is not first


class TestValidation:
    def test_invalid_p_tau_rejected_at_construction(self):
        # Validated up front so the delta and session paths cannot
        # diverge on invalid thresholds at query time.
        with pytest.raises(InvalidProbabilityError):
            SlidingWindowTopK(window=4, k=2, p_tau=-0.5)
        with pytest.raises(InvalidProbabilityError):
            SlidingWindowTopK(window=4, k=2, p_tau=1.0)


class TestDeltaStateUnit:
    def test_insert_remove_roundtrip(self):
        state = DeltaWindowState(2, max_lines=BIG, segment_size=2)
        rows = [(f"t{i}", float(i % 4), 0.5, i) for i in range(12)]
        for tid, score, prob, seq in rows:
            state.insert(tid, score, prob, seq)
        assert len(state) == 12
        for tid, score, prob, seq in rows[:6]:
            state.remove(tid, score, prob, seq)
        assert len(state) == 6
        assert not state.query(0.0).is_empty()

    def test_remove_unknown_raises(self):
        state = DeltaWindowState(1, max_lines=BIG)
        state.insert("a", 1.0, 0.5, 0)
        with pytest.raises(KeyError):
            state.remove("b", 1.0, 0.5, 1)

    def test_query_short_window_empty(self):
        state = DeltaWindowState(3, max_lines=BIG)
        state.insert("a", 1.0, 0.5, 0)
        assert state.query(0.0).is_empty()

    def test_segment_splits_preserve_order(self):
        state = DeltaWindowState(1, max_lines=BIG, segment_size=2)
        rng = np.random.default_rng(47)
        for i in range(40):
            state.insert(f"t{i}", float(rng.uniform(0, 10)), 0.5, i)
        entries = [
            e for seg in state._segments for e in seg.entries
        ]
        keys = [e.key for e in entries]
        assert keys == sorted(keys)
        assert len(entries) == 40
