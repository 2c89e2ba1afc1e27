"""Ablation: batched Monte-Carlo sampling vs the per-world Python loop.

Compares two ways of drawing S possible worlds of a synthetic
uncertain table:

* **per-world loop** — the pre-MC-engine sampler, reproduced below:
  one O(#groups) Python pass and one ``searchsorted`` per world;
* **batched matrix** — ``BatchWorldSampler.sample``: the existence
  matrix the MC engine consumes directly, no per-world Python at all.

The acceptance bar of the MC-engine PR: the batched matrix path is at
least 10x faster than the per-world loop at S = 10k worlds.  End to
end, the same ablation times the estimated score PMF against the old
dict-accumulating sampling helper.

Run with ``pytest benchmarks/bench_ablation_mc.py -s``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.reporting import print_series
from repro.bench.runner import time_callable
from repro.bench.workloads import synthetic_workload
from repro.mc.engine import MCEngine
from repro.mc.sampler import BatchWorldSampler
from repro.uncertain.scoring import ScoredTable, attribute_scorer

SAMPLES = 10_000
TUPLES = 300


def _per_world_loop(table, count: int, seed: int) -> list[frozenset]:
    """The pre-batched per-world sampler, kept for the ablation."""
    rng = np.random.default_rng(seed)
    group_tids = []
    group_cumprobs = []
    for members in table.groups:
        probs = np.array(
            [table[tid].probability for tid in members], dtype=float
        )
        group_tids.append(tuple(members))
        group_cumprobs.append(np.cumsum(probs))
    worlds = []
    for _ in range(count):
        tids = []
        draws = rng.random(len(group_tids))
        for members, cum, u in zip(group_tids, group_cumprobs, draws):
            index = int(np.searchsorted(cum, u, side="right"))
            if index < len(members):
                tids.append(members[index])
        worlds.append(frozenset(tids))
    return worlds


@pytest.fixture(scope="module")
def table():
    return synthetic_workload(tuples=TUPLES, me_fraction=0.5)


def test_batched_sampler_speedup(table):
    """Batched matrix sampling is >= 10x the per-world loop at S=10k."""
    loop = time_callable(
        lambda: _per_world_loop(table, SAMPLES, seed=1), repeats=3
    )
    matrix_sampler = BatchWorldSampler.from_table(table, seed=1)
    matrix = time_callable(
        lambda: matrix_sampler.sample(SAMPLES), repeats=3
    )
    rows = [
        {
            "path": name,
            "worlds": SAMPLES,
            "ms": timed.seconds * 1e3,
            "speedup_vs_loop": loop.seconds / timed.seconds,
        }
        for name, timed in (
            ("per-world loop", loop),
            ("batched matrix", matrix),
        )
    ]
    print_series(
        f"MC sampling ablation ({TUPLES} tuples, S={SAMPLES})",
        rows,
        columns=("path", "worlds", "ms", "speedup_vs_loop"),
    )
    # The matrix path carries the MC engine's 10x acceptance bar.
    assert loop.seconds / matrix.seconds >= 10.0
    # Sanity: the matrix respects the sample-count contract.
    assert matrix.value.shape == (SAMPLES, TUPLES)


def test_engine_end_to_end_vs_looped_estimate(table):
    """The engine's one-pass estimated PMF beats looping worlds
    through the scored table, and the two estimates agree."""
    k = 10
    scorer = attribute_scorer("score")
    scored = ScoredTable.from_table(table, scorer)

    def looped_estimate():
        counts: dict[float, int] = {}
        for world in _per_world_loop(table, SAMPLES, seed=2):
            existing = [
                pos for pos, item in enumerate(scored) if item.tid in world
            ]
            if len(existing) < k:
                continue
            total = sum(scored[pos].score for pos in existing[:k])
            counts[total] = counts.get(total, 0) + 1
        return {score: n / SAMPLES for score, n in counts.items()}

    def engine_estimate():
        engine = MCEngine(scored, k, samples=SAMPLES, seed=2).run()
        return engine.distribution()

    loop = time_callable(looped_estimate, repeats=3)
    engine = time_callable(engine_estimate, repeats=3)
    print_series(
        f"Estimated top-{k} PMF ({TUPLES} tuples, S={SAMPLES})",
        [
            {
                "path": "looped worlds + python top-k",
                "ms": loop.seconds * 1e3,
                "mass": sum(loop.value.values()),
            },
            {
                "path": "MCEngine one-pass",
                "ms": engine.seconds * 1e3,
                "mass": engine.value.total_mass(),
            },
        ],
        columns=("path", "ms", "mass"),
    )
    assert engine.seconds < loop.seconds
    assert engine.value.expectation() == pytest.approx(
        sum(s * p for s, p in loop.value.items())
        / sum(loop.value.values()),
        rel=0.02,
    )
