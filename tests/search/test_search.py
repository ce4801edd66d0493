"""Unit tests for the hard-instance search harness."""

import numpy as np

from repro.algorithms.anyfit import FirstFit
from repro.algorithms.cdff import CDFF
from repro.core.instance import Instance
from repro.reductions.alignment import is_aligned
from repro.search import (
    InstanceSearch,
    aligned_mutator,
    aligned_sampler,
    certified_ratio,
    general_mutator,
    general_sampler,
)


class TestCertifiedRatio:
    def test_at_least_one(self, tiny_instance):
        assert certified_ratio(FirstFit, tiny_instance) >= 1.0 - 1e-9

    def test_known_value(self):
        # two big items forced apart; OPT also needs two bins → ratio 1
        inst = Instance.from_tuples([(0, 2, 0.9), (0, 2, 0.9)])
        assert abs(certified_ratio(FirstFit, inst) - 1.0) < 1e-9


class TestSamplersAndMutators:
    def test_aligned_sampler_produces_aligned(self):
        rng = np.random.default_rng(0)
        sample = aligned_sampler(32, 30)
        for _ in range(5):
            assert is_aligned(sample(rng))

    def test_aligned_mutator_preserves_alignment(self):
        rng = np.random.default_rng(1)
        inst = aligned_sampler(32, 30)(rng)
        mutate = aligned_mutator(32)
        for _ in range(20):
            inst = mutate(inst, rng)
            assert is_aligned(inst)

    def test_aligned_mutator_keeps_anchor(self):
        rng = np.random.default_rng(2)
        inst = aligned_sampler(16, 10)(rng)
        mutate = aligned_mutator(16)
        for _ in range(30):
            inst = mutate(inst, rng)
            assert inst.mu >= 16.0 / 1.0 - 1e-6 or any(
                it.length >= 8.0 for it in inst
            )

    def test_general_mutator_keeps_mu_anchors(self):
        rng = np.random.default_rng(3)
        inst = general_sampler(64.0, 20)(rng)
        mutate = general_mutator(64.0)
        for _ in range(30):
            inst = mutate(inst, rng)
            lengths = [it.length for it in inst]
            assert max(lengths) >= 64.0 - 1e-6
            assert min(lengths) <= 1.0 + 1e-6


class TestSearch:
    def test_monotone_improvement(self):
        """The search's best score is ≥ the plain sampler's score."""
        rng = np.random.default_rng(4)
        sample = aligned_sampler(16, 20)
        baseline = max(
            certified_ratio(CDFF, sample(rng), max_exact=10) for _ in range(3)
        )
        search = InstanceSearch(
            sample,
            aligned_mutator(16),
            lambda inst: certified_ratio(CDFF, inst, max_exact=10),
        )
        outcome = search.run(restarts=3, steps=15, seed=4)
        assert outcome.score >= baseline - 0.15  # same distribution, hill-climbed

    def test_deterministic_given_seed(self):
        search = InstanceSearch(
            aligned_sampler(16, 15),
            aligned_mutator(16),
            lambda inst: certified_ratio(CDFF, inst, max_exact=10),
        )
        a = search.run(restarts=2, steps=10, seed=7)
        b = search.run(restarts=2, steps=10, seed=7)
        assert a.score == b.score
        assert a.instance == b.instance

    def test_evaluation_budget(self):
        search = InstanceSearch(
            aligned_sampler(16, 10),
            aligned_mutator(16),
            lambda inst: certified_ratio(CDFF, inst, max_exact=8),
        )
        outcome = search.run(restarts=2, steps=10, seed=0)
        assert outcome.evaluations == 2 * (10 + 1)

    def test_patience_early_stop(self):
        search = InstanceSearch(
            aligned_sampler(16, 10),
            aligned_mutator(16),
            lambda inst: 1.0,  # flat objective: never improves
        )
        outcome = search.run(restarts=1, steps=100, seed=0, patience=5)
        assert outcome.evaluations <= 1 + 5 + 1

    def test_objective_maximised_toy(self):
        """On a transparent objective (item count) the search climbs."""
        search = InstanceSearch(
            aligned_sampler(16, 5),
            aligned_mutator(16),
            lambda inst: float(len(inst)),
        )
        outcome = search.run(restarts=1, steps=60, seed=1)
        assert len(outcome.instance) > 5
