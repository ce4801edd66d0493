"""Edge-case and robustness tests across the core stack."""

import math

import numpy as np

from repro.algorithms.anyfit import FirstFit
from repro.algorithms.hybrid import HybridAlgorithm
from repro.core.instance import Instance
from repro.core.item import Item
from repro.core.profile import load_profile
from repro.core.simulation import simulate
from repro.core.validate import audit
from repro.offline.bounds import opt_sandwich


class TestScaleStress:
    def test_ten_thousand_items_first_fit(self):
        """A 10k-item dense stream packs, audits, and accounts correctly."""
        rng = np.random.default_rng(0)
        triples = []
        for _ in range(10_000):
            a = float(rng.uniform(0, 500))
            triples.append((a, a + float(rng.uniform(1, 16)), float(rng.uniform(0.05, 0.5))))
        inst = Instance.from_tuples(triples)
        res = simulate(FirstFit(), inst)
        audit(res)
        assert res.cost >= inst.demand - 1e-6

    def test_profile_on_large_instance(self):
        rng = np.random.default_rng(1)
        triples = []
        for _ in range(20_000):
            a = float(rng.uniform(0, 1000))
            triples.append((a, a + float(rng.uniform(0.1, 50)), float(rng.uniform(0.01, 1.0))))
        inst = Instance.from_tuples(triples)
        prof = load_profile(inst)
        assert math.isclose(prof.integral(), inst.demand, rel_tol=1e-9)


class TestDegenerateShapes:
    def test_hundred_identical_unit_items(self):
        inst = Instance.from_tuples([(0.0, 1.0, 1.0)] * 100)
        res = simulate(FirstFit(), inst)
        audit(res)
        assert res.n_bins == 100
        assert math.isclose(res.cost, 100.0)

    def test_hundred_infinitesimal_items(self):
        inst = Instance.from_tuples([(0.0, 1.0, 0.01)] * 100)
        res = simulate(FirstFit(), inst)
        assert res.n_bins == 1

    def test_chain_of_touching_items(self):
        """1000 items, each starting exactly as the previous departs."""
        triples = [(float(k), float(k + 1), 0.9) for k in range(1000)]
        inst = Instance.from_tuples(triples)
        res = simulate(FirstFit(), inst)
        audit(res)
        assert math.isclose(res.cost, 1000.0)
        assert res.max_open == 1

    def test_single_instant_burst(self):
        """300 simultaneous arrivals exercise the in-batch ordering."""
        rng = np.random.default_rng(2)
        triples = [
            (0.0, float(rng.uniform(0.5, 4)), float(rng.uniform(0.1, 1.0)))
            for _ in range(300)
        ]
        inst = Instance.from_tuples(triples)
        res = simulate(HybridAlgorithm(), inst)
        audit(res)

    def test_extreme_mu(self):
        inst = Instance.from_tuples([(0.0, 1.0, 0.5), (0.0, 2.0**40, 0.5)])
        res = simulate(HybridAlgorithm(), inst)
        audit(res)
        assert inst.mu == 2.0**40

    def test_tiny_lengths(self):
        inst = Instance.from_tuples([(0.0, 1e-9, 0.5), (0.0, 2e-9, 0.5)])
        res = simulate(FirstFit(), inst)
        audit(res)
        assert math.isclose(res.cost, 2e-9, rel_tol=1e-6)


class TestNumericRobustness:
    def test_accumulated_thirds(self):
        """300 size-1/3 items over 100 disjoint triples: no float drift."""
        triples = []
        for k in range(100):
            for _ in range(3):
                triples.append((float(k), float(k) + 1.0, 1.0 / 3.0))
        inst = Instance.from_tuples(triples)
        res = simulate(FirstFit(), inst)
        audit(res)
        assert res.max_open == 1

    def test_sandwich_consistency_on_heavy_instance(self):
        rng = np.random.default_rng(3)
        triples = [
            (float(rng.uniform(0, 10)), float(rng.uniform(10.1, 20)), 1.0)
            for _ in range(50)
        ]
        inst = Instance.from_tuples(triples)
        s = opt_sandwich(inst)
        assert s.lower <= s.upper
        # all-unit sizes: the ceil-load bound is exact at peak
        assert s.lower >= inst.demand - 1e-9

    def test_item_at_float_extremes(self):
        it = Item(1e15, 1e15 + 1.0, 0.5)
        assert math.isclose(it.length, 1.0)
