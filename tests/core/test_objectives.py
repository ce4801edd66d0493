"""Unit tests for the alternative goal functions."""

import math

from repro.algorithms.anyfit import FirstFit
from repro.core.instance import Instance
from repro.core.objectives import (
    max_bins,
    momentary_ratio,
    optimal_bins_profile,
    usage_time,
)
from repro.core.simulation import simulate


class TestUsageTime:
    def test_matches_cost(self, tiny_instance):
        res = simulate(FirstFit(), tiny_instance)
        assert usage_time(res) == res.cost


class TestMaxBins:
    def test_value(self, full_bin_instance):
        res = simulate(FirstFit(), full_bin_instance)
        assert max_bins(res) == 2

    def test_disjoint(self, disjoint_instance):
        res = simulate(FirstFit(), disjoint_instance)
        assert max_bins(res) == 1


class TestOptimalBinsProfile:
    def test_empty(self):
        prof = optimal_bins_profile(Instance([]))
        assert prof.integral() == 0.0

    def test_single_item(self):
        prof = optimal_bins_profile(Instance.from_tuples([(0, 3, 0.4)]))
        assert prof(1.0) == 1.0
        assert prof(5.0) == 0.0

    def test_two_big(self):
        inst = Instance.from_tuples([(0, 2, 0.8), (0, 2, 0.8)])
        prof = optimal_bins_profile(inst)
        assert prof(1.0) == 2.0

    def test_integral_is_opt_r(self):
        """∫ OPT_R^t dt must equal the OPT_R oracle."""
        from repro.offline.optimal import opt_repacking
        from repro.workloads.random_general import uniform_random

        inst = uniform_random(40, 8, seed=6)
        prof = optimal_bins_profile(inst)
        oracle = opt_repacking(inst)
        assert oracle.lower - 1e-6 <= prof.integral() <= oracle.upper + 1e-6


class TestMomentaryRatio:
    def test_optimal_packing_is_one(self):
        inst = Instance.from_tuples([(0, 2, 0.8), (0, 2, 0.8)])
        res = simulate(FirstFit(), inst)
        assert math.isclose(momentary_ratio(res, inst), 1.0)

    def test_detects_waste(self):
        # NextFit splits two compatible items across bins when a big one
        # sits between them
        from repro.algorithms.anyfit import NextFit

        inst = Instance.from_tuples([(0, 4, 0.3), (0, 4, 0.8), (0, 4, 0.3)])
        res = simulate(NextFit(), inst)
        assert momentary_ratio(res, inst) >= 1.5 - 1e-9

    def test_at_least_one(self):
        from repro.workloads.random_general import uniform_random

        inst = uniform_random(40, 8, seed=3)
        res = simulate(FirstFit(), inst)
        assert momentary_ratio(res, inst, max_exact=14) >= 1.0 - 1e-9
