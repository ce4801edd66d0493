"""Unit tests for the Theorem 4.3 adversary."""

import math

import pytest

from repro.adversary.base import realized_instance
from repro.adversary.sqrt_log import SqrtLogAdversary
from repro.algorithms.anyfit import BestFit, FirstFit, NextFit
from repro.algorithms.classify import ClassifyByDuration
from repro.algorithms.hybrid import HybridAlgorithm
from repro.analysis.theory import lower_bound_sqrt_log
from repro.core.validate import audit
from repro.offline.optimal import opt_reference


class TestConstruction:
    def test_mu_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            SqrtLogAdversary(10)
        with pytest.raises(ValueError):
            SqrtLogAdversary(1)

    def test_target_bins(self):
        assert SqrtLogAdversary(16).target_bins == 2  # ⌈√4⌉
        assert SqrtLogAdversary(512).target_bins == 3  # ⌈√9⌉

    def test_load(self):
        adv = SqrtLogAdversary(16)
        assert math.isclose(adv.load, 0.5)


class TestForcing:
    @pytest.mark.parametrize(
        "factory", [FirstFit, BestFit, NextFit, ClassifyByDuration, HybridAlgorithm]
    )
    def test_forces_target_bins_each_round(self, factory):
        mu = 16
        adv = SqrtLogAdversary(mu)
        out = adv.run(factory())
        audit(out.result)
        prof = out.result.open_bins_profile()
        # at every round time, the algorithm holds ≥ ⌈√log μ⌉ bins
        for t in range(mu):
            assert prof(float(t)) >= adv.target_bins

    def test_online_cost_floor(self):
        mu = 64
        adv = SqrtLogAdversary(mu)
        out = adv.run(FirstFit())
        assert out.online_cost >= mu * adv.target_bins - 1e-9
        # inequality (2): Σ l_{t_i} ≤ ON(σ)
        assert adv.online_cost_lower_bound() <= out.online_cost + 1e-9

    def test_lengths_are_powers_of_two(self):
        adv = SqrtLogAdversary(16)
        out = adv.run(FirstFit())
        lengths = {it.length for it in out.instance}
        assert lengths <= {2.0**k for k in range(5)}

    def test_mu_of_generated_instance_at_most_target(self):
        adv = SqrtLogAdversary(64)
        out = adv.run(FirstFit())
        assert out.instance.mu <= 64.0

    @pytest.mark.parametrize("factory", [FirstFit, ClassifyByDuration])
    def test_ratio_exceeds_theorem_floor(self, factory):
        mu = 64
        adv = SqrtLogAdversary(mu)
        out = adv.run(factory())
        opt = opt_reference(out.instance, max_exact=14)
        ratio = out.online_cost / opt.upper
        assert ratio >= lower_bound_sqrt_log(mu) - 1e-9

    def test_fewer_rounds(self):
        adv = SqrtLogAdversary(64, rounds=8)
        out = adv.run(FirstFit())
        assert max(it.arrival for it in out.instance) <= 7.0

    def test_realized_instance_matches_result(self):
        adv = SqrtLogAdversary(16)
        out = adv.run(FirstFit())
        rebuilt = realized_instance(out.result)
        assert len(rebuilt) == len(out.result.items)
