"""Unit tests for competitive-ratio measurement and growth fitting."""

import math

import pytest

from repro.algorithms.anyfit import FirstFit
from repro.analysis.competitive import (
    GrowthFit,
    RatioEstimate,
    best_law,
    fit_growth,
    measure_ratio,
)
from repro.analysis.theory import loglog_mu, sqrt_log_mu
from repro.offline.bounds import OptSandwich
from repro.workloads.random_general import uniform_random


class TestRatioEstimate:
    def test_exact_opt(self):
        est = RatioEstimate("x", 10.0, OptSandwich(5.0, 5.0))
        assert est.lower == est.upper == 2.0

    def test_interval(self):
        est = RatioEstimate("x", 10.0, OptSandwich(4.0, 5.0))
        assert math.isclose(est.lower, 2.0)
        assert math.isclose(est.upper, 2.5)
        assert est.point == est.upper

    def test_str_forms(self):
        assert "ratio=" in str(RatioEstimate("x", 10.0, OptSandwich(5.0, 5.0)))
        assert "∈" in str(RatioEstimate("x", 10.0, OptSandwich(4.0, 5.0)))

    def test_degenerate_zero_opt(self):
        est = RatioEstimate("x", 10.0, OptSandwich(0.0, 0.0))
        assert est.upper == math.inf


class TestMeasureRatio:
    def test_first_fit_tiny(self, tiny_instance):
        est = measure_ratio(FirstFit, tiny_instance)
        assert est.lower >= 1.0 - 1e-9

    def test_ratio_at_least_one(self):
        for seed in range(3):
            inst = uniform_random(60, 8, seed=seed)
            est = measure_ratio(FirstFit, inst, max_exact=18)
            assert est.upper >= est.lower >= 1.0 - 1e-9


class TestGrowthFit:
    def test_perfect_sqrt_law(self):
        mus = [4, 16, 64, 256, 1024]
        ratios = [3.0 * sqrt_log_mu(m) + 1.0 for m in mus]
        fit = fit_growth(mus, ratios, sqrt_log_mu, name="sqrt")
        assert math.isclose(fit.a, 3.0, abs_tol=1e-9)
        assert math.isclose(fit.b, 1.0, abs_tol=1e-9)
        assert fit.residual < 1e-9

    def test_predict(self):
        fit = GrowthFit("g", 2.0, 1.0, 0.0)
        assert fit.predict(3.0) == 7.0

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            fit_growth([4], [1.0], sqrt_log_mu)

    def test_best_law_identifies_generator(self):
        mus = [4, 16, 64, 256, 1024, 4096]
        ratios = [2.0 * loglog_mu(m) + 0.5 for m in mus]
        best = best_law(
            mus,
            ratios,
            [("sqrt", sqrt_log_mu), ("loglog", loglog_mu)],
        )
        assert best.law == "loglog"
