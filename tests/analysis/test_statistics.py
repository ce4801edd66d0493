"""Unit tests for the aggregation statistics."""

import math

import numpy as np
import pytest

from repro.analysis.statistics import bootstrap_ci, summarize


class TestBootstrapCI:
    def test_single_value_degenerate(self):
        assert bootstrap_ci([3.0]) == (3.0, 3.0)

    def test_contains_true_mean_usually(self):
        rng = np.random.default_rng(0)
        hits = 0
        for k in range(30):
            xs = rng.normal(5.0, 1.0, size=25)
            lo, hi = bootstrap_ci(xs, seed=k)
            if lo <= 5.0 <= hi:
                hits += 1
        assert hits >= 24  # ≈95% coverage, generous slack

    def test_interval_ordering(self):
        lo, hi = bootstrap_ci([1.0, 2.0, 3.0, 4.0], seed=1)
        assert lo <= hi
        assert 1.0 <= lo and hi <= 4.0

    def test_deterministic_given_seed(self):
        xs = [1.0, 5.0, 2.0, 4.0]
        assert bootstrap_ci(xs, seed=2) == bootstrap_ci(xs, seed=2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], confidence=1.5)

    def test_narrower_with_more_data(self):
        rng = np.random.default_rng(3)
        small = rng.normal(0, 1, size=10)
        big = rng.normal(0, 1, size=1000)
        lo_s, hi_s = bootstrap_ci(small, seed=0)
        lo_b, hi_b = bootstrap_ci(big, seed=0)
        assert (hi_b - lo_b) < (hi_s - lo_s)


class TestSummarize:
    def test_fields(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.n == 3
        assert math.isclose(s.mean, 2.0)
        assert s.min == 1.0 and s.max == 3.0
        assert math.isclose(s.std, 1.0)

    def test_single_value(self):
        s = summarize([4.0])
        assert s.std == 0.0 and s.ci_low == s.ci_high == 4.0

    def test_str_forms(self):
        assert str(summarize([2.0])) == "2.000"
        assert "[" in str(summarize([1.0, 2.0, 3.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])
