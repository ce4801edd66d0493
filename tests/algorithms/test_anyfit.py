"""Unit tests for the Any-Fit family."""

import pytest

from repro.algorithms.anyfit import (
    AnyFit,
    BestFit,
    FirstFit,
    LastFit,
    NextFit,
    RandomFit,
    WorstFit,
)
from repro.core.instance import Instance
from repro.core.simulation import simulate
from repro.core.validate import audit


def crafted():
    """Three bins with loads 0.2, 0.7, 0.5 alive when a 0.25 item arrives.

    Built so First/Best/Worst/Last-Fit all choose different bins.
    """
    return Instance.from_tuples(
        [
            (0.0, 10.0, 0.2),  # bin A
            (0.0, 10.0, 0.9),  # forces bin B...
            (0.5, 10.0, 0.7),  # ...but arrives later: bin B
            (0.6, 10.0, 0.5),  # bin C (doesn't fit A? 0.2+0.5=0.7 fits!)
        ]
    )


class TestFirstFit:
    def test_fills_earliest(self):
        inst = Instance.from_tuples(
            [(0, 4, 0.5), (0, 4, 0.9), (1, 4, 0.3)]
        )
        res = simulate(FirstFit(), inst)
        # 0.3 goes into the first (0.5) bin, not the 0.9 bin
        assert res.assignment[2] == res.assignment[0]

    def test_opens_when_nothing_fits(self):
        inst = Instance.from_tuples([(0, 2, 0.9), (0, 2, 0.9)])
        res = simulate(FirstFit(), inst)
        assert res.n_bins == 2

    def test_closed_bin_never_reused(self):
        inst = Instance.from_tuples([(0, 1, 0.5), (2, 3, 0.5)])
        res = simulate(FirstFit(), inst)
        assert res.n_bins == 2
        assert res.assignment[0] != res.assignment[1]

    def test_name(self):
        assert FirstFit().name == "FirstFit"

    def test_nonclairvoyant_flag(self):
        assert FirstFit(clairvoyant=False).clairvoyant is False


def two_bins_then_probe(probe_size: float) -> Instance:
    """Two items that cannot share a bin (0.5 and 0.6), then a probe item
    fitting both bins — the rule under test decides where the probe goes."""
    return Instance.from_tuples(
        [(0, 4, 0.5), (0, 4, 0.6), (1, 4, probe_size)]
    )


class TestBestFit:
    def test_picks_fullest(self):
        res = simulate(BestFit(), two_bins_then_probe(0.35))
        # fullest fitting bin is the 0.6 one
        assert res.assignment[2] == res.assignment[1]
        audit(res)

    def test_tie_goes_to_earliest(self):
        inst = Instance.from_tuples(
            [(0, 4, 0.55), (0, 4, 0.55), (1, 4, 0.4)]
        )
        res = simulate(BestFit(), inst)
        assert res.assignment[2] == res.assignment[0]


class TestWorstFit:
    def test_picks_emptiest(self):
        res = simulate(WorstFit(), two_bins_then_probe(0.35))
        assert res.assignment[2] == res.assignment[0]


class TestLastFit:
    def test_picks_most_recent(self):
        res = simulate(LastFit(), two_bins_then_probe(0.35))
        assert res.assignment[2] == res.assignment[1]


class TestNextFit:
    def test_ignores_older_bins(self):
        inst = Instance.from_tuples(
            [(0, 4, 0.5), (0, 4, 0.9), (1, 4, 0.3)]
        )
        res = simulate(NextFit(), inst)
        # active bin is the 0.9 one; 0.3 doesn't fit → new bin (not bin 0!)
        assert res.assignment[2] not in (res.assignment[0], res.assignment[1])
        assert res.n_bins == 3

    def test_reuses_active(self):
        inst = Instance.from_tuples([(0, 4, 0.3), (1, 4, 0.3)])
        res = simulate(NextFit(), inst)
        assert res.n_bins == 1

    def test_active_bin_closing_resets(self):
        inst = Instance.from_tuples([(0, 1, 0.3), (2, 3, 0.3)])
        res = simulate(NextFit(), inst)
        audit(res)
        assert res.n_bins == 2


class TestRandomFit:
    def test_deterministic_given_seed(self, tiny_instance):
        r1 = simulate(RandomFit(seed=5), tiny_instance)
        r2 = simulate(RandomFit(seed=5), tiny_instance)
        assert r1.assignment == r2.assignment

    def test_valid_packing(self):
        inst = Instance.from_tuples([(0, 4, 0.4)] * 10)
        res = simulate(RandomFit(seed=1), inst)
        audit(res)

    def test_reset_restores_stream(self, tiny_instance):
        alg = RandomFit(seed=3)
        r1 = simulate(alg, tiny_instance)
        r2 = simulate(alg, tiny_instance)  # reset() called by the simulator
        assert r1.assignment == r2.assignment


class TestAnyFitGeneric:
    def test_custom_rule(self):
        def middle(cands, item):
            return cands[len(cands) // 2]

        alg = AnyFit(middle, name="MiddleFit")
        inst = Instance.from_tuples([(0, 4, 0.2)] * 3 + [(1, 4, 0.9)])
        res = simulate(alg, inst)
        audit(res)
        assert res.algorithm == "MiddleFit"

    def test_default_name_from_rule(self):
        from repro.algorithms.anyfit import BEST_FIT

        assert "BEST_FIT" in AnyFit(BEST_FIT).name

    @pytest.mark.parametrize(
        "factory", [FirstFit, BestFit, WorstFit, LastFit, NextFit]
    )
    def test_all_audit_clean_on_stress(self, factory):
        from repro.workloads.random_general import uniform_random

        inst = uniform_random(150, 32, seed=11)
        res = simulate(factory(), inst)
        audit(res)
        # any-fit cost is at least demand and span
        assert res.cost >= inst.demand - 1e-9
        assert res.cost >= inst.span - 1e-9
