"""Unit tests for classify-by-duration algorithms."""

import pytest

from repro.algorithms.classify import (
    ClassifyByDuration,
    RenTang,
    optimal_rentang_n,
)
from repro.core.errors import InvalidItemError
from repro.core.instance import Instance
from repro.core.simulation import simulate
from repro.core.validate import audit


class TestClassifyByDuration:
    def test_items_of_different_classes_never_share(self):
        # a 1-length and an 8-length item, both tiny: CBD keeps them apart
        inst = Instance.from_tuples([(0, 1, 0.1), (0, 8, 0.1)])
        res = simulate(ClassifyByDuration(), inst)
        assert res.assignment[0] != res.assignment[1]
        assert res.n_bins == 2

    def test_same_class_shares(self):
        inst = Instance.from_tuples([(0, 3, 0.1), (0, 4, 0.1)])
        res = simulate(ClassifyByDuration(), inst)
        assert res.assignment[0] == res.assignment[1]

    def test_first_fit_within_class(self):
        inst = Instance.from_tuples(
            [(0, 4, 0.6), (0, 4, 0.6), (1, 4, 0.3)]
        )
        res = simulate(ClassifyByDuration(), inst)
        assert res.assignment[2] == res.assignment[0]

    def test_closed_class_bin_removed_from_pool(self):
        inst = Instance.from_tuples([(0, 1, 0.5), (2, 3, 0.5)])
        res = simulate(ClassifyByDuration(), inst)
        audit(res)
        assert res.n_bins == 2

    def test_custom_base(self):
        # base 4: lengths 2 and 3 share class 1 = (1, 4] → same bin
        inst = Instance.from_tuples([(0, 2, 0.1), (0, 3, 0.1)])
        res = simulate(ClassifyByDuration(base=4.0), inst)
        assert res.assignment[0] == res.assignment[1]
        # but base 2 separates them: class(2)=1, class(3)=2
        res2 = simulate(ClassifyByDuration(base=2.0), inst)
        assert res2.assignment[0] != res2.assignment[1]

    def test_invalid_base(self):
        with pytest.raises(InvalidItemError):
            ClassifyByDuration(base=1.0)

    def test_tags_carry_class(self):
        inst = Instance.from_tuples([(0, 8, 0.1)])
        res = simulate(ClassifyByDuration(), inst)
        assert res.bins[0].tag == ("class", 3)


class TestOptimalRenTangN:
    def test_small_mu(self):
        assert optimal_rentang_n(1.0) == 1
        assert optimal_rentang_n(2.0) >= 1

    def test_minimises(self):
        mu = 1024.0
        n_star = optimal_rentang_n(mu)
        f = lambda n: mu ** (1.0 / n) + n + 3
        assert all(f(n_star) <= f(n) + 1e-9 for n in range(1, 60))

    def test_grows_with_mu(self):
        assert optimal_rentang_n(2.0**20) >= optimal_rentang_n(2.0**4)


class TestRenTang:
    def test_basic_run(self):
        inst = Instance.from_tuples([(0, 1, 0.5), (0, 16, 0.5), (1, 4, 0.5)])
        res = simulate(RenTang(16.0), inst)
        audit(res)

    def test_single_class_behaves_like_ff(self):
        inst = Instance.from_tuples([(0, 2, 0.5), (0, 3, 0.4), (1, 4, 0.1)])
        res_rt = simulate(RenTang(4.0, n=1), inst)
        from repro.algorithms.anyfit import FirstFit

        res_ff = simulate(FirstFit(), inst)
        assert res_rt.cost == res_ff.cost

    def test_out_of_range_length_rejected(self):
        inst = Instance.from_tuples([(0, 100.0, 0.5)])
        with pytest.raises(InvalidItemError):
            simulate(RenTang(16.0), inst)

    def test_boundary_lengths_accepted(self):
        inst = Instance.from_tuples([(0, 1.0, 0.5), (0, 16.0, 0.5)])
        res = simulate(RenTang(16.0), inst)
        audit(res)

    def test_classes_partition_range(self):
        rt = RenTang(64.0, n=3)
        from repro.core.item import Item

        ks = [rt._class_of(Item(0, l, 0.5)) for l in (1.0, 3.9, 4.1, 15.9, 16.1, 64.0)]
        assert min(ks) == 0 and max(ks) == 2
        assert ks == sorted(ks)

    def test_invalid_mu(self):
        with pytest.raises(InvalidItemError):
            RenTang(0.5)

    def test_invalid_n(self):
        with pytest.raises(InvalidItemError):
            RenTang(16.0, n=0)

    def test_default_n_is_optimal(self):
        assert RenTang(1024.0).n == optimal_rentang_n(1024.0)

    def test_respects_upper_bound_on_random(self):
        from repro.analysis.theory import rentang_upper_bound
        from repro.offline.optimal import opt_reference
        from repro.workloads.random_general import uniform_random

        mu = 64.0
        inst = uniform_random(200, mu, seed=2)
        rt = RenTang(mu)
        res = simulate(rt, inst)
        audit(res)
        opt = opt_reference(inst, max_exact=16)
        assert res.cost / opt.lower <= rentang_upper_bound(mu, rt.n) + 1e-9
