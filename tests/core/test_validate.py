"""Unit tests for :mod:`repro.core.validate` — the audit must catch
manufactured violations, not just bless good packings."""

import dataclasses

import pytest

from repro.algorithms.anyfit import FirstFit
from repro.core.bins import BinRecord
from repro.core.errors import PackingError
from repro.core.item import Item
from repro.core.result import PackingResult
from repro.core.simulation import simulate
from repro.core.validate import audit, audit_cost, check_feasible_bin


def good_result(tiny):
    return simulate(FirstFit(), tiny)


class TestCheckFeasibleBin:
    def test_feasible(self):
        check_feasible_bin([Item(0, 2, 0.5, uid=0), Item(0, 2, 0.5, uid=1)])

    def test_overload_detected(self):
        with pytest.raises(PackingError):
            check_feasible_bin(
                [Item(0, 2, 0.7, uid=0), Item(1, 3, 0.7, uid=1)]
            )

    def test_sequential_items_feasible(self):
        check_feasible_bin([Item(0, 1, 0.9, uid=0), Item(1, 2, 0.9, uid=1)])

    def test_custom_capacity(self):
        check_feasible_bin(
            [Item(0, 1, 1.0, uid=0), Item(0, 1, 1.0, uid=1)], capacity=2.0
        )


class TestAudit:
    def test_good_result_passes(self, tiny_instance):
        audit(good_result(tiny_instance))

    def test_missing_assignment_detected(self, tiny_instance):
        res = good_result(tiny_instance)
        bad = dataclasses.replace(
            res, assignment={k: v for k, v in res.assignment.items() if k != 0}
        )
        with pytest.raises(PackingError):
            audit(bad)

    def test_unknown_bin_detected(self, tiny_instance):
        res = good_result(tiny_instance)
        assignment = dict(res.assignment)
        assignment[0] = 12345
        with pytest.raises(PackingError):
            audit(dataclasses.replace(res, assignment=assignment))

    def test_overloaded_bin_detected(self):
        # two size-0.8 items forced into one "bin" by a forged result
        items = (Item(0, 2, 0.8, uid=0), Item(0, 2, 0.8, uid=1))
        forged = PackingResult(
            algorithm="forged",
            items=items,
            assignment={0: 0, 1: 0},
            bins=(BinRecord(0, None, 0.0, 2.0, (0, 1)),),
            departed_at={0: 2.0, 1: 2.0},
        )
        with pytest.raises(PackingError):
            audit(forged)

    def test_gap_in_busy_period_detected(self):
        # one bin "holding" two disjoint items with a gap — must be two bins
        items = (Item(0, 1, 0.5, uid=0), Item(3, 4, 0.5, uid=1))
        forged = PackingResult(
            algorithm="forged",
            items=items,
            assignment={0: 0, 1: 0},
            bins=(BinRecord(0, None, 0.0, 4.0, (0, 1)),),
            departed_at={0: 1.0, 1: 4.0},
        )
        with pytest.raises(PackingError):
            audit(forged)

    def test_wrong_open_time_detected(self):
        items = (Item(1, 2, 0.5, uid=0),)
        forged = PackingResult(
            algorithm="forged",
            items=items,
            assignment={0: 0},
            bins=(BinRecord(0, None, 0.0, 2.0, (0,)),),
            departed_at={0: 2.0},
        )
        with pytest.raises(PackingError):
            audit(forged)

    def test_empty_bin_record_detected(self, tiny_instance):
        res = good_result(tiny_instance)
        extra = res.bins + (BinRecord(999, None, 0.0, 1.0, ()),)
        with pytest.raises(PackingError):
            audit(dataclasses.replace(res, bins=extra))

    def test_duplicate_bin_uid_detected(self, tiny_instance):
        res = good_result(tiny_instance)
        with pytest.raises(PackingError):
            audit(dataclasses.replace(res, bins=res.bins + res.bins))


class TestAuditCost:
    def test_cost_value_returned(self, tiny_instance):
        res = good_result(tiny_instance)
        assert audit_cost(res) == res.cost

    def test_inconsistent_record_detected(self, tiny_instance):
        res = good_result(tiny_instance)
        rec = res.bins[0]
        # shrink the recorded close time: Σ usage no longer matches ∫ ON_t
        bad_rec = BinRecord(
            rec.uid, rec.tag, rec.opened_at, rec.closed_at, rec.item_uids
        )
        # craft a profile mismatch by duplicating the bin in the count only
        forged = dataclasses.replace(
            res,
            bins=(
                bad_rec,
                BinRecord(777, None, rec.opened_at, rec.opened_at + 0.5, (0,)),
            ),
        )
        with pytest.raises(PackingError):
            audit(forged)
