"""Unit tests for :mod:`repro.core.bins`."""

import math

import pytest

from repro.algorithms import FirstFit
from repro.core.bins import Bin, BinRecord
from repro.core.errors import CapacityExceededError, PackingError
from repro.core.item import Item
from repro.core.kernel import KernelListener, PlacementKernel


def make_bin(capacity=1.0, tag=None):
    return Bin(uid=0, capacity=capacity, opened_at=0.0, tag=tag)


class _Departures(KernelListener):
    """Each departure's item, bin load and item count, and whether the
    bin closed."""

    def __init__(self):
        self.seen = []

    def on_departure(self, uid, removed, bin_, t, closed):
        self.seen.append((removed.uid, bin_.load, bin_.n_items, closed))


class TestBin:
    def test_initial_state(self):
        b = make_bin(tag=("GN",))
        assert b.load == 0.0
        assert b.n_items == 0
        assert b.tag == ("GN",)
        assert b.contents == ()

    def test_add_updates_load(self):
        b = make_bin()
        b._add(Item(0, 1, 0.5, uid=1))
        assert math.isclose(b.load, 0.5)
        assert 1 in b
        assert b.n_items == 1

    def test_add_same_item_twice_rejected(self):
        b = make_bin()
        b._add(Item(0, 1, 0.5, uid=1))
        with pytest.raises(PackingError):
            b._add(Item(0, 1, 0.2, uid=1))

    def test_capacity_enforced(self):
        b = make_bin()
        b._add(Item(0, 1, 0.7, uid=1))
        with pytest.raises(CapacityExceededError):
            b._add(Item(0, 1, 0.5, uid=2))

    def test_fits_with_tolerance(self):
        b = make_bin()
        for k in range(3):
            b._add(Item(0, 1, 1.0 / 3.0, uid=k))
        assert math.isclose(b.load, 1.0)
        assert not b.fits(Item(0, 1, 0.01, uid=9))

    def test_exact_fill_with_thirds(self):
        b = make_bin()
        b._add(Item(0, 1, 1 / 3, uid=0))
        b._add(Item(0, 1, 1 / 3, uid=1))
        assert b.fits(Item(0, 1, 1 / 3, uid=2))

    def test_residual(self):
        b = make_bin()
        b._add(Item(0, 1, 0.3, uid=0))
        assert math.isclose(b.residual(), 0.7)

    # removal is inlined in the kernel's departure loop: drive it there
    def test_remove(self):
        tape = _Departures()
        k = PlacementKernel(FirstFit(), listener=tape)
        k.release(Item(0, 1, 0.5, uid=1))
        k.drain()
        assert tape.seen == [(1, 0.0, 0, True)]

    def test_remove_unknown_rejected(self):
        k = PlacementKernel(FirstFit(clairvoyant=False))
        k.release(Item(0, None, 0.5, uid=1))
        with pytest.raises(PackingError, match="item 99 is not active"):
            k.depart(99, 1.0)

    def test_empty_bin_load_snaps_to_zero(self):
        # accumulate float noise (ten 0.1s leave 2.8e-17 behind), then empty
        tape = _Departures()
        sim = PlacementKernel(FirstFit(), listener=tape)
        for k in range(10):
            sim.release(Item(0, k + 1, 0.1, uid=k))
        sim.drain()
        assert sim.bins_opened == 1
        assert [closed for *_, closed in tape.seen] == [False] * 9 + [True]
        assert tape.seen[-1] == (9, 0.0, 0, True)
        assert tape.seen[-2][1] > 0.0

    def test_custom_capacity(self):
        b = make_bin(capacity=2.0)
        b._add(Item(0, 1, 1.0, uid=0))
        assert b.fits(Item(0, 1, 1.0, uid=1))

    def test_repr(self):
        assert "Bin(uid=0" in repr(make_bin())


class TestBinRecord:
    def test_usage(self):
        rec = BinRecord(0, None, 1.0, 5.0, (1, 2))
        assert rec.usage == 4.0

    def test_fields(self):
        rec = BinRecord(3, ("CD", (1, 0)), 0.0, 2.0, (7,), peak_load=0.9)
        assert rec.uid == 3
        assert rec.tag == ("CD", (1, 0))
        assert rec.item_uids == (7,)
        assert rec.peak_load == 0.9
