"""Unit tests for the Section 3/5 reductions."""

import pytest

from repro.algorithms.base import item_type
from repro.core.errors import AlignmentError
from repro.core.instance import Instance
from repro.reductions.alignment import (
    align_departures,
    assert_aligned,
    is_aligned,
    partition_aligned,
)
from repro.workloads.aligned import aligned_random, binary_input


class TestAlignDepartures:
    def test_departure_rounded_up(self):
        # item [0, 3): class 2, window c=0 → departure becomes 4
        inst = Instance.from_tuples([(0, 3, 0.5)])
        red = align_departures(inst)
        assert red[0].departure == 4.0

    def test_arrival_unchanged(self):
        inst = Instance.from_tuples([(1.5, 3, 0.5)])
        red = align_departures(inst)
        assert red[0].arrival == 1.5

    def test_length_grows_at_most_4x(self):
        import numpy as np

        rng = np.random.default_rng(2)
        triples = []
        for _ in range(60):
            a = float(rng.uniform(0, 50))
            triples.append((a, a + float(rng.uniform(1, 32)), 0.1))
        inst = Instance.from_tuples(triples)
        red = align_departures(inst)
        for orig, new in zip(inst, sorted(red, key=lambda r: r.uid)):
            assert new.length <= 4 * orig.length + 1e-9
            assert new.departure >= orig.departure - 1e-9

    def test_same_type_departs_together(self):
        import numpy as np

        rng = np.random.default_rng(3)
        triples = []
        for _ in range(80):
            a = float(rng.uniform(0, 30))
            triples.append((a, a + float(rng.uniform(1, 16)), 0.1))
        inst = Instance.from_tuples(triples)
        red = align_departures(inst)
        by_type: dict = {}
        for orig, new in zip(inst, sorted(red, key=lambda r: r.uid)):
            by_type.setdefault(item_type(orig), set()).add(new.departure)
        assert all(len(deps) == 1 for deps in by_type.values())

    def test_observations_1_and_2(self):
        """span(σ') ≤ 4 span(σ) and d(σ') ≤ 4 d(σ)."""
        inst = Instance.from_tuples(
            [(0, 2, 0.4), (1, 5, 0.3), (4, 6, 0.6), (5.5, 8, 0.2)]
        )
        red = align_departures(inst)
        assert red.span <= 4 * inst.span + 1e-9
        assert red.demand <= 4 * inst.demand + 1e-9

    def test_aligned_variant_rounds_to_next_multiple(self):
        inst = Instance.from_tuples([(4, 6.5, 0.5)])  # class 2 arriving at 4
        red = align_departures(inst, min_class=0)
        assert red[0].departure == 8.0


class TestIsAligned:
    def test_binary_input_aligned(self):
        assert is_aligned(binary_input(16))

    def test_aligned_random_aligned(self):
        assert is_aligned(aligned_random(32, 100, seed=1))

    def test_misaligned_arrival(self):
        assert not is_aligned(Instance.from_tuples([(1, 5, 0.5)]))

    def test_short_length_rejected(self):
        with pytest.raises(AlignmentError):
            assert_aligned(Instance.from_tuples([(0, 0.4, 0.5)]))

    def test_non_integer_arrival(self):
        assert not is_aligned(Instance.from_tuples([(0.5, 1.5, 0.5)]))


class TestPartition:
    def test_binary_input_single_segment(self):
        segs = partition_aligned(binary_input(16))
        assert len(segs) == 1
        assert len(segs[0]) == len(binary_input(16))

    def test_two_well_separated_segments(self):
        inst = Instance.from_tuples(
            [(0, 4, 0.5), (0, 1, 0.5), (8, 9, 0.5), (8, 16, 0.5)]
        )
        segs = partition_aligned(inst)
        assert len(segs) == 2
        assert {it.arrival for it in segs[0]} == {0}
        assert {it.arrival for it in segs[1]} == {8}

    def test_segment_horizon_uses_longest_at_start(self):
        # longest at t=0 is 4 → horizon 4; the arrival at 2 is inside
        inst = Instance.from_tuples([(0, 4, 0.5), (2, 3, 0.5), (4, 5, 0.5)])
        segs = partition_aligned(inst)
        assert len(segs) == 2
        assert len(segs[0]) == 2

    def test_items_do_not_cross_segments(self):
        inst = aligned_random(64, 200, seed=7, horizon=256)
        segs = partition_aligned(inst)
        assert sum(len(s) for s in segs) == len(inst)
        for a, b in zip(segs, segs[1:]):
            end_a = max(it.departure for it in a)
            start_b = min(it.arrival for it in b)
            assert end_a <= start_b + 1e-9

    def test_rejects_misaligned(self):
        with pytest.raises(AlignmentError):
            partition_aligned(Instance.from_tuples([(1, 5, 0.5)]))

    def test_empty(self):
        assert partition_aligned(Instance([])) == []
