"""Property-based tests: binary strings, aligned inputs, the reduction."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import item_type, type_departure_deadline
from repro.analysis.binary_strings import max_zero_run
from repro.core.instance import Instance
from repro.core.item import Item
from repro.reductions.alignment import align_departures, is_aligned, partition_aligned

bitstrings = st.text(alphabet="01", min_size=0, max_size=40)


class TestMaxZeroRun:
    @given(bitstrings)
    @settings(max_examples=150, deadline=None)
    def test_matches_regex(self, bits):
        runs = re.findall("0+", bits)
        expected = max((len(r) for r in runs), default=0)
        assert max_zero_run(bits) == expected

    @given(bitstrings)
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_length(self, bits):
        assert 0 <= max_zero_run(bits) <= len(bits)

    @given(bitstrings, bitstrings)
    @settings(max_examples=100, deadline=None)
    def test_concat_superadditive(self, a, b):
        """max_0(a||b) ≥ max(max_0(a), max_0(b))."""
        assert max_zero_run(a + b) >= max(max_zero_run(a), max_zero_run(b))

    @given(bitstrings)
    @settings(max_examples=100, deadline=None)
    def test_prepending_one_never_increases(self, bits):
        assert max_zero_run("1" + bits) == max_zero_run(bits)


@st.composite
def general_items(draw):
    a = draw(st.floats(min_value=0, max_value=200, allow_nan=False))
    l = draw(st.floats(min_value=1.0, max_value=150, allow_nan=False))
    s = draw(st.floats(min_value=0.01, max_value=1.0, allow_nan=False))
    return Item(a, a + l, s, uid=0)


class TestReductionProperties:
    @given(general_items())
    @settings(max_examples=150, deadline=None)
    def test_deadline_sandwiches_departure(self, item):
        T = item_type(item)
        deadline = type_departure_deadline(T)
        assert deadline >= item.departure - 1e-6
        assert deadline - item.arrival <= 4 * item.length + 1e-6

    @given(st.lists(general_items(), min_size=1, max_size=15))
    @settings(max_examples=60, deadline=None)
    def test_reduction_observations(self, raw_items):
        inst = Instance.from_tuples(
            [(it.arrival, it.departure, it.size) for it in raw_items]
        )
        red = align_departures(inst)
        assert red.span <= 4 * inst.span + 1e-6
        assert red.demand <= 4 * inst.demand + 1e-6
        # reduction is idempotent on departures already at type deadlines
        red2 = align_departures(red)
        for r1, r2 in zip(
            sorted(red, key=lambda r: r.uid), sorted(red2, key=lambda r: r.uid)
        ):
            assert r2.departure >= r1.departure - 1e-9


@st.composite
def aligned_instances(draw):
    n_cls = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=20))
    triples = [(0.0, float(2 ** (n_cls - 1)), 0.2)]  # anchor
    for _ in range(n):
        i = draw(st.integers(min_value=0, max_value=n_cls - 1))
        width = 2**i
        c = draw(st.integers(min_value=0, max_value=2 ** (n_cls - 1 - i) - 1))
        frac = draw(st.floats(min_value=0.51, max_value=1.0))
        length = max(0.5001, frac * width)
        s = draw(st.floats(min_value=0.05, max_value=1.0, allow_nan=False))
        triples.append((float(c * width), float(c * width) + length, s))
    return Instance.from_tuples(triples)


class TestAlignedProperties:
    @given(aligned_instances())
    @settings(max_examples=50, deadline=None)
    def test_generated_inputs_are_aligned(self, inst):
        assert is_aligned(inst)

    @given(aligned_instances())
    @settings(max_examples=50, deadline=None)
    def test_partition_covers_and_separates(self, inst):
        segs = partition_aligned(inst)
        assert sum(len(s) for s in segs) == len(inst)
        for a, b in zip(segs, segs[1:]):
            assert max(it.departure for it in a) <= min(
                it.arrival for it in b
            ) + 1e-9

    @given(aligned_instances())
    @settings(max_examples=50, deadline=None)
    def test_cdff_feasible_on_aligned(self, inst):
        from repro.algorithms.cdff import CDFF
        from repro.core.simulation import simulate
        from repro.core.validate import audit

        result = simulate(CDFF(), inst)
        audit(result)
        assert result.cost >= inst.span - 1e-9
