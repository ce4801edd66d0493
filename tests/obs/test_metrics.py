"""Metric primitives: bucket edges, gauges, merging, and the
deterministic packing-metrics registry as a kernel listener."""

import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import FirstFit, simulate, uniform_random
from repro.engine.metrics import EngineMetrics
from repro.obs import metrics as obs_metrics
from repro.obs import (
    BINS_OPEN_EDGES,
    Counter,
    Gauge,
    Histogram,
    Timing,
)
from repro.serve.telemetry import BATCH_SIZE_EDGES, DURATION_EDGES


class TestCounter:
    def test_inc_and_merge(self):
        a, b = Counter(), Counter()
        a.inc()
        a.inc(4)
        b.inc(2)
        a.merge(b)
        assert a.value == 7 and a.to_dict() == 7


class TestGauge:
    def test_tracks_last_min_max(self):
        g = Gauge()
        for v in (3.0, 1.0, 5.0, 2.0):
            g.set(v)
        assert g.value == 2.0
        assert g.min == 1.0 and g.max == 5.0
        assert g.updates == 4

    def test_unset_gauge_exports_none_bounds(self):
        assert Gauge().to_dict() == {
            "value": 0.0, "min": None, "max": None, "updates": 0,
        }

    def test_merge_is_minmax_exact(self):
        a, b = Gauge(), Gauge()
        a.set(2.0)
        b.set(7.0)
        b.set(1.0)
        a.merge(b)
        assert a.value == 1.0  # last writer (merge order) wins
        assert a.min == 1.0 and a.max == 7.0 and a.updates == 3

    def test_merging_empty_gauge_is_identity(self):
        a = Gauge()
        a.set(4.0)
        a.merge(Gauge())
        assert a.to_dict()["value"] == 4.0 and a.updates == 1


class TestHistogram:
    def test_bucket_edges_are_half_open(self):
        """(lo, hi] semantics: a value exactly on an edge lands below it."""
        h = Histogram((1, 2, 4))
        for x in (0.5, 1, 1.0001, 2, 3, 4, 4.0001, 100):
            h.observe(x)
        # counts: <=1, (1,2], (2,4], >4
        assert h.counts == [2, 2, 2, 2]
        assert h.total == 8

    def test_mean(self):
        h = Histogram((10,))
        h.observe(2)
        h.observe(4)
        assert h.mean == 3.0
        assert Histogram((1,)).mean == 0.0

    def test_edges_sorted_and_validated(self):
        assert Histogram((4, 1, 2)).edges == (1, 2, 4)
        with pytest.raises(ValueError):
            Histogram(())

    def test_merge_requires_same_edges(self):
        a, b = Histogram((1, 2)), Histogram((1, 3))
        with pytest.raises(ValueError, match="different edges"):
            a.merge(b)

    def test_merge_is_bucketwise_sum(self):
        a, b = Histogram((1, 2)), Histogram((1, 2))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(5.0)
        a.merge(b)
        assert a.counts == [1, 1, 1] and a.total == 3

    def test_to_dict_labels(self):
        h = Histogram((1, 2))
        d = h.to_dict()
        assert list(d["buckets"]) == ["<= 1", "(1, 2]", "> 2"]

    def test_merge_empty_into_empty(self):
        a, b = Histogram((1, 2)), Histogram((1, 2))
        a.merge(b)
        assert a.counts == [0, 0, 0]
        assert a.total == 0 and a.sum == 0.0 and a.mean == 0.0

    def test_merge_empty_into_populated_is_identity(self):
        a, b = Histogram((1, 2)), Histogram((1, 2))
        a.observe(0.5)
        a.observe(1.5)
        before = (list(a.counts), a.total, a.sum)
        a.merge(b)
        assert (list(a.counts), a.total, a.sum) == before
        assert a.mean == 1.0

    def test_merge_populated_into_empty_copies_everything(self):
        a, b = Histogram((1, 2)), Histogram((1, 2))
        b.observe(0.5)
        b.observe(5.0)
        a.merge(b)
        assert a.counts == b.counts and a.counts == [1, 0, 1]
        assert a.total == 2 and a.mean == b.mean

    def test_merge_disjoint_buckets_sums_without_overlap(self):
        # shards that each only touched different buckets must
        # interleave cleanly: no bucket double-counts, mean is exact
        a, b = Histogram((1, 2, 4)), Histogram((1, 2, 4))
        for x in (0.25, 0.75):  # a hits only the underflow bucket
            a.observe(x)
        for x in (3.0, 9.0):  # b hits only (2,4] and overflow
            b.observe(x)
        a.merge(b)
        assert a.counts == [2, 0, 1, 1]
        assert a.total == 4
        assert a.mean == pytest.approx((0.25 + 0.75 + 3.0 + 9.0) / 4)


#: every bucket-edge tuple the package defines
ALL_EDGES = [
    value for name, value in sorted(vars(obs_metrics).items())
    if name.endswith("_EDGES")
] + [BATCH_SIZE_EDGES, DURATION_EDGES]


def reference_bucket(edges, x) -> int:
    """The hand-written bisect_left loop ``Histogram.observe`` once ran."""
    lo, hi = 0, len(edges)
    while lo < hi:
        mid = (lo + hi) // 2
        if edges[mid] < x:
            lo = mid + 1
        else:
            hi = mid
    return lo


#: the awkward points: every edge exactly, zeros, NaN and both infinities
SPECIAL_VALUES = sorted(
    {float(e) for edges in ALL_EDGES for e in edges}
    | {0.0, -0.0, -1.0, 1e-300, 1e300}
) + [math.nan, math.inf, -math.inf]

observations = st.one_of(
    st.sampled_from(SPECIAL_VALUES),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-10**6, max_value=10**6),
)


class TestObserveMatchesReferenceLoop:
    def test_six_edge_tuples_plus_the_telemetry_ones(self):
        assert len(ALL_EDGES) == 8

    @given(
        edges=st.sampled_from(ALL_EDGES),
        xs=st.lists(observations, max_size=40),
    )
    def test_same_buckets_total_and_sum(self, edges, xs):
        h = Histogram(edges)
        counts = [0] * (len(edges) + 1)
        total, acc = 0, 0.0
        for x in xs:
            h.observe(x)
            counts[reference_bucket(h.edges, x)] += 1
            total += 1
            acc += x
        assert h.counts == counts
        assert h.total == total
        assert h.sum == acc or (math.isnan(h.sum) and math.isnan(acc))

    @pytest.mark.parametrize("edges", ALL_EDGES)
    def test_every_special_value(self, edges):
        for x in SPECIAL_VALUES:
            h = Histogram(edges)
            h.observe(x)
            assert h.counts[reference_bucket(h.edges, x)] == 1, x

    def test_nan_lands_in_the_first_bucket_and_inf_overflows(self):
        h = Histogram((1, 2))
        for x in (math.nan, math.inf, -math.inf):
            h.observe(x)
        assert h.counts == [2, 0, 1]


class TestTiming:
    def test_observe_and_merge(self):
        a, b = Timing(), Timing()
        a.observe(0.002)
        b.observe(0.001)
        b.observe(0.005)
        a.merge(b)
        assert a.count == 3
        assert a.min == 0.001 and a.max == 0.005
        assert a.to_dict()["mean_us"] == pytest.approx(8000 / 3)


class TestMetricsListener:
    """:class:`EngineMetrics` attached straight to the batch kernel."""

    def test_counts_and_conservation(self):
        inst = uniform_random(150, 16, seed=1)
        ml = EngineMetrics()
        simulate(FirstFit(), inst, listener=ml)
        snap = ml.snapshot()
        c = snap["counters"]
        assert c["arrivals"] == c["departures"] == 150
        assert c["events"] == 300
        assert c["bins_opened"] == c["bins_closed"]
        assert set(snap) == {"counters", "histograms"}  # no clock, no gauges
        assert snap["histograms"]["residual_at_placement"]["total"] == 150
        assert snap["histograms"]["bins_open"]["total"] == 150
        assert snap["histograms"]["bin_occupancy"]["total"] == c["bins_closed"]

    def test_bins_open_histogram_edges(self):
        assert EngineMetrics().bins_open.edges == BINS_OPEN_EDGES

    def test_merge_two_shards(self):
        a, b = EngineMetrics(), EngineMetrics()
        simulate(FirstFit(), uniform_random(60, 8, seed=2), listener=a)
        simulate(FirstFit(), uniform_random(40, 8, seed=3), listener=b)
        total_bins = a.bins_opened.value + b.bins_opened.value
        a.merge(b)
        assert a.arrivals.value == 100
        assert a.bins_opened.value == total_bins
        assert a.bin_lifetime.total == total_bins

    def test_pickles(self):
        ml = EngineMetrics()
        simulate(FirstFit(), uniform_random(40, 8, seed=7), listener=ml)
        clone = pickle.loads(pickle.dumps(ml))
        assert clone.snapshot() == ml.snapshot()

    def test_snapshot_extra(self):
        snap = EngineMetrics().snapshot(extra={"cost": 1.5})
        assert snap["cost"] == 1.5
