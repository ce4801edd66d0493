"""Metrics layer: primitives, the packing-metrics registry, sinks."""

import json

import pytest

from repro.algorithms import FirstFit, HybridAlgorithm
from repro.engine import (
    Counter,
    Engine,
    EngineMetrics,
    Histogram,
    JSONSink,
    Timing,
)
from repro.obs.metrics import BINS_OPEN_EDGES
from repro.workloads import poisson_random, uniform_random


class TestPrimitives:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_histogram_buckets(self):
        h = Histogram((1, 2, 5))
        for x in (0.5, 1.0, 1.5, 3.0, 10.0):
            h.observe(x)
        snap = h.to_dict()
        assert snap["total"] == 5
        assert snap["buckets"]["<= 1"] == 2  # 0.5 and 1.0 (right-closed)
        assert snap["buckets"]["(1, 2]"] == 1
        assert snap["buckets"]["(2, 5]"] == 1
        assert snap["buckets"]["> 5"] == 1
        assert h.mean == pytest.approx((0.5 + 1 + 1.5 + 3 + 10) / 5)

    def test_histogram_needs_edges(self):
        with pytest.raises(ValueError):
            Histogram(())

    def test_timing(self):
        t = Timing()
        t.observe(0.5)
        t.observe(1.5)
        snap = t.to_dict()
        assert snap["count"] == 2
        assert snap["total_s"] == pytest.approx(2.0)
        assert snap["min_us"] == pytest.approx(5e5)
        assert snap["max_us"] == pytest.approx(1.5e6)


class TestEngineMetrics:
    def run_engine(self):
        metrics = EngineMetrics()
        inst = uniform_random(100, 16, seed=13)
        Engine(FirstFit(), metrics=metrics).run(iter(inst))
        return metrics, inst

    def test_counters_match_run(self):
        metrics, inst = self.run_engine()
        assert metrics.arrivals.value == len(inst)
        assert metrics.departures.value == len(inst)
        assert metrics.events.value == 2 * len(inst)
        assert metrics.bins_opened.value == metrics.bins_closed.value
        assert metrics.bins_opened.value > 0

    def test_histograms_cover_all_bins(self):
        metrics, _ = self.run_engine()
        assert metrics.bin_occupancy.total == metrics.bins_closed.value
        assert metrics.bin_utilization.total == metrics.bins_closed.value
        assert metrics.bin_lifetime.total == metrics.bins_closed.value
        # utilisation is a fraction of capacity: nothing above 1.0
        assert metrics.bin_utilization.to_dict()["buckets"]["> 1"] == 0

    @pytest.mark.parametrize("path", ["feed", "feed_store"])
    def test_late_registry_sees_the_true_open_count(self, path):
        # the path of ``engine.metrics = EngineMetrics()`` taken by a
        # shard handed a ready engine and by a metrics-less resume
        inst = poisson_random(12, 16, 40, seed=8)
        items = list(inst)
        k = len(items) // 3
        reference = Engine(HybridAlgorithm())
        expected = Histogram(BINS_OPEN_EDGES)
        for i, it in enumerate(items):
            reference.feed(it)
            if i >= k:
                expected.observe(reference.open_bin_count)

        eng = Engine(HybridAlgorithm())
        for it in items[:k]:
            eng.feed(it)
        assert eng.open_bin_count > 1
        eng.metrics = late = EngineMetrics()
        if path == "feed":
            for it in items[k:]:
                eng.feed(it)
        else:
            eng.feed_store(inst.store, k)
        assert late.arrivals.value == len(items) - k
        assert late.bins_open.to_dict() == expected.to_dict()

    def test_snapshot_shape(self):
        metrics, _ = self.run_engine()
        snap = metrics.snapshot(extra={"run": "test"})
        assert set(snap) == {"counters", "histograms", "run"}
        json.dumps(snap)  # JSON-serialisable end to end


class _ListSink(list):
    def emit(self, snapshot: dict) -> None:
        self.append(snapshot)


class TestSinks:
    def test_json_sink(self, tmp_path):
        path = tmp_path / "m.json"
        EngineMetrics().flush(JSONSink(path))
        assert json.loads(path.read_text())["counters"]["events"] == 0

    def test_callback_sink_and_multi_flush(self):
        first, second = _ListSink(), _ListSink()
        EngineMetrics().flush([first, second])
        assert len(first) == len(second) == 1 and first == second

    def test_flush_accepts_single_sink(self):
        sink = _ListSink()
        m = EngineMetrics()
        m.flush(sink)
        m.events.inc()
        m.flush(sink)
        assert [s["counters"]["events"] for s in sink] == [0, 1]
