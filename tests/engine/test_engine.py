"""Unit tests for the streaming engine core (loop + kernel-owned totals)."""

import pytest

from repro.algorithms import BestFit, FirstFit, HybridAlgorithm
from repro.core.errors import (
    ClairvoyanceError,
    InvalidInstanceError,
    PackingError,
    SimulationError,
)
from repro.core.instance import Instance
from repro.core.item import Item
from repro.core.simulation import simulate
from repro.engine import Engine, EngineMetrics
from repro.core.kernel import KernelListener, PlacementKernel
from repro.core.profile import open_count_profile
from repro.workloads import uniform_random


def small_instance() -> Instance:
    return Instance.from_tuples(
        [(0.0, 4.0, 0.5), (0.0, 1.0, 0.5), (2.0, 6.0, 0.3), (2.0, 3.0, 0.9)]
    )


class TestEngineBasics:
    def test_run_matches_simulate_cost(self):
        inst = small_instance()
        batch = simulate(FirstFit(), inst)
        summary = Engine(FirstFit()).run(iter(inst))
        assert summary.cost == batch.cost
        assert summary.max_open == batch.max_open
        assert summary.bins_opened == batch.n_bins

    def test_out_of_order_rejected(self):
        eng = Engine(FirstFit())
        eng.feed(Item(5.0, 6.0, 0.5, uid=0))
        with pytest.raises(SimulationError):
            eng.feed(Item(1.0, 2.0, 0.5, uid=1))

    def test_clairvoyant_algorithm_rejects_unknown_departure(self):
        eng = Engine(FirstFit())
        with pytest.raises(ClairvoyanceError):
            eng.feed(Item(0.0, None, 0.5, uid=0))

    def test_capacity_validated(self):
        with pytest.raises(SimulationError):
            Engine(FirstFit(), capacity=0.0)

    def test_cost_so_far_mid_stream(self):
        eng = Engine(FirstFit())
        eng.feed(Item(0.0, 4.0, 0.5, uid=0))
        eng.feed(Item(0.0, 2.0, 0.9, uid=1))  # needs a second bin
        eng.advance_to(3.0)
        # bin0 open [0, 3), bin1 closed [0, 2)
        assert eng.cost_so_far == pytest.approx(3.0 + 2.0)
        assert eng.open_bin_count == 1
        eng.finish()
        assert eng.closed_usage == pytest.approx(4.0 + 2.0)

    def test_constant_memory_keeps_no_history(self):
        inst = uniform_random(200, 16, seed=2)
        eng = Engine(FirstFit())
        eng.run(iter(inst))
        assert eng._items == []
        assert eng._records == []
        assert eng._assignment == {}
        with pytest.raises(SimulationError):
            eng.result()

    def test_record_mode_result_equals_simulate(self):
        inst = uniform_random(120, 16, seed=3)
        batch = simulate(HybridAlgorithm(), inst)
        eng = Engine(HybridAlgorithm(), record=True)
        eng.run(iter(inst))
        streamed = eng.result()
        assert streamed.cost == batch.cost
        assert streamed.assignment == batch.assignment
        assert streamed.bins == batch.bins
        assert streamed.departed_at == batch.departed_at

    def test_finish_with_adaptive_items_raises(self):
        class Lenient(FirstFit):
            def __init__(self):
                super().__init__(clairvoyant=False)

        eng = Engine(Lenient())
        eng.feed(Item(0.0, None, 0.4, uid=0))
        with pytest.raises(SimulationError):
            eng.finish()

    def test_adaptive_depart(self):
        class Lenient(FirstFit):
            def __init__(self):
                super().__init__(clairvoyant=False)

        eng = Engine(Lenient())
        eng.feed(Item(0.0, None, 0.4, uid=0))
        eng.depart(0, 5.0)
        summary = eng.finish()
        assert summary.cost == pytest.approx(5.0)
        # departing a scheduled item explicitly is an error
        eng2 = Engine(Lenient())
        eng2.feed(Item(0.0, 2.0, 0.4, uid=0))
        with pytest.raises(SimulationError):
            eng2.depart(0, 1.0)

    def test_place_must_return_open_bin(self):
        class Rogue(FirstFit):
            def place(self, item, sim):
                from repro.core.bins import Bin

                return Bin(999, 1.0, 0.0)

        with pytest.raises(PackingError):
            Engine(Rogue()).feed(Item(0.0, 1.0, 0.5, uid=0))

    def test_summary_counters(self):
        inst = small_instance()
        summary = Engine(FirstFit()).run(iter(inst))
        assert summary.items == len(inst)
        assert summary.bins_opened == summary.bins_closed
        assert summary.final_time == 6.0
        d = summary.to_dict()
        assert d["items"] == 4 and d["algorithm"] == "FirstFit"


class Recorder(KernelListener):
    """Records each arrival and departure with the kernel's clock and
    running count at that moment (a test probe, so it keeps the
    kernel)."""

    def bind(self, kernel):
        self.kernel = kernel
        self.events = []

    def on_arrival(self, item, bin_, opened):
        k = self.kernel
        self.events.append(
            ("arrival", item.uid, bin_.uid, opened, k.time, k.arrivals)
        )

    def on_departure(self, uid, removed, bin_, t, closed):
        self.events.append(
            ("departure", uid, bin_.uid, closed, t, self.kernel.departures)
        )


class TestObservers:
    """Kernel events reach a listener attached through the engine."""

    def test_events_narrated_in_order(self):
        tape = Recorder()
        eng = Engine(FirstFit(), listeners=(tape,))
        eng.run(iter(small_instance()))
        kinds = [e[0] for e in tape.events]
        assert kinds.count("arrival") == 4
        assert kinds.count("departure") == 4
        times = [e[4] for e in tape.events]
        assert times == sorted(times)
        closed = [e for e in tape.events if e[0] == "departure" and e[3]]
        assert len(closed) == eng.bins_closed

    def test_arrival_event_payload(self):
        tape = Recorder()
        eng = Engine(FirstFit(), listeners=(tape,))
        bin_ = eng.feed(Item(0.0, 1.0, 0.5, uid=0))
        assert tape.events == [("arrival", 0, bin_.uid, True, 0.0, 1)]


class TestFeedStoreWindow:
    @pytest.mark.parametrize("metered", [False, True])
    def test_inverted_or_oversized_range_is_rejected(self, metered):
        store = small_instance().store
        eng = Engine(FirstFit(), metrics=EngineMetrics() if metered else None)
        with pytest.raises(InvalidInstanceError):
            eng.feed_store(store, 5, 3)  # used to return -2
        with pytest.raises(InvalidInstanceError):
            eng.feed_store(store.slice(1, 3), 0, len(store))
        assert eng.arrivals == 0
        assert eng.feed_store(store, 1, 3) == 2
        assert eng.arrivals == 2


class TestListenerWiring:
    """The engine is never a kernel listener; its registry is."""

    def test_plain_engine_is_not_a_listener(self):
        seen = []

        class Probe(BestFit):
            def place(self, item, sim):
                seen.append(sim)
                return super().place(item, sim)

        eng = Engine(Probe())
        assert eng._listener is None
        eng.feed(Item(0.0, 1.0, 0.5, uid=0))
        assert seen == [eng]

    def test_metered_engine_listens(self):
        metrics = EngineMetrics()
        eng = Engine(BestFit(), metrics=metrics)
        assert eng._listener is metrics
        late = Engine(BestFit())
        late.metrics = metrics = EngineMetrics()
        assert late._listener is metrics
        late.metrics = metrics  # re-assigning attaches nothing twice
        assert late._listener is metrics
        late.metrics = replacement = EngineMetrics()
        assert late._listener is replacement
        late.metrics = None
        assert late._listener is None
        assert late._on_arrival is None

    @pytest.mark.parametrize("path", ["feed", "feed_store"])
    def test_late_observer_sees_every_later_event(self, path):
        inst = uniform_random(120, 16, seed=5)
        items = list(inst)
        k = 40
        eng = Engine(BestFit())
        for it in items[:k]:
            eng.feed(it)
        departed_before = eng.departures
        tape = Recorder()
        eng.add_listener(tape)
        if path == "feed":
            for it in items[k:]:
                eng.feed(it)
        else:
            eng.feed_store(inst.store, k)
        eng.finish()
        arrivals = [e for e in tape.events if e[0] == "arrival"]
        departures = [e for e in tape.events if e[0] == "departure"]
        assert [e[1] for e in arrivals] == [it.uid for it in items[k:]]
        assert [e[5] for e in arrivals] == list(range(k + 1, len(items) + 1))
        assert len(departures) == len(items) - departed_before
        assert [e[5] for e in departures] == list(
            range(departed_before + 1, len(items) + 1)
        )

    def test_metered_feed_store_is_one_release_store_call(self, monkeypatch):
        # the engine's two doors are the kernel's, not wrappers of them
        assert Engine.feed_store is PlacementKernel.release_store
        assert Engine.feed is PlacementKernel.release
        inst = uniform_random(200, 16, seed=9)
        metrics = EngineMetrics()
        eng = Engine(BestFit(), metrics=metrics)

        def refuse(self, item):
            raise AssertionError("feed_store went through feed")

        monkeypatch.setattr(Engine, "feed", refuse)
        monkeypatch.setattr(PlacementKernel, "release", refuse)
        assert eng.feed_store(inst.store, 10, 150) == 140
        assert metrics.arrivals.value == 140

    def test_metered_run_reads_no_clock(self, monkeypatch):
        import time

        def refuse():
            raise AssertionError("the clock was read")

        inst = uniform_random(200, 16, seed=10)
        items = list(inst)
        monkeypatch.setattr(time, "perf_counter", refuse)
        eng = Engine(BestFit(), metrics=EngineMetrics())
        for it in items[:100]:
            eng.feed(it)
        eng.feed_store(inst.store, 100)
        eng.finish()
        assert eng.metrics.departures.value == len(items)


class TestRunningAccounting:
    """The run's totals, kept by the kernel (no engine-side copy)."""

    def test_cost_identity(self):
        k = PlacementKernel(FirstFit())
        k.release(Item(0.0, 5.0, 0.9, uid=0))
        k.release(Item(1.0, 5.0, 0.9, uid=1))  # a second bin, opened at 1
        k.run_until(4.0)
        assert k.cost_so_far == pytest.approx(4.0 + 3.0)
        k.drain()
        assert k.closed_usage == pytest.approx(5.0 + 4.0)
        assert k.max_open == 2 and k.open_bin_count == 0

    def test_util_area_integration(self):
        k = PlacementKernel(FirstFit())
        k.release(Item(0.0, 10.0, 0.5, uid=0))
        k.release(Item(2.0, 10.0, 0.3, uid=1))  # 0.5 * 2
        k.run_until(3.0)  # 0.8 * 1
        assert k.util_area == pytest.approx(0.5 * 2 + 0.8)
        assert k.peak_load == pytest.approx(0.8)

    def test_profile_requires_flag(self):
        k = PlacementKernel(FirstFit())
        with pytest.raises(ValueError):
            open_count_profile(k.open_count_events)

    def test_open_profile_matches_batch(self):
        inst = uniform_random(80, 8, seed=4)
        batch = simulate(FirstFit(), inst)
        eng = Engine(FirstFit(), record_profile=True)
        eng.run(iter(inst))
        prof = open_count_profile(eng.open_count_events)
        expected = batch.open_bins_profile()
        assert prof.integral() == pytest.approx(expected.integral())
        assert int(prof.max()) == batch.max_open

    def test_to_dict_snapshot(self):
        snap = Engine(FirstFit()).summary().to_dict()
        assert snap["final_time"] is None and snap["cost"] == 0.0

    def test_engine_load_tracks_active_sizes(self):
        eng = Engine(FirstFit())
        eng.feed(Item(0.0, 4.0, 0.5, uid=0))
        eng.feed(Item(1.0, 2.0, 0.25, uid=1))
        assert eng.load == pytest.approx(0.75)
        eng.advance_to(3.0)
        assert eng.load == pytest.approx(0.5)
        eng.finish()
        assert eng.load == 0.0
