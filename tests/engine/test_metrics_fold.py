"""The folded packing-metrics registry against a per-event reference.

:class:`EngineMetrics` reads the kernel's packing log and folds it into
its histograms in batches.  :class:`PerEvent` below is the registry as
it was when the kernel called it once per event (its four hooks, kept
here as the oracle).  Both watch the same runs; their snapshots must be
equal on every frontend, mid-run attach, fold bound, checkpoint cut,
merge and process-pool trip.
"""

from __future__ import annotations

import json
import pickle
import random

import pytest

import repro.core.kernel as kernel_module
from repro.core.kernel import KernelListener
from repro.core.simulation import simulate
from repro.engine import Engine, EngineMetrics, open_trace
from repro.engine.checkpoint import Checkpoint, restore, snapshot
from repro.obs.metrics import (
    BINS_OPEN_EDGES,
    LIFETIME_EDGES,
    OCCUPANCY_EDGES,
    RESIDUAL_EDGES,
    UTILIZATION_EDGES,
    Histogram,
)
from repro.parallel import ALGORITHM_REGISTRY, _registry, replay_sharded
from repro.workloads import aligned_random, poisson_random
from repro.workloads.io import dump_jsonl

ALIGNED = ("CDFF", "StaticRowsCDFF")


class PerEvent(KernelListener):
    """The per-event registry: one hook call per kernel event."""

    def __init__(self) -> None:
        self.counters = dict.fromkeys(
            ("events", "arrivals", "departures", "bins_opened",
             "bins_closed", "checkpoints"), 0)
        self.histograms = {
            "bin_occupancy": Histogram(OCCUPANCY_EDGES),
            "bin_utilization": Histogram(UTILIZATION_EDGES),
            "bin_lifetime": Histogram(LIFETIME_EDGES),
            "residual_at_placement": Histogram(RESIDUAL_EDGES),
            "bins_open": Histogram(BINS_OPEN_EDGES),
        }
        self._open = 0

    def bind(self, kernel) -> None:
        self._open = kernel.open_bin_count

    def on_open(self, bin_) -> None:
        self._open += 1

    def on_arrival(self, item, bin_, opened) -> None:
        self.counters["events"] += 1
        self.counters["arrivals"] += 1
        if opened:
            self.counters["bins_opened"] += 1
        cap = bin_.capacity
        self.histograms["residual_at_placement"].observe(
            bin_.residual() / cap if cap else 0.0)
        self.histograms["bins_open"].observe(self._open)

    def on_departure(self, uid, removed, bin_, t, closed) -> None:
        self.counters["events"] += 1
        self.counters["departures"] += 1

    def on_close(self, bin_, t, usage, peak, n_items) -> None:
        self._open -= 1
        self.counters["bins_closed"] += 1
        cap = bin_.capacity
        self.histograms["bin_occupancy"].observe(n_items)
        self.histograms["bin_utilization"].observe(peak / cap if cap else 0.0)
        self.histograms["bin_lifetime"].observe(usage)

    def merge(self, other: "PerEvent") -> None:
        for name in self.counters:
            self.counters[name] += other.counters[name]
        for name, h in self.histograms.items():
            h.merge(other.histograms[name])

    def snapshot(self) -> dict:
        return {
            "counters": dict(self.counters),
            "histograms": {n: h.to_dict() for n, h in self.histograms.items()},
        }


def _instance(name: str, seed: int = 0):
    if name in ALIGNED:
        return aligned_random(32, 300, seed=seed)
    return poisson_random(6.0, 64.0, 60.0, seed=seed)


def _factory(name: str):
    return _registry()[name]


@pytest.fixture(params=[1, 7, None, 10**9], ids=["bound1", "bound7",
                                                  "default", "huge"])
def bound(request, monkeypatch):
    """The kernel's fold bound: 1, small, as shipped, and never reached."""
    if request.param is not None:
        monkeypatch.setattr(kernel_module, "LOG_BOUND", request.param)
    return request.param


@pytest.mark.parametrize("name", ALGORITHM_REGISTRY)
class TestFrontends:
    def test_simulate(self, name, bound):
        inst = _instance(name)
        folded, ref = EngineMetrics(), PerEvent()
        simulate(_factory(name)(), inst, listener=[folded, ref])
        assert folded.snapshot() == ref.snapshot()

    def test_engine_feed(self, name, bound):
        inst = _instance(name, seed=1)
        folded, ref = EngineMetrics(), PerEvent()
        eng = Engine(_factory(name)(), metrics=folded, listeners=(ref,))
        for it in inst:
            eng.feed(it)
        eng.finish()
        assert folded.snapshot() == ref.snapshot()

    def test_feed_store_windows(self, name, bound):
        inst = _instance(name, seed=2)
        folded, ref = EngineMetrics(), PerEvent()
        eng = Engine(_factory(name)(), metrics=folded, listeners=(ref,))
        n = len(inst.store)
        for i in range(0, n, 17):
            eng.feed_store(inst.store, i, min(i + 17, n))
            if i % 51 == 0:  # reads mid-run fold and change nothing
                assert folded.snapshot() == ref.snapshot()
        eng.finish()
        assert folded.snapshot() == ref.snapshot()

    def test_attached_mid_run(self, name, bound):
        inst = _instance(name, seed=3)
        items = list(inst)
        eng = Engine(_factory(name)())
        for it in items[: len(items) // 3]:
            eng.feed(it)
        assert eng.open_bin_count > 1
        eng.metrics = folded = EngineMetrics()
        eng.attach_listener(ref := PerEvent())
        eng.feed_store(inst.store, len(items) // 3)
        eng.finish()
        assert folded.snapshot() == ref.snapshot()

    def test_checkpoint_cut_with_buffered_values(self, name, monkeypatch):
        monkeypatch.setattr(kernel_module, "LOG_BOUND", 10**9)
        inst = _instance(name, seed=4)
        n = len(inst.store)
        cut = random.Random(name).randrange(n // 4, 3 * n // 4)
        folded, ref = EngineMetrics(), PerEvent()
        eng = Engine(_factory(name)(), metrics=folded, listeners=(ref,))
        eng.feed_store(inst.store, 0, cut)
        assert folded._arrived  # the cut has values not folded yet
        data = snapshot(eng).dumps()
        encoded = json.loads(data)["state"]["metrics"]
        assert set(encoded) == set(folded.primitives())  # slots only
        resumed = restore(Checkpoint.loads(data))
        assert resumed.metrics.snapshot() == ref.snapshot()
        resumed.attach_listener(ref)
        resumed.feed_store(inst.store, cut)
        resumed.finish()
        assert resumed.metrics.snapshot() == ref.snapshot()

    def test_merge(self, name, bound):
        folded = [EngineMetrics(), EngineMetrics()]
        refs = [PerEvent(), PerEvent()]
        for seed, (f, r) in enumerate(zip(folded, refs)):
            eng = Engine(_factory(name)(), metrics=f, listeners=(r,))
            store = _instance(name, seed=5 + seed).store
            # no finish: bins stay open and values stay buffered
            eng.feed_store(store, 0, 2 * len(store) // 3)
        folded[0].merge(folded[1])
        refs[0].merge(refs[1])
        assert folded[0].snapshot() == refs[0].snapshot()


class TestTravel:
    def test_pickle_folds_and_drops_the_kernel(self, monkeypatch):
        monkeypatch.setattr(kernel_module, "LOG_BOUND", 10**9)
        folded, ref = EngineMetrics(), PerEvent()
        eng = Engine(_factory("BestFit")(), metrics=folded, listeners=(ref,))
        eng.feed_store(_instance("BestFit").store)
        clone = pickle.loads(pickle.dumps(folded))
        assert clone._kernel is None and not clone._arrived
        assert clone.snapshot() == ref.snapshot() == folded.snapshot()

    def test_detach_folds(self, monkeypatch):
        monkeypatch.setattr(kernel_module, "LOG_BOUND", 10**9)
        folded, ref = EngineMetrics(), PerEvent()
        eng = Engine(_factory("FirstFit")(), metrics=folded)
        eng.attach_listener(ref)
        eng.feed_store(_instance("FirstFit").store)
        eng.kernel.remove_listener(ref)
        eng.metrics = None
        assert folded._kernel is None
        eng.finish()  # later events reach neither
        assert folded.snapshot() == ref.snapshot()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_replay_sharded(self, tmp_path, workers):
        paths, refs = [], PerEvent()
        for seed in range(3):
            path = tmp_path / f"shard{seed}.jsonl"
            dump_jsonl(_instance("HybridAlgorithm", seed=seed), path)
            paths.append(path)
            ref = PerEvent()
            Engine(_factory("HybridAlgorithm")(), listeners=(ref,)).run(
                open_trace(path))
            refs.merge(ref)
        out = replay_sharded(paths, "HybridAlgorithm", workers=workers,
                             metrics=True)
        assert out["metrics"] == refs.snapshot()
