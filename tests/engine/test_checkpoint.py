"""Checkpoint/restore: a resumed run must be indistinguishable from an
uninterrupted one — same final cost, bins, and assignment."""

import json
import pathlib

import pytest

from repro.algorithms import CDFF, FirstFit, HybridAlgorithm, NextFit
from repro.core.errors import CheckpointError, SimulationError
from repro.core.simulation import simulate
from repro.engine import (
    Checkpoint,
    Engine,
    EngineMetrics,
    load_checkpoint,
    open_trace,
    restore,
    save_checkpoint,
    snapshot,
)
from repro.engine.checkpoint import CHECKPOINT_VERSION
from repro.workloads import binary_input, uniform_random


def _totals(summary):
    """Every run total a resumed engine must reproduce bit for bit."""
    return (
        summary.items,
        summary.bins_opened,
        summary.bins_closed,
        summary.max_open,
        summary.peak_load,
        summary.util_area,
        summary.cost,
    )


@pytest.mark.parametrize(
    "factory,instance",
    [
        (FirstFit, uniform_random(150, 32, seed=5)),
        (HybridAlgorithm, uniform_random(150, 32, seed=6)),
        (NextFit, uniform_random(100, 16, seed=7)),
        (CDFF, binary_input(128)),
    ],
    ids=["FirstFit", "HybridAlgorithm", "NextFit", "CDFF"],
)
@pytest.mark.parametrize("cut", [0.25, 0.5, 0.9])
def test_restore_reaches_identical_final_cost(factory, instance, cut):
    batch = simulate(factory(), instance)
    items = list(instance)
    k = max(1, int(len(items) * cut))

    eng = Engine(factory(), record=True)
    for it in items[:k]:
        eng.feed(it)
    ckpt = snapshot(eng)
    assert ckpt.arrivals == k

    resumed = restore(ckpt)
    for it in items[k:]:
        resumed.feed(it)
    summary = resumed.finish()
    assert summary.cost == batch.cost
    assert summary.max_open == batch.max_open
    assert resumed.result().assignment == batch.assignment
    assert resumed.result().bins == batch.bins
    assert _totals(summary) == _totals(Engine(factory()).run(iter(items)))


def test_snapshot_is_independent_of_live_engine():
    items = list(uniform_random(120, 16, seed=8))
    eng = Engine(HybridAlgorithm())
    for it in items[:60]:
        eng.feed(it)
    ckpt = snapshot(eng)
    # keep driving the original — must not corrupt the snapshot
    for it in items[60:]:
        eng.feed(it)
    s_live = eng.finish()

    resumed = restore(ckpt)
    for it in items[60:]:
        resumed.feed(it)
    s_resumed = resumed.finish()
    assert s_resumed.cost == s_live.cost
    assert s_resumed.bins_opened == s_live.bins_opened


def test_file_round_trip(tmp_path):
    items = list(uniform_random(80, 8, seed=9))
    eng = Engine(FirstFit(), metrics=EngineMetrics())
    for it in items[:40]:
        eng.feed(it)
    path = tmp_path / "engine.ckpt"
    ckpt = save_checkpoint(eng, path)
    assert path.exists() and ckpt.arrivals == 40

    resumed = load_checkpoint(path)
    assert resumed.metrics is not None  # metrics travel with the blob
    assert resumed.metrics.arrivals.value == 40
    for it in items[40:]:
        resumed.feed(it)
    assert resumed.finish().cost == simulate(FirstFit(),
        uniform_random(80, 8, seed=9)).cost


def test_checkpoint_metadata():
    items = list(uniform_random(50, 8, seed=10))
    eng = Engine(FirstFit())
    for it in items[:25]:
        eng.feed(it)
    ckpt = snapshot(eng)
    assert ckpt.time == eng.time
    assert ckpt.cost_so_far == pytest.approx(eng.cost_so_far)
    assert ckpt.version == CHECKPOINT_VERSION == 3


def test_reject_wrong_payload(tmp_path):
    import pickle

    path = tmp_path / "bogus.ckpt"
    path.write_bytes(pickle.dumps({"not": "a checkpoint"}))
    with pytest.raises(SimulationError):
        load_checkpoint(path)


def test_reject_future_version():
    ckpt = Checkpoint(
        version=99, arrivals=0, time=0.0, cost_so_far=0.0, blob=b""
    )
    with pytest.raises(SimulationError):
        Checkpoint.loads(ckpt.dumps())


def test_reject_v1_checkpoint_with_clear_message(tmp_path):
    # a pre-kernel (PR-1) checkpoint: same envelope, version 1, whose
    # blob we never get to unpickle — the version gate fires first
    ckpt = Checkpoint(
        version=1, arrivals=10, time=3.0, cost_so_far=5.0,
        blob=b"\x80\x05}\x94.",
    )
    path = tmp_path / "old.ckpt"
    path.write_bytes(ckpt.dumps())
    with pytest.raises(SimulationError, match=r"format v1.*pre-kernel"):
        load_checkpoint(path)


def test_restored_kernel_hooks_rewired():
    # the kernel drops its listener at pickle time; restore must re-wire
    # it (the engine listens only when metered), place() must see the
    # restored kernel itself, and the kernel's totals keep tracking events
    items = list(uniform_random(40, 8, seed=12))
    eng = Engine(FirstFit())
    for it in items[:20]:
        eng.feed(it)
    resumed = restore(snapshot(eng))
    assert resumed._kernel._listener is None
    metered = Engine(FirstFit(), metrics=EngineMetrics())
    assert restore(snapshot(metered))._kernel._listener is not None
    seen = []
    place = resumed.algorithm.place

    def probe(item, sim):
        seen.append(sim)
        return place(item, sim)

    resumed.algorithm.place = probe
    before = resumed.kernel.arrivals
    for it in items[20:]:
        resumed.feed(it)
    assert resumed.kernel.arrivals == before + 20
    assert seen and all(sim is resumed._kernel for sim in seen)


def test_observers_not_checkpointed():
    eng = Engine(FirstFit())
    eng.subscribe(lambda e: None)
    for it in list(uniform_random(20, 4, seed=11))[:10]:
        eng.feed(it)
    resumed = restore(snapshot(eng))
    assert resumed._observers == []


class TestCorruptedCheckpoints:
    """Damaged checkpoint files must fail with a diagnosable
    CheckpointError, never a bare UnpicklingError/EOFError."""

    def _checkpoint_bytes(self) -> bytes:
        eng = Engine(FirstFit())
        for it in list(uniform_random(30, 8, seed=13))[:15]:
            eng.feed(it)
        return snapshot(eng).dumps()

    def test_truncated_file(self, tmp_path):
        data = self._checkpoint_bytes()
        path = tmp_path / "cut.ckpt"
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="truncated or corrupted"):
            load_checkpoint(path)

    def test_garbage_bytes(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"this is not a pickle at all")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        path.write_bytes(b"")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_corrupted_blob_inside_valid_envelope(self):
        eng = Engine(FirstFit())
        for it in list(uniform_random(30, 8, seed=14))[:15]:
            eng.feed(it)
        ckpt = snapshot(eng)
        broken = Checkpoint(
            version=ckpt.version,
            arrivals=ckpt.arrivals,
            time=ckpt.time,
            cost_so_far=ckpt.cost_so_far,
            blob=ckpt.blob[:10],
        )
        with pytest.raises(CheckpointError, match="blob is unreadable"):
            restore(broken)

    def test_blob_with_wrong_payload(self):
        import pickle

        broken = Checkpoint(
            version=CHECKPOINT_VERSION, arrivals=0, time=0.0,
            cost_so_far=0.0, blob=pickle.dumps([1, 2, 3]),
        )
        with pytest.raises(CheckpointError, match="engine state"):
            restore(broken)

    def test_checkpoint_error_is_a_simulation_error(self):
        # callers with existing `except SimulationError` handlers keep
        # catching checkpoint failures after the errors refactor
        assert issubclass(CheckpointError, SimulationError)


class TestResumePreservesObsCounters:
    def test_deterministic_metrics_survive_resume(self):
        items = list(uniform_random(100, 16, seed=15))

        straight = EngineMetrics()
        eng = Engine(HybridAlgorithm(), metrics=straight)
        for it in items:
            eng.feed(it)
        eng.finish()

        interrupted = EngineMetrics()
        eng2 = Engine(HybridAlgorithm(), metrics=interrupted)
        for it in items[:50]:
            eng2.feed(it)
        resumed = restore(snapshot(eng2))
        for it in items[50:]:
            resumed.feed(it)
        resumed.finish()

        a = straight.snapshot()
        b = resumed.metrics.snapshot()
        # wall-clock sections differ run to run; the deterministic
        # counters/histograms must be exactly preserved across the
        # snapshot/restore boundary
        assert a["counters"] == b["counters"]
        assert a["histograms"] == b["histograms"]


class TestV2Compat:
    """v2 checkpoints (boxed-item blobs, no column table) stay loadable.

    The fixture was written by the pre-columnar engine: FirstFit fed the
    first 400 items of ``examples/traces/uniform_1k.jsonl``, snapshotted
    at checkpoint version 2.  ``checkpoint_v2_expected.json`` freezes
    the metadata at the cut and the final cost of the uninterrupted run.
    """

    DATA = pathlib.Path(__file__).parent / "data"
    TRACE = (
        pathlib.Path(__file__).resolve().parents[2]
        / "examples"
        / "traces"
        / "uniform_1k.jsonl"
    )

    @pytest.fixture()
    def expected(self):
        return json.loads(
            (self.DATA / "checkpoint_v2_expected.json").read_text()
        )

    def _resume(self, engine, skip):
        items = (item for chunk in open_trace(self.TRACE) for item in chunk)
        for i, item in enumerate(items):
            if i >= skip:
                engine.feed(item)

    def test_v2_restores_with_identical_metadata(self, expected):
        ckpt = Checkpoint.load(self.DATA / "checkpoint_v2_firstfit.ckpt")
        assert ckpt.version == 2
        assert ckpt.columns is None  # v2 blobs carry boxed items
        assert ckpt.arrivals == expected["arrivals"]
        eng = restore(ckpt)
        assert eng.time == pytest.approx(expected["time"])
        assert eng.cost_so_far == pytest.approx(expected["cost_so_far"])

    def test_v2_resume_reaches_frozen_final_cost(self, expected):
        eng = load_checkpoint(self.DATA / "checkpoint_v2_firstfit.ckpt")
        self._resume(eng, expected["arrivals"])
        summary = eng.finish()
        assert summary.cost == pytest.approx(expected["final_cost"])
        assert summary.bins_opened == expected["bins_opened"]
        assert summary.max_open == expected["max_open"]

    def test_v2_resaves_as_v3_and_round_trips(self, tmp_path, expected):
        eng = load_checkpoint(self.DATA / "checkpoint_v2_firstfit.ckpt")
        upgraded_path = tmp_path / "upgraded.ckpt"
        upgraded = save_checkpoint(eng, upgraded_path)
        assert upgraded.version == CHECKPOINT_VERSION == 3
        assert upgraded.columns is not None  # item rows now columnar

        eng2 = load_checkpoint(upgraded_path)
        self._resume(eng, expected["arrivals"])
        self._resume(eng2, expected["arrivals"])
        s1, s2 = eng.finish(), eng2.finish()
        assert s1.cost == s2.cost == pytest.approx(expected["final_cost"])
        assert s1.bins_opened == s2.bins_opened

    def test_v2_resume_totals_match_uninterrupted_run(self, expected):
        """The blob's pickled engine accounting seeds the kernel's
        totals; its bins gain their peak/item-count slots on restore."""
        eng = load_checkpoint(self.DATA / "checkpoint_v2_firstfit.ckpt")
        assert eng.kernel.arrivals == expected["arrivals"]
        self._resume(eng, expected["arrivals"])
        resumed = eng.finish()
        straight = Engine(FirstFit()).run(open_trace(self.TRACE))
        assert _totals(resumed) == _totals(straight)


class TestV3BestFitCompat:
    """A BestFit v3 checkpoint written before the open-bin index was
    demand-built restores and finishes identical to ``simulate()``.

    The fixture was written by that earlier kernel: BestFit
    (``record=True``) fed the first 400 items of
    ``examples/traces/uniform_1k.jsonl``, then ``save_checkpoint``.  Its
    blob pickles the old index object, which has no open-bin table; the
    kernel must replace it with a fresh index over the restored bins.
    """

    DATA = TestV2Compat.DATA
    TRACE = TestV2Compat.TRACE

    def test_resume_matches_simulate(self):
        from repro.algorithms import BestFit
        from repro.workloads.io import load_jsonl

        instance = load_jsonl(self.TRACE)
        batch = simulate(BestFit(), instance)
        eng = load_checkpoint(self.DATA / "checkpoint_v3_bestfit.ckpt")
        assert eng.kernel.arrivals == 400
        assert eng.indexed
        eng.feed_store(instance.store, 400)
        summary = eng.finish()
        assert summary.cost == batch.cost
        assert summary.max_open == batch.max_open
        assert eng.result().assignment == batch.assignment
        assert eng.result().bins == batch.bins

    def test_resume_totals_match_uninterrupted_run(self):
        from repro.algorithms import BestFit
        from repro.workloads.io import load_jsonl

        instance = load_jsonl(self.TRACE)
        eng = load_checkpoint(self.DATA / "checkpoint_v3_bestfit.ckpt")
        eng.feed_store(instance.store, 400)
        resumed = eng.finish()
        straight = Engine(BestFit()).run(instance)
        assert _totals(resumed) == _totals(straight)


class TestV3HybridCompat:
    """An HA v3 checkpoint written before the kernel kept per-tag lanes
    restores and finishes bit-identical to an uninterrupted run.

    The fixture was written by that earlier kernel: HybridAlgorithm
    (``record=True``) fed the first 450 items of
    ``examples/traces/uniform_1k.jsonl`` — one GN and 40 CD bins open —
    then ``save_checkpoint``.  Its blob carries HA's old private bin
    lists and a kernel without lanes or an ``_indexed`` flag; the
    restored run must place by the kernel's lanes instead.
    """

    DATA = TestV2Compat.DATA
    TRACE = TestV2Compat.TRACE
    #: the writing kernel's totals after restoring this blob and
    #: feeding it the rest of the trace
    FROZEN = {
        "cost": 10623.311970754927,
        "bins_opened": 633,
        "max_open": 53,
        "peak_load": 39.07334387750124,
        "util_area": 7843.754745292407,
    }

    def _resumed(self, instance):
        eng = load_checkpoint(self.DATA / "checkpoint_v3_hybrid.ckpt")
        assert eng.kernel.arrivals == 450
        assert eng.indexed
        eng.feed_store(instance.store, 450)
        return eng, eng.finish()

    def test_restored_lanes_hold_the_open_bins(self):
        from repro.algorithms.hybrid import CD_TAG, GN_LANE

        eng = load_checkpoint(self.DATA / "checkpoint_v3_hybrid.ckpt")
        kernel = eng.kernel
        assert kernel.lane_count(GN_LANE) == 1
        cd_tags = {b.tag for b in kernel.open_bins if b.tag[0] == CD_TAG}
        assert sum(kernel.lane_count(tag) for tag in cd_tags) == 40
        alg = kernel.algorithm
        assert alg.gn_open(kernel) == 1 and alg.cd_open(kernel) == 40

    def test_resume_matches_simulate_and_frozen_totals(self):
        from repro.workloads.io import load_jsonl

        instance = load_jsonl(self.TRACE)
        batch = simulate(HybridAlgorithm(), instance)
        eng, summary = self._resumed(instance)
        assert summary.cost == batch.cost == self.FROZEN["cost"]
        assert summary.bins_opened == self.FROZEN["bins_opened"]
        assert summary.max_open == batch.max_open == self.FROZEN["max_open"]
        assert summary.peak_load == self.FROZEN["peak_load"]
        assert summary.util_area == self.FROZEN["util_area"]
        assert eng.result().assignment == batch.assignment
        assert eng.result().bins == batch.bins

    def test_resume_totals_match_uninterrupted_run(self):
        from repro.workloads.io import load_jsonl

        instance = load_jsonl(self.TRACE)
        _, resumed = self._resumed(instance)
        straight = Engine(HybridAlgorithm()).run(instance)
        assert _totals(resumed) == _totals(straight)


class TestV3CDFFCompat:
    """A CDFF v3 checkpoint written while CDFF kept its rows and T₀ batch
    buckets as bin lists restores (as uid-keyed dicts) and finishes
    bit-identical to an uninterrupted run.

    The fixture was written by that earlier kernel: CDFF
    (``record=True``) fed the first 100 items of
    ``aligned_random(16, 300, seed=5, horizon=64)`` — mid-batch, with
    five unbound buckets holding 11 open bins — then ``save_checkpoint``.
    """

    DATA = TestV2Compat.DATA
    #: the writing kernel's totals after restoring this blob and
    #: feeding it the rest of the instance
    FROZEN = (906.5228654701754, 179, 25, 19.83257340617512,
              700.2828131886918)

    def test_resume_matches_simulate_and_frozen_totals(self):
        from repro.workloads.aligned import aligned_random

        instance = aligned_random(16, 300, seed=5, horizon=64)
        eng = load_checkpoint(self.DATA / "checkpoint_v3_cdff.ckpt")
        assert eng.kernel.arrivals == 100
        eng.feed_store(instance.store, 100)
        summary = eng.finish()
        batch = simulate(CDFF(), instance)
        assert (summary.cost, summary.bins_opened, summary.max_open,
                summary.peak_load, summary.util_area) == self.FROZEN
        assert summary.cost == batch.cost
        assert eng.result().assignment == batch.assignment
        straight = Engine(CDFF()).run(instance)
        assert _totals(summary) == _totals(straight)
