"""Checkpoint/restore: a resumed run must be indistinguishable from an
uninterrupted one — same final cost, bins, and assignment."""

import json
import pathlib
import pickle

import pytest

from repro.algorithms import CDFF, FirstFit, HybridAlgorithm, NextFit
from repro.core.errors import CheckpointError, SimulationError
from repro.core.item import Item
from repro.core.kernel import KernelListener
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
    assert ckpt.version == CHECKPOINT_VERSION == 4


def test_reject_wrong_payload(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(pickle.dumps({"not": "a checkpoint"}))
    with pytest.raises(SimulationError):
        load_checkpoint(path)


def test_reject_future_version():
    ckpt = Checkpoint(
        version=99, arrivals=0, time=0.0, cost_so_far=0.0, state={}
    )
    with pytest.raises(SimulationError, match="version 99"):
        Checkpoint.loads(ckpt.dumps())


def test_reject_v1_checkpoint_with_clear_message(tmp_path):
    # v1 to v3 checkpoints were pickles: each is refused by its first
    # byte, before anything reads the payload
    path = tmp_path / "old.ckpt"
    path.write_bytes(b"\x80\x05}\x94.")
    with pytest.raises(SimulationError, match=r"pre-v4 pickle.*format v1"):
        load_checkpoint(path)


def test_restored_kernel_hooks_rewired():
    # a checkpoint holds no listener; restore must re-wire the metrics
    # registry (the engine listens only when metered), place() must see
    # the restored engine itself — as it sees a fresh one — and the
    # engine's totals keep tracking events
    items = list(uniform_random(40, 8, seed=12))
    eng = Engine(FirstFit())
    for it in items[:20]:
        eng.feed(it)
    resumed = restore(snapshot(eng))
    assert resumed._listener is None
    metered = Engine(FirstFit(), metrics=EngineMetrics())
    restored = restore(snapshot(metered))
    assert restored.metrics is not None
    assert restored._listener is restored.metrics
    seen = []

    def probe(engine):
        place = engine.algorithm.place

        def recording(item, sim):
            seen.append((engine, sim))
            return place(item, sim)

        engine.algorithm.place = recording

    probe(eng)
    probe(resumed)
    before = resumed.arrivals
    for it in items[20:]:
        eng.feed(it)
        resumed.feed(it)
    assert resumed.arrivals == before + 20
    assert len(seen) == 40 and all(sim is engine for engine, sim in seen)


def test_observers_not_checkpointed():
    # listeners may hold sockets or file handles: a restore keeps only
    # the metrics registry, attached afresh
    eng = Engine(FirstFit(), metrics=EngineMetrics())
    eng.add_listener(KernelListener())
    for it in list(uniform_random(20, 4, seed=11))[:10]:
        eng.feed(it)
    resumed = restore(snapshot(eng))
    assert resumed._listener is resumed.metrics
    assert resumed.metrics is not eng.metrics


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
        # a well-formed envelope around a kernel state with a column cut
        # short: the bins' residents no longer match the active rows
        eng = Engine(FirstFit())
        for it in list(uniform_random(30, 8, seed=14))[:15]:
            eng.feed(it)
        ckpt = snapshot(eng)
        state = json.loads(json.dumps(ckpt.state))
        for column in state["kernel"]["active"].values():
            del column[-1]
        broken = Checkpoint(
            version=ckpt.version,
            arrivals=ckpt.arrivals,
            time=ckpt.time,
            cost_so_far=ckpt.cost_so_far,
            state=state,
        )
        with pytest.raises(CheckpointError, match="state is malformed"):
            restore(Checkpoint.loads(broken.dumps()))

    def test_blob_with_wrong_payload(self):
        broken = Checkpoint(
            version=CHECKPOINT_VERSION, arrivals=0, time=0.0,
            cost_so_far=0.0, state={"not": [1, 2, 3]},
        )
        with pytest.raises(CheckpointError, match="engine state"):
            Checkpoint.loads(broken.dumps())

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
    """A v2 checkpoint, converted to v4, restores bit-identical.

    The v2 pickle was written by the pre-columnar engine: FirstFit fed
    the first 400 items of ``examples/traces/uniform_1k.jsonl``.  It was
    converted to ``v4_from_v2_firstfit.ckpt`` once, loading it with the
    last pickle-reading loader and saving it as v4.
    ``checkpoint_v2_expected.json`` freezes the metadata at the cut and
    the final cost of the uninterrupted run.
    """

    DATA = pathlib.Path(__file__).parent / "data"
    FIXTURE = DATA / "v4_from_v2_firstfit.ckpt"
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
        ckpt = Checkpoint.load(self.FIXTURE)
        assert ckpt.version == CHECKPOINT_VERSION
        assert ckpt.arrivals == expected["arrivals"]
        eng = restore(ckpt)
        assert eng.time == expected["time"]
        assert eng.cost_so_far == expected["cost_so_far"]

    def test_v2_resume_reaches_frozen_final_cost(self, expected):
        eng = load_checkpoint(self.FIXTURE)
        self._resume(eng, expected["arrivals"])
        summary = eng.finish()
        assert summary.cost == pytest.approx(expected["final_cost"])
        assert summary.bins_opened == expected["bins_opened"]
        assert summary.max_open == expected["max_open"]

    def test_v2_resaves_and_round_trips(self, tmp_path, expected):
        eng = load_checkpoint(self.FIXTURE)
        upgraded_path = tmp_path / "upgraded.ckpt"
        upgraded = save_checkpoint(eng, upgraded_path)
        assert upgraded.version == CHECKPOINT_VERSION
        # the resaved document is the fixture's, byte for byte
        assert upgraded_path.read_bytes() == self.FIXTURE.read_bytes()

        eng2 = load_checkpoint(upgraded_path)
        self._resume(eng, expected["arrivals"])
        self._resume(eng2, expected["arrivals"])
        s1, s2 = eng.finish(), eng2.finish()
        assert s1.cost == s2.cost == pytest.approx(expected["final_cost"])
        assert s1.bins_opened == s2.bins_opened

    def test_v2_resume_totals_match_uninterrupted_run(self, expected):
        """The totals the v2 blob kept in the engine's own accounting
        survived the conversion into the kernel state."""
        eng = load_checkpoint(self.FIXTURE)
        assert eng.arrivals == expected["arrivals"]
        self._resume(eng, expected["arrivals"])
        resumed = eng.finish()
        straight = Engine(FirstFit()).run(open_trace(self.TRACE))
        assert _totals(resumed) == _totals(straight)


class TestV3BestFitCompat:
    """A BestFit v3 checkpoint written before the open-bin index was
    demand-built, converted to v4, finishes identical to ``simulate()``.

    The v3 pickle was written by that earlier kernel: BestFit
    (``record=True``) fed the first 400 items of
    ``examples/traces/uniform_1k.jsonl``, then ``save_checkpoint``.  It
    was converted to ``v4_from_v3_bestfit.ckpt`` once, loading it with
    the last pickle-reading loader and saving it as v4.
    """

    DATA = TestV2Compat.DATA
    TRACE = TestV2Compat.TRACE

    def test_resume_matches_simulate(self):
        from repro.algorithms import BestFit
        from repro.workloads.io import load_jsonl

        instance = load_jsonl(self.TRACE)
        batch = simulate(BestFit(), instance)
        eng = load_checkpoint(self.DATA / "v4_from_v3_bestfit.ckpt")
        assert eng.arrivals == 400
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
        eng = load_checkpoint(self.DATA / "v4_from_v3_bestfit.ckpt")
        eng.feed_store(instance.store, 400)
        resumed = eng.finish()
        straight = Engine(BestFit()).run(instance)
        assert _totals(resumed) == _totals(straight)


class TestV3HybridCompat:
    """An HA v3 checkpoint written before the kernel kept per-tag lanes,
    converted to v4, finishes bit-identical to an uninterrupted run.

    The v3 pickle was written by that earlier kernel: HybridAlgorithm
    (``record=True``) fed the first 450 items of
    ``examples/traces/uniform_1k.jsonl`` — one GN and 40 CD bins open —
    then ``save_checkpoint``.  It was converted to
    ``v4_from_v3_hybrid.ckpt`` once, loading it with the last
    pickle-reading loader, dropping HA's former private bin lists (no
    longer read) and saving it as v4; the restored run places by the
    kernel's lanes, which key on the ``("CD", (i, c))`` tuple tags.
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
        eng = load_checkpoint(self.DATA / "v4_from_v3_hybrid.ckpt")
        assert eng.arrivals == 450
        assert eng.indexed
        eng.feed_store(instance.store, 450)
        return eng, eng.finish()

    def test_restored_lanes_hold_the_open_bins(self):
        from repro.algorithms.hybrid import CD_TAG, GN_LANE

        eng = load_checkpoint(self.DATA / "v4_from_v3_hybrid.ckpt")
        assert eng.lane_count(GN_LANE) == 1
        cd_tags = {b.tag for b in eng.open_bins if b.tag[0] == CD_TAG}
        assert sum(eng.lane_count(tag) for tag in cd_tags) == 40
        alg = eng.algorithm
        assert alg.gn_open(eng) == 1 and alg.cd_open(eng) == 40

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
    buckets as bin lists, converted to v4 (as uid-keyed dicts of bin
    references), finishes bit-identical to an uninterrupted run.

    The v3 pickle was written by that earlier kernel: CDFF
    (``record=True``) fed the first 100 items of
    ``aligned_random(16, 300, seed=5, horizon=64)`` — mid-batch, with
    five unbound buckets holding 11 open bins — then ``save_checkpoint``.
    It was converted to ``v4_from_v3_cdff.ckpt`` once, loading it with
    the last pickle-reading loader and saving it as v4; the pickle
    itself stays as ``checkpoint_v3_cdff.ckpt`` to pin its rejection.
    """

    DATA = TestV2Compat.DATA
    #: the writing kernel's totals after restoring this blob and
    #: feeding it the rest of the instance
    FROZEN = (906.5228654701754, 179, 25, 19.83257340617512,
              700.2828131886918)

    def test_resume_matches_simulate_and_frozen_totals(self):
        from repro.workloads.aligned import aligned_random

        instance = aligned_random(16, 300, seed=5, horizon=64)
        eng = load_checkpoint(self.DATA / "v4_from_v3_cdff.ckpt")
        assert eng.arrivals == 100
        eng.feed_store(instance.store, 100)
        summary = eng.finish()
        batch = simulate(CDFF(), instance)
        assert (summary.cost, summary.bins_opened, summary.max_open,
                summary.peak_load, summary.util_area) == self.FROZEN
        assert summary.cost == batch.cost
        assert eng.result().assignment == batch.assignment
        straight = Engine(CDFF()).run(instance)
        assert _totals(summary) == _totals(straight)


class _Hostile:
    """Unpickling this creates ``path``: the classic pickle payload."""

    def __init__(self, path) -> None:
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))


class TestNoUnpickling:
    """v4 loading is data only: no load path ever unpickles."""

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_hostile_pickle_never_runs(self, tmp_path, protocol):
        marker = tmp_path / "ran"
        path = tmp_path / "hostile.ckpt"
        path.write_bytes(pickle.dumps(_Hostile(marker), protocol=protocol))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        assert not marker.exists()

    def test_pre_v4_pickle_fixture_is_named(self):
        with pytest.raises(CheckpointError, match="pre-v4 pickle checkpoint"):
            load_checkpoint(TestV2Compat.DATA / "checkpoint_v3_cdff.ckpt")

    def test_unlisted_state_fails_at_save_time(self):
        eng = Engine(HybridAlgorithm(threshold=lambda i: 0.5))
        with pytest.raises(CheckpointError, match="module-level"):
            snapshot(eng)
        eng = Engine(FirstFit())
        eng.algorithm.extra = object()
        with pytest.raises(CheckpointError, match="cannot checkpoint"):
            snapshot(eng)

    @pytest.mark.parametrize("ref", [
        "os:system", "repro.algorithms.anyfit:np", "builtins:object",
        "repro.algorithms.base:abstractmethod",
    ])
    def test_names_outside_the_algorithms_are_refused(self, ref):
        eng = Engine(FirstFit())
        state = json.loads(json.dumps(snapshot(eng).state))
        state["algorithm"]["$object"][1]["rule"] = {"$function": ref}
        ckpt = Checkpoint(CHECKPOINT_VERSION, 0, 0.0, 0.0, state)
        with pytest.raises(CheckpointError, match="not allowed"):
            restore(Checkpoint.loads(ckpt.dumps()))

    def test_no_load_path_touches_pickle(self, tmp_path, monkeypatch):
        import asyncio

        from repro.serve.protocol import Request
        from repro.serve.shard import PlacementShard

        items = list(uniform_random(60, 8, seed=16))
        eng = Engine(NextFit())
        for it in items[:30]:
            eng.feed(it)
        save_checkpoint(eng, tmp_path / "engine.ckpt")
        shard = PlacementShard(0, NextFit())
        for it in items[:20]:
            assert shard.apply(Request(
                op="arrive", id=str(it.uid), arrival=it.arrival,
                departure=it.departure, size=it.size,
            ))["ok"]
        shard.checkpoint(tmp_path / "shard.ckpt")

        def refuse(*args, **kwargs):
            raise AssertionError("a checkpoint load path unpickled")

        for name in ("load", "loads", "Unpickler"):
            monkeypatch.setattr(pickle, name, refuse)

        resumed = load_checkpoint(tmp_path / "engine.ckpt")
        assert resumed.arrivals == 30
        restored = PlacementShard.restore(0, tmp_path / "shard.ckpt")
        assert restored.stats()["items"] == restored.accepted == 20

        async def crash_and_recover():
            shard.start()
            shard.crash()
            shard.recover()
            await shard.stop()
            return shard.crashed

        assert asyncio.run(crash_and_recover()) is False
        assert shard.stats()["cost"] == restored.stats()["cost"]


def _registered_cases():
    from repro.algorithms import (
        BEST_FIT,
        RandomFit,
        RenTang,
    )
    from repro.parallel import _registry
    from repro.workloads.aligned import aligned_random

    general = uniform_random(120, 32, seed=17)
    aligned = aligned_random(16, 120, seed=3, horizon=64)
    cases = [
        (name, factory, aligned if "CDFF" in name else general)
        for name, factory in _registry().items()
    ]
    cases += [
        ("RandomFit", lambda: RandomFit(seed=4), general),
        ("RenTang", lambda: RenTang(128, min_length=0.5), general),
        ("HA-BEST_FIT", lambda: HybridAlgorithm(rule=BEST_FIT), general),
        ("FirstFit-nonclairvoyant",
         lambda: FirstFit(clairvoyant=False), general),
    ]
    return cases


_CASES = _registered_cases()


@pytest.mark.parametrize("record", [False, True], ids=["norecord", "record"])
@pytest.mark.parametrize("metered", [False, True], ids=["nometrics", "metrics"])
@pytest.mark.parametrize(
    "name,factory,instance", _CASES, ids=[c[0] for c in _CASES]
)
def test_round_trip_is_bit_identical(name, factory, instance, record, metered):
    """Cut anywhere (the clock still -inf included): the resumed run's
    decisions, totals and assignment equal the uninterrupted run's."""
    items = list(instance)

    def engine():
        return Engine(factory(), record=record,
                      metrics=EngineMetrics() if metered else None)

    straight = engine()
    decisions = [straight.feed(it).uid for it in items]
    s_straight = straight.finish()
    residue = False  # a cut where a bin's load is not its contents' sum
    # at cut 39 FirstFit's and HA's open bins carry float residue
    for k in (0, 1, 39, len(items) - 5):
        live = engine()
        for it in items[:k]:
            live.feed(it)
        ckpt = snapshot(live)
        resumed = restore(Checkpoint.loads(ckpt.dumps()))
        # the run state, including every float total, survives exactly
        assert resumed.export_state() == live.export_state()
        assert snapshot(resumed).state == ckpt.state
        for b, r in zip(live.open_bins, resumed.open_bins):
            assert (r.tag, r.load, r.peak_load) == (b.tag, b.load, b.peak_load)
            residue |= b.load != sum(it.size for it in b.contents)
            if name.startswith("HA") or name == "HybridAlgorithm":
                assert type(r.tag) is tuple  # HA's lanes key on tuples
                assert r.tag == ("GN",) or type(r.tag[1]) is tuple
        assert [resumed.feed(it).uid for it in items[k:]] == decisions[k:]
        s_resumed = resumed.finish()
        assert _totals(s_resumed) == _totals(s_straight)
        if record:
            assert resumed.result().assignment == straight.result().assignment
            assert resumed.result().bins == straight.result().bins
        if metered:
            a, b = straight.metrics.snapshot(), resumed.metrics.snapshot()
            assert a["counters"] == b["counters"]
            assert a["histograms"] == b["histograms"]
    if name in ("FirstFit", "HybridAlgorithm"):
        assert residue  # the load-as-written pitfall is exercised


def test_round_trip_keeps_adaptive_items():
    items = list(uniform_random(40, 8, seed=18))
    eng = Engine(FirstFit(clairvoyant=False))
    for it in items[:10]:
        eng.feed(it)
    eng.feed(Item(eng.time, None, 0.25, uid=999))
    resumed = restore(Checkpoint.loads(snapshot(eng).dumps()))
    for e in (eng, resumed):
        e.advance_to(e.time + 1.0)
        e.depart(999, e.time)
        for it in items[10:]:
            if it.arrival >= e.time:
                e.feed(it)
    assert _totals(resumed.finish()) == _totals(eng.finish())
