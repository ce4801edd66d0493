"""The placement kernel: the single implementation of simulation semantics.

Covers what the frontend test-suites don't: direct kernel driving (the
adversary surface), the indexed open-bin structure against its
linear-scan twin, listener callback ordering, clairvoyance masking
through both frontends, and the "exactly one masking / one commit site"
guarantee the refactor exists for.
"""

import inspect
import random
from array import array

import pytest

from repro.algorithms import (
    BestFit,
    FirstFit,
    HybridAlgorithm,
    LastFit,
    WorstFit,
)
from repro.algorithms.base import OnlineAlgorithm, SimulationView
from repro.core.errors import (
    ClairvoyanceError,
    InvalidInstanceError,
    PackingError,
    SimulationError,
)
from repro.core.bins import Bin
from repro.core.instance import Instance
from repro.core.item import Item
from repro.core.kernel import (
    KernelListener,
    ListenerFanout,
    OpenBinIndex,
    PlacementKernel,
)
from repro.core.simulation import IncrementalSimulation, simulate
from repro.core.store import ItemStore
from repro.engine import Engine
from repro.workloads import uniform_random


# ---------------------------------------------------------------------- #
# Direct kernel driving (the adversary surface)
# ---------------------------------------------------------------------- #
class TestKernelDriving:
    def test_release_and_finish(self):
        k = PlacementKernel(FirstFit(), record=True)
        k.release(Item(0.0, 2.0, 0.5, uid=0))
        k.release(Item(0.0, 3.0, 0.5, uid=1))
        assert k.open_bin_count == 1
        k.drain()
        result = k.result()
        assert result.cost == pytest.approx(3.0)
        assert result.assignment == {0: 0, 1: 0}

    def test_kernel_is_its_own_facade(self):
        seen = []

        class Probe(FirstFit):
            def place(self, item, sim):
                seen.append(sim)
                return super().place(item, sim)

        k = PlacementKernel(Probe(), record=True)
        k.release(Item(0.0, 1.0, 0.5, uid=0))
        assert seen[0] is k
        assert isinstance(k, SimulationView)

    def test_adaptive_depart(self):
        k = PlacementKernel(FirstFit(clairvoyant=False), record=True)
        k.release(Item(0.0, None, 0.5, uid=0))
        k.depart(0, 4.0)
        k.drain()
        assert k.result().cost == pytest.approx(4.0)

    def test_depart_scheduled_item_rejected(self):
        k = PlacementKernel(FirstFit(), record=True)
        k.release(Item(0.0, 2.0, 0.5, uid=0))
        with pytest.raises(SimulationError):
            k.depart(0, 1.0)

    def test_depart_unknown_item_rejected(self):
        k = PlacementKernel(FirstFit())
        with pytest.raises(PackingError):
            k.depart(99, 1.0)

    def test_unknown_departure_needs_nonclairvoyant(self):
        k = PlacementKernel(FirstFit())
        with pytest.raises(ClairvoyanceError):
            k.release(Item(0.0, None, 0.5, uid=0))

    def test_run_until_processes_departures(self):
        k = PlacementKernel(FirstFit())
        k.release(Item(0.0, 1.0, 0.5, uid=0))
        k.run_until(1.0)  # half-open: departs exactly at t=1
        assert k.open_bin_count == 0
        assert k.cost_so_far == pytest.approx(1.0)

    def test_advance_to_is_run_until(self):
        assert PlacementKernel.advance_to is PlacementKernel.run_until

    def test_result_without_record_rejected(self):
        k = PlacementKernel(FirstFit())
        k.release(Item(0.0, 1.0, 0.5, uid=0))
        k.drain()
        with pytest.raises(SimulationError, match="record=True"):
            k.result()

    def test_capacity_must_be_positive(self):
        with pytest.raises(SimulationError):
            PlacementKernel(FirstFit(), capacity=0.0)


def _state(k):
    return (k.time, k.departures, k.arrivals, k.open_bin_count, k.cost_so_far)


class TestRejectedRelease:
    """A rejected arrival leaves the kernel exactly as it found it."""

    @pytest.mark.parametrize("path", ["release", "release_store"])
    def test_clairvoyance_error_leaves_clock_and_bins(self, path):
        k = PlacementKernel(FirstFit())
        k.release(Item(0.0, 2.0, 0.5, uid=0))
        k.release(Item(1.0, 8.0, 0.6, uid=1))
        before = _state(k)
        with pytest.raises(ClairvoyanceError):
            if path == "release":
                k.release(Item(5.0, None, 0.5, uid=2))
            else:
                store = ItemStore()
                store.append(5.0, None, 0.5, uid=2)
                k.release_store(store)
        # no departure ran (item 0 would have left at t=2), no clock move
        assert _state(k) == before
        assert k.time == 1.0 and k.departures == 0 and k.open_bin_count == 2
        # ...so an arrival before the rejected one's time is still legal
        k.release(Item(1.5, 3.0, 0.5, uid=3))
        assert k.arrivals == 3


class TestReleaseStoreWindow:
    """``release_store`` ranges are relative to, and bounded by, the
    store's own window — :meth:`ItemStore.slice`'s contract."""

    @staticmethod
    def _root():
        store = ItemStore()
        for i in range(10):
            store.append(float(i), float(i) + 0.5, 0.1, uid=i)
        return store

    def test_range_past_a_view_is_rejected(self):
        view = self._root().slice(2, 5)
        k = PlacementKernel(FirstFit(), record=True)
        with pytest.raises(InvalidInstanceError, match="out of range"):
            k.release_store(view, 0, 8)  # 5 rows past the view
        assert k.arrivals == 0

    def test_oversized_stop_is_rejected_not_truncated(self):
        view = self._root().slice(2, 5)
        k = PlacementKernel(FirstFit())
        with pytest.raises(InvalidInstanceError):
            k.release_store(view, 0, 100)
        assert k.arrivals == 0

    def test_range_is_view_relative(self):
        view = self._root().slice(2, 5)
        k = PlacementKernel(FirstFit(), record=True)
        assert k.release_store(view, 1) == 2
        k.drain()
        assert [it.uid for it in k.result().items] == [3, 4]

    @pytest.mark.parametrize("how", ["range", "view", "engine"])
    def test_reads_only_the_window_rows(self, how):
        # a window at offset lo must not walk the lo rows before it
        store = self._root()
        read = set()
        for name in ("arrivals", "departures", "sizes", "uids"):
            setattr(store, name, _SpyColumn(getattr(store, name), read))
        if how == "range":
            PlacementKernel(FirstFit()).release_store(store, 6, 9)
        elif how == "view":
            PlacementKernel(FirstFit()).release_store(store.slice(6, 9))
        else:
            Engine(FirstFit()).feed_store(store, 6, 9)
        assert read == {6, 7, 8}


class _SpyColumn(array):
    """A column that records every row index read from it."""

    def __new__(cls, column, read):
        spy = super().__new__(cls, column.typecode, column)
        spy.read = read
        return spy

    def __iter__(self):
        for j in range(len(self)):
            self.read.add(j)
            yield super().__getitem__(j)

    def __getitem__(self, key):
        rows = range(len(self))[key]
        self.read.update([rows] if isinstance(rows, int) else rows)
        return super().__getitem__(key)


class TestDecisionColumns:
    """``release_store``'s optional bin-uid and opened-flag columns."""

    def test_columns_match_release(self):
        inst = uniform_random(300, 16, seed=4)
        boxed = PlacementKernel(HybridAlgorithm())
        want = []
        for it in inst:
            before = boxed.bins_opened
            want.append((boxed.release(it).uid, boxed.bins_opened > before))
        k = PlacementKernel(HybridAlgorithm())
        bins, opened = array("q"), bytearray()
        assert k.release_store(inst.store, 0, 120, bins, opened) == 120
        k.release_store(inst.store, 120, None, bins, opened)
        assert list(zip(bins, map(bool, opened))) == want

    def test_rejected_row_leaves_the_rows_before_it(self):
        store = ItemStore()
        for a in (0.0, 1.0, 0.5, 2.0):  # row 2 is out of order
            store.append(a, a + 4.0, 0.4, uid=int(2 * a))
        k = PlacementKernel(FirstFit())
        bins, opened = array("q"), bytearray()
        with pytest.raises(SimulationError, match="arrival order"):
            k.release_store(store, 0, 4, bins, opened)
        assert list(bins) == [0, 0] and list(opened) == [1, 0]
        assert k.arrivals == 2 and k.time == 1.0
        k.release_store(store, 3, 4, bins, opened)
        assert list(bins) == [0, 0, 1] and list(opened) == [1, 0, 1]

    def test_a_listener_raising_after_placement(self):
        # the raising row was placed (arrivals counts it), but the
        # columns keep only the rows before it
        class Raises(KernelListener):
            def on_arrival(self, item, bin_, opened):
                if item.uid == 2:
                    raise RuntimeError("refused")

        store = ItemStore()
        for a in range(5):
            store.append(float(a), a + 4.0, 0.4, uid=a)
        k = PlacementKernel(FirstFit(), listener=Raises())
        bins, opened = array("q"), bytearray()
        with pytest.raises(RuntimeError, match="refused"):
            k.release_store(store, 0, 5, bins, opened)
        assert len(bins) == len(opened) == 2 and k.arrivals == 3
        k.release_store(store, 3, 5, bins, opened)
        assert len(bins) == len(opened) == 4 and k.arrivals == 5

    def test_no_columns_no_wrapper(self, monkeypatch):
        # without decision columns the loop calls the kernel's own commit
        import repro.core.kernel as kernel_mod

        def refuse(*args):
            raise AssertionError("decision wrapper built")

        monkeypatch.setattr(kernel_mod, "_deciding", refuse)
        k = PlacementKernel(FirstFit())
        assert k.release_store(uniform_random(20, 4, seed=1).store) == 20


# ---------------------------------------------------------------------- #
# One masking site, one commit site
# ---------------------------------------------------------------------- #
class PeeksDepartures(OnlineAlgorithm):
    """Non-clairvoyant algorithm that reports any departure it can see."""

    name = "PeeksDepartures"
    clairvoyant = False

    def reset(self):
        self.leaks = []

    def place(self, item, sim):
        if item.departure is not None:
            self.leaks.append(("placed", item.uid, item.departure))
        for b in sim.open_bins:
            for it in b.contents:
                if it.departure is not None:
                    self.leaks.append(("visible", it.uid, it.departure))
        found = sim.first_fit(item)
        return found if found is not None else sim.open_bin()


class RecordsSim(FirstFit):
    """FirstFit that records the ``sim`` every placement is handed."""

    def reset(self):
        self.seen = []

    def place(self, item, sim):
        self.seen.append(sim)
        return super().place(item, sim)


class TestMaskingSingleSite:
    @pytest.mark.parametrize("frontend", ["batch", "engine", "kernel"])
    def test_nonclairvoyant_never_observes_departures(self, frontend):
        inst = uniform_random(200, 16, seed=3)
        algo = PeeksDepartures()
        if frontend == "batch":
            simulate(algo, inst)
        elif frontend == "engine":
            eng = Engine(algo)
            for it in inst:
                eng.feed(it)
            eng.finish()
        else:
            k = PlacementKernel(algo)
            for it in inst:
                k.release(it)
            k.drain()
        assert algo.leaks == []

    def test_masking_logic_lives_only_in_kernel(self):
        """The refactor's grep-level contract: the frontends contain no
        clairvoyance masking and no pending-bin commit of their own."""
        import repro.core.kernel as kernel_mod
        import repro.core.simulation as sim_mod
        import repro.engine.loop as loop_mod

        for mod in (sim_mod, loop_mod):
            src = inspect.getsource(mod)
            # the masking decision (getattr on the "clairvoyant" flag)
            assert '"clairvoyant"' not in src, mod.__name__
            # the pending-bin commit protocol
            assert "_pending_bin" not in src, mod.__name__
            assert ".masked()" not in src, mod.__name__
            # the departure heap
            assert "heappush" not in src, mod.__name__
        assert not hasattr(sim_mod, "_masking")
        kernel_src = inspect.getsource(kernel_mod)
        assert kernel_src.count('getattr(self.algorithm, "clairvoyant"') == 1

    def test_masks_departures_flag(self):
        assert PlacementKernel(FirstFit()).masks_departures is False
        assert (
            PlacementKernel(FirstFit(clairvoyant=False)).masks_departures
            is True
        )


# ---------------------------------------------------------------------- #
# The indexed open-bin structure
# ---------------------------------------------------------------------- #
def _brute(bins, size, eps=1e-9):
    """Reference answers over a {uid: residual} dict in opening order."""
    fitting = [
        (uid, res) for uid, res in bins.items() if res >= size - eps
    ]
    if not fitting:
        return None, None, None, None
    first = fitting[0][0]
    last = fitting[-1][0]
    best = min(fitting, key=lambda p: (p[1], p[0]))[0]
    worst = max(fitting, key=lambda p: (p[1], -p[0]))[0]
    return first, last, best, worst


#: index query names, in the order ``_brute`` returns their answers
_QUERIES = ("first_fit", "last_fit", "best_fit", "worst_fit")
_SIZES = (0.05, 0.25, 0.5, 0.9, 1.01)


def _step(rng, index, bins, uid, p_open, p_update):
    """One random open / load change / close, table first, as the kernel
    does; returns the next fresh uid."""
    op = rng.random()
    if op < p_open or not bins:
        b = Bin(uid, 1.0, 0.0)
        b._load = round(rng.uniform(0.0, 0.99), 3)
        bins[uid] = b
        index.add(b)
        return uid + 1
    if op < p_open + p_update:
        b = bins[rng.choice(list(bins))]
        b._load = round(rng.uniform(0.0, 0.99), 3)
        index.update(b)
    else:
        index.remove(bins.pop(rng.choice(list(bins))))
    return uid


def _check(index, bins, kinds, size):
    _check_structures(index, bins)
    residuals = {u: b.residual() for u, b in bins.items()}
    expected = dict(zip(_QUERIES, _brute(residuals, size)))
    for kind in kinds:
        got = getattr(index, kind)(size - 1e-9)
        assert (got.uid if got else None) == expected[kind], kind


def _check_structures(index, bins):
    """White-box: every built structure holds each live bin exactly once,
    at its current residual, in opening order."""
    if index._sorted is not None:
        assert list(zip(index._sorted, index._uids)) == sorted(
            (b.residual(), u) for u, b in bins.items()
        )
        assert len(index._sorted) == len(index._uids)
    if index._tree is not None:
        slots = index._slots
        assert [b.uid for b in slots if b is not None] == list(bins)
        leaves = index._tree[index._size : index._size + len(slots)]
        assert leaves == [
            float("-inf") if b is None else b.residual() for b in slots
        ]


class TestOpenBinIndex:
    def test_randomised_against_linear_scan(self):
        rng = random.Random(7)
        bins = {}  # uid -> Bin, opening order
        index = OpenBinIndex(bins)
        uid = 0
        for _ in range(3000):
            op = rng.random()
            if op < 0.4 or not bins:
                b = Bin(uid, 1.0, 0.0)
                b._load = round(rng.uniform(0.0, 0.99), 3)
                bins[uid] = b
                index.add(b)
                uid += 1
            elif op < 0.75:
                b = bins[rng.choice(list(bins))]
                b._load = round(rng.uniform(0.0, 0.99), 3)
                index.update(b)
            else:
                key = rng.choice(list(bins))
                index.remove(bins.pop(key))
            size = rng.choice([0.05, 0.25, 0.5, 0.9, 1.01])
            residuals = {u: b.residual() for u, b in bins.items()}
            first, last, best, worst = _brute(residuals, size)
            threshold = size - 1e-9
            got_first = index.first_fit(threshold)
            got_last = index.last_fit(threshold)
            got_best = index.best_fit(threshold)
            got_worst = index.worst_fit(threshold)
            assert (got_first.uid if got_first else None) == first
            assert (got_last.uid if got_last else None) == last
            assert (got_best.uid if got_best else None) == best
            assert (got_worst.uid if got_worst else None) == worst

    def test_compaction_survives_mass_closure(self):
        bins = {}
        index = OpenBinIndex(bins)
        for uid in range(500):
            b = Bin(uid, 1.0, 0.0)
            b._load = 0.5
            bins[uid] = b
            index.add(b)
        assert index.first_fit(0.25) is bins[0]  # builds the tree
        for uid in range(499):  # trigger repeated dead-slot compaction
            index.remove(bins.pop(uid))
        survivor = index.first_fit(0.25)
        assert survivor is bins[499]
        assert index.last_fit(0.25) is bins[499]
        assert index.first_fit(0.75) is None

    @pytest.mark.parametrize("late", _QUERIES)
    def test_first_query_mid_stream(self, late):
        """Each structure built late, from a table that has seen opens,
        load changes, closes and a tree compaction, answers exactly."""
        rng = random.Random(13)
        bins = {}
        index = OpenBinIndex(bins)
        tree_builds = []
        build_tree = index._build_tree
        index._build_tree = lambda: tree_builds.append(1) or build_tree()
        uid = 0
        for _ in range(200):
            uid = _step(rng, index, bins, uid, 0.5, 0.3)
        assert index._sorted is None and index._tree is None
        early = [k for k in _QUERIES if k != late]
        for p_open in (0.6, 0.1):  # grow, then shrink: closes compact
            for _ in range(400):
                uid = _step(rng, index, bins, uid, p_open, 0.3)
                _check(index, bins, early, rng.choice(_SIZES))
        assert len(tree_builds) >= 2  # first query, then a compaction
        for p_open in (0.6, 0.1):
            for _ in range(400):
                uid = _step(rng, index, bins, uid, p_open, 0.3)
                _check(index, bins, _QUERIES, rng.choice(_SIZES))

    def test_alternating_query_kinds(self):
        rng = random.Random(17)
        bins = {}
        index = OpenBinIndex(bins)
        uid = 0
        for step in range(3000):
            uid = _step(rng, index, bins, uid, 0.4, 0.35)
            _check(index, bins, [_QUERIES[step % 4]], rng.choice(_SIZES))

    def test_structures_built_only_on_demand(self, monkeypatch):
        built = []
        for name in ("_build_sorted", "_build_tree"):
            original = getattr(OpenBinIndex, name)
            monkeypatch.setattr(
                OpenBinIndex,
                name,
                lambda self, _f=original, _n=name: built.append(_n)
                or _f(self),
            )
        inst = uniform_random(400, 32, seed=11)
        simulate(HybridAlgorithm(), inst)
        assert built == []  # HA asks only its lanes
        simulate(BestFit(), inst)
        assert built == ["_build_sorted"]  # no segment tree for BestFit

    def test_no_index_object_without_a_whole_table_query(self, monkeypatch):
        """The kernel creates its index on the first whole-table query,
        so a lane-only run makes no index maintenance call at all."""
        calls = []
        for name in ("__init__", "add", "update", "remove"):
            original = getattr(OpenBinIndex, name)
            monkeypatch.setattr(
                OpenBinIndex,
                name,
                lambda self, *a, _f=original, _n=name: calls.append(_n)
                or _f(self, *a),
            )
        inst = uniform_random(400, 32, seed=11)
        k = PlacementKernel(HybridAlgorithm())
        for item in inst:
            k.release(item)
        k.drain()
        assert k.indexed and calls == []
        k = PlacementKernel(FirstFit())
        k.release(inst[0])
        assert calls[0] == "__init__" and "add" in calls

    @pytest.mark.parametrize(
        "factory", [FirstFit, BestFit, WorstFit, LastFit]
    )
    def test_indexed_matches_linear_on_real_traces(self, factory):
        inst = uniform_random(400, 32, seed=11)
        fast = simulate(factory(), inst, indexed=True)
        slow = simulate(factory(), inst, indexed=False)
        assert fast.cost == slow.cost
        assert fast.assignment == slow.assignment
        assert fast.bins == slow.bins

    def test_exact_fill_one_third(self):
        """LOAD_EPS: three 1/3 items share one bin through the index."""
        k = PlacementKernel(BestFit(), record=True)
        for uid in range(3):
            k.release(Item(0.0, 1.0, 1 / 3, uid=uid))
        assert k.open_bin_count == 1
        k.release(Item(0.0, 1.0, 0.01, uid=3))
        assert k.open_bin_count == 2
        k.drain()


# ---------------------------------------------------------------------- #
# Listener callbacks
# ---------------------------------------------------------------------- #
class _Tape:
    def __init__(self):
        self.events = []

    def on_advance(self, t):
        self.events.append(("advance", t))

    def on_open(self, bin_):
        self.events.append(("open", bin_.uid))

    def on_arrival(self, item, bin_, opened):
        self.events.append(("arrival", item.uid, bin_.uid, opened))

    def on_departure(self, uid, removed, bin_, t, closed):
        self.events.append(("departure", uid, t, closed))

    def on_close(self, bin_, t, usage, peak, n_items):
        self.events.append(("close", bin_.uid, t, usage, peak, n_items))


class TestListener:
    def test_event_order_and_payloads(self):
        tape = _Tape()
        k = PlacementKernel(FirstFit(), listener=tape)
        k.release(Item(0.0, 2.0, 0.6, uid=0))
        k.release(Item(1.0, 3.0, 0.6, uid=1))
        k.drain()
        assert tape.events == [
            ("advance", 0.0),
            ("open", 0),
            ("arrival", 0, 0, True),
            ("advance", 1.0),
            ("open", 1),
            ("arrival", 1, 1, True),
            ("advance", 2.0),
            ("close", 0, 2.0, 2.0, 0.6, 1),
            ("departure", 0, 2.0, True),
            ("advance", 3.0),
            ("close", 1, 3.0, 2.0, 0.6, 1),
            ("departure", 1, 3.0, True),
        ]

    def test_state_round_trip_rebinds_hooks(self):
        # the state carries no listener: the importing kernel keeps the
        # listener and algorithm hooks its constructor bound
        tape = _Tape()
        k = PlacementKernel(RecordsSim(), listener=tape)
        k.release(Item(0.0, 2.0, 0.5, uid=0))
        later = _Tape()
        clone = PlacementKernel(RecordsSim(), listener=later)
        clone.import_state(k.export_state())
        assert clone._listener is later and later.events == []
        assert clone._on_close is not None and clone._dep_hook is None
        clone.release(Item(1.0, 3.0, 0.5, uid=1))
        assert clone.algorithm.seen[-1] is clone  # place() sees the clone
        clone.drain()
        assert clone.cost_so_far == pytest.approx(3.0)
        assert [e[0] for e in later.events] == [
            "advance", "arrival", "advance", "departure", "advance",
            "close", "departure",
        ]
        assert len(tape.events) == 3  # the original heard only its own


# ---------------------------------------------------------------------- #
# The departure loop and the flat BestFit index
# ---------------------------------------------------------------------- #
def _quarter_trace(n, seed):
    """Sizes in exact quarters on an integer clock: equal residuals,
    so best- and worst-fit ties, and many departures per time step."""
    rng = random.Random(seed)
    items, t = [], 0.0
    for _ in range(n):
        t += rng.choice((0.0, 0.0, 1.0))
        items.append(Item(t, t + rng.randint(1, 6), rng.randint(1, 4) / 4))
    return Instance(items)


class QueriesOnDeparture(OnlineAlgorithm):
    """Packs by lane walks, which use no index; its departure hook asks
    whole-table queries, so the kernel creates its index in the middle
    of a departure loop."""

    name = "QueriesOnDeparture"

    def reset(self):
        self.answers = []

    def place(self, item, sim):
        return sim.first_fit(item, lane="L") or sim.open_bin(tag="L")

    def notify_departure(self, item, bin_, sim):
        for size in (0.25, 0.5, 0.75, 1.0):
            probe = Item(sim.time, sim.time + 1.0, size)
            for query in (sim.best_fit, sim.worst_fit, sim.first_fit,
                          sim.last_fit):
                found = query(probe)
                self.answers.append(None if found is None else found.uid)


class TestDepartureLoop:
    @pytest.mark.parametrize("factory", [BestFit, WorstFit])
    def test_quarter_ties_go_to_the_smallest_uid(self, factory):
        from repro.testkit import reference_run

        for seed in range(3):
            inst = _quarter_trace(600, seed)
            fast = simulate(factory(), inst, indexed=True)
            slow = simulate(factory(), inst, indexed=False)
            ref = reference_run(factory(), inst)
            assert fast.assignment == slow.assignment == ref.assignment
            assert fast.cost == slow.cost == ref.cost

    def test_index_created_by_a_departure_hook_stays_exact(self):
        from repro.testkit import reference_run

        inst = _quarter_trace(400, 5)
        runs = []
        for indexed in (True, False):
            k = PlacementKernel(QueriesOnDeparture(), indexed=indexed)
            k.release(inst[0])
            assert k._index is None
            for item in inst[1:]:
                k.release(item)
            k.drain()
            runs.append(k.algorithm.answers)
        assert k._index is None  # the linear run never built one
        assert len(runs[0]) > 1000 and runs[0] == runs[1]
        assert reference_run(QueriesOnDeparture(), inst).algorithm.answers \
            == runs[0]

    def test_depart_follows_the_departures_due_at_its_time(self):
        tape = _Tape()
        k = PlacementKernel(FirstFit(clairvoyant=False), listener=tape)
        k.release(Item(0.0, 2.0, 0.5, uid=0))
        k.release(Item(0.0, None, 0.25, uid=1))  # adaptive
        k.release(Item(1.0, 2.0, 0.25, uid=2))
        del tape.events[:]
        k.depart(1, 2.0)
        assert tape.events == [
            ("advance", 2.0),
            ("departure", 0, 2.0, False),
            ("departure", 2, 2.0, False),
            ("close", 0, 2.0, 2.0, 1.0, 3),
            ("departure", 1, 2.0, True),
        ]
        # nothing due: the clock moves, then the item leaves
        k.release(Item(3.0, 5.0, 0.5, uid=3))
        k.release(Item(3.0, None, 0.25, uid=4))
        del tape.events[:]
        k.depart(4, 4.0)
        assert tape.events == [
            ("advance", 4.0), ("departure", 4, 4.0, False),
        ]
        assert k.departures == 4 and k.time == 4.0


class _Closes(KernelListener):
    """Overrides only ``on_close``; every other hook is the no-op."""

    def __init__(self) -> None:
        self.closes = []

    def on_close(self, bin_, t, usage, peak, n_items):
        self.closes.append(("close", bin_.uid, t, usage, peak, n_items))


def _closes_of(events):
    return [e for e in events if e[0] == "close"]


class TestListenerHooksBoundOnce:
    """The kernel resolves each listener hook when the listener attaches."""

    @pytest.fixture
    def loud_noops(self, monkeypatch):
        # the inherited no-ops now raise: a kernel that still calls a
        # hook nobody overrode fails loudly
        for name in ("on_advance", "on_open", "on_arrival", "on_departure",
                     "on_close"):
            def refuse(self, *args, _name=name):
                raise AssertionError(f"inherited no-op {_name} was called")

            monkeypatch.setattr(KernelListener, name, refuse)

    def test_close_only_listener_gets_every_close_in_order(self, loud_noops):
        instance = uniform_random(300, 12, seed=3)
        tape, closes = _Tape(), _Closes()
        k = PlacementKernel(FirstFit(), listener=[tape, closes])
        for item in instance:
            k.release(item)
        k.drain()
        assert closes.closes and closes.closes == _closes_of(tape.events)

    def test_close_only_listener_alone(self, loud_noops):
        instance = uniform_random(200, 12, seed=4)
        reference = _Tape()
        ref = PlacementKernel(FirstFit(), listener=reference)
        closes = _Closes()
        k = PlacementKernel(FirstFit(), listener=closes)
        for item in instance:
            ref.release(item)
            k.release(item)
        ref.drain()
        k.drain()
        assert closes.closes == _closes_of(reference.events)

    def test_rebound_on_add_listener_and_after_restore(self, loud_noops):
        instance = list(uniform_random(300, 12, seed=5))
        reference = _Tape()
        ref = PlacementKernel(FirstFit(), listener=reference)
        for item in instance:
            ref.release(item)
        ref.drain()
        expected = _closes_of(reference.events)

        k = PlacementKernel(FirstFit())
        for item in instance[:100]:
            k.release(item)
        early = _Closes()
        k.add_listener(early)
        for item in instance[100:200]:
            k.release(item)
        clone = PlacementKernel(FirstFit())
        clone.import_state(k.export_state())
        assert clone._on_close is None  # the state carries no listener
        late = _Closes()
        clone.add_listener(late)
        for item in instance[200:]:
            clone.release(item)
        clone.drain()
        # every close since the first attach, across the restore, in order
        seen = early.closes + late.closes
        assert early.closes and late.closes
        assert seen == expected[len(expected) - len(seen):]

    def test_removed_listener_hears_nothing_more(self, loud_noops):
        instance = list(uniform_random(200, 12, seed=7))
        tape, closes = _Tape(), _Closes()
        k = PlacementKernel(FirstFit(), listener=[tape, closes])
        for item in instance[:100]:
            k.release(item)
        heard = len(tape.events)
        k.remove_listener(tape)
        assert k._on_advance is None and k._on_close is not None
        for item in instance[100:]:
            k.release(item)
        k.drain()
        assert len(tape.events) == heard
        k.remove_listener(closes)
        assert k._on_close is None
        k.remove_listener(closes)  # a second detach is a no-op

    def test_a_fanout_called_directly_still_broadcasts(self):
        # a fan-out dispatches through hook(): the open reaches only the
        # member that overrides it, the close both members
        tape, closes = _Tape(), _Closes()
        fanout = ListenerFanout([tape, closes])
        bin_ = Bin(7, 1.0, 0.0)
        assert fanout.hook("on_open") == tape.on_open
        fanout.hook("on_open")(bin_)
        fanout.hook("on_close")(bin_, 2.0, 1.5, 0.5, 3)
        assert closes.closes == [("close", 7, 2.0, 1.5, 0.5, 3)]
        assert _closes_of(tape.events) == closes.closes
        assert len(tape.events) == 2  # the open reached the tape too


# ---------------------------------------------------------------------- #
# Frontends are adapters
# ---------------------------------------------------------------------- #
class TestFrontendsAreAdapters:
    def test_both_frontends_satisfy_simulation_view(self):
        assert isinstance(IncrementalSimulation(FirstFit()), SimulationView)
        assert isinstance(PlacementKernel(FirstFit()), SimulationView)

    def test_engine_is_a_kernel(self):
        eng = Engine(FirstFit())
        assert isinstance(eng, SimulationView)
        assert isinstance(eng, PlacementKernel)
        assert not hasattr(eng, "kernel") and not hasattr(eng, "_kernel")

    def test_incremental_simulation_passes_itself_as_facade(self):
        seen = []

        class Probe(FirstFit):
            def place(self, item, sim):
                seen.append(sim)
                return super().place(item, sim)

        sim = IncrementalSimulation(Probe())
        sim.release(Item(0.0, 1.0, 0.5, uid=0))
        assert seen[0] is sim

    def test_engine_passes_its_kernel_as_facade(self):
        # the engine is its kernel: place() sees the engine itself
        seen = []

        class Probe(FirstFit):
            def place(self, item, sim):
                seen.append(sim)
                return super().place(item, sim)

        eng = Engine(Probe())
        eng.feed(Item(0.0, 1.0, 0.5, uid=0))
        assert seen[0] is eng

    def test_is_open(self):
        sim = IncrementalSimulation(FirstFit())
        b = sim.release(Item(0.0, 1.0, 0.5, uid=0))
        assert sim.is_open(b.uid)
        sim.run_until(1.0)
        assert not sim.is_open(b.uid)
