"""The placement kernel: single owner of all packing-simulation state.

Every frontend that drives an online algorithm — the batch
:func:`~repro.core.simulation.simulate`, the incremental
:class:`~repro.core.simulation.IncrementalSimulation` used by the
Section-4 adaptive adversaries (a recording kernel subclass), and the
streaming :class:`~repro.engine.loop.Engine` — runs one
:class:`PlacementKernel`.  Arrivals enter through exactly two doors:
:meth:`~PlacementKernel.release` for one boxed item and
:meth:`~PlacementKernel.release_store` for a columnar window.  The
kernel owns, in one place:

- the **open-bin table** (insertion order = opening order = first-fit
  order) and the **pending-bin open/commit protocol** that validates
  every ``place()`` return;
- **capacity enforcement** (via :meth:`Bin._add`) and the paper's event
  semantics (DESIGN.md §5): half-open intervals, departures at ``t``
  processed before arrivals at ``t``, simultaneous arrivals strictly in
  release order, a bin closes the moment it empties;
- **clairvoyance masking** — the only place in the codebase that
  inspects ``algorithm.clairvoyant`` to decide what an algorithm may
  see (:attr:`PlacementKernel.masks_departures`);
- the **departure heap** and the adaptive-item set (items released with
  unknown departures, departed explicitly by adversaries);
- the run's **totals**, kept inline at the sites that change state
  (commit, departure, close, clock move): per-bin usage in close order
  and the O(1) running-cost identity
  ``Σ_open (t - opened_at) = |open|·t - Σ_open opened_at``, plus
  arrivals, departures, bins opened, peak open count, the active load
  ``S_t``, its peak and its integral ``∫ S_t dt``;
- the optional **ON_t event log** (``(time, ±1)`` open-count deltas)
  and record-mode history from which :meth:`result` builds an audited
  :class:`~repro.core.result.PackingResult`.

Because every frontend calls the same ``release``/``release_store``/
``depart``/``advance``/``commit`` code, batch/stream parity holds **by
construction**; the sweep in :mod:`repro.engine.parity` remains only as
a regression guard.

Candidate queries and lanes
---------------------------
Algorithms ask the kernel for candidates instead of keeping bin lists of
their own.  The Any-Fit queries on ``sim`` (:meth:`first_fit`,
:meth:`best_fit`, :meth:`worst_fit`, :meth:`last_fit`,
:meth:`fitting_bins`) answer over one of two scopes:

- the **whole open-bin table** (no ``lane``): answered through an
  :class:`OpenBinIndex` in O(log n).  The index object is created by
  the first such query, and each of its two structures — a
  residual-sorted list and a max-residual segment tree in opening order
  — by the first query that needs it, so an algorithm only pays upkeep
  for the queries it actually makes and a run that never asks makes no
  index calls at all.  Construct with ``indexed=False`` to answer by
  plain linear scans instead (same results; the benchmark baseline and
  a safety valve).
- one **lane** (``lane=tag``): the open bins sharing one ``bin.tag``
  (the tag an algorithm passes to :meth:`open_bin`), in opening order.
  This is how the paper's class-partitioned algorithms pack Any-Fit
  inside a class: HA's shared GN lane and per-type CD lanes,
  ClassifyByDuration's and Ren–Tang's duration classes, the static CDFF
  rows.  Lanes are grouped from the open-bin table by the first lane
  query and then kept only on open and close (one dict insert or
  delete; an empty lane is dropped) — nothing per arrival or departure.
  First- and last-fit walk the lane forward or backward and stop at the
  first fitting bin; best- and worst-fit make one pass.  A lane has no
  index: at the lane sizes these algorithms reach, a per-lane segment
  tree costs more upkeep per event than the walk it saves.

The kernel hands itself to ``algorithm.place(view, sim)`` and the notify
hooks: it satisfies the :class:`~repro.algorithms.base.SimulationView`
protocol, and :class:`~repro.core.simulation.IncrementalSimulation` is a
kernel subclass, so ``sim`` is always the object the caller built.
Frontends observe it through one hook passed at construction,
``listener``, which receives ``on_advance`` / ``on_open`` /
``on_arrival`` / ``on_departure`` / ``on_close`` callbacks in exact
event order.  Each callback is resolved once per attach, and one the
listener only inherits as a :class:`KernelListener` no-op is never
called.  The totals never depend on it: the listeners are observers
only (tracing, invariant monitors), and the kernel reads no clock.

Two outputs are columns instead of callbacks:

- **decisions**: :meth:`~PlacementKernel.release_store` appends each
  row's bin uid and opened flag to caller-owned columns when asked
  (the serve shard encodes a micro-batch's replies from them);
- **packing values**: :meth:`~PlacementKernel.log_packing` makes the
  kernel append two values per arrival and three per close to the
  packing-metrics registry's bounded buffers, which the registry folds
  into its histograms (:class:`~repro.engine.metrics.EngineMetrics`).

Neither costs the kernel anything per row when not asked for.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, insort
from typing import Hashable, List, Optional, Tuple

from .bins import LOAD_EPS, Bin, BinRecord, first_fit_choice
from .errors import (
    ClairvoyanceError,
    PackingError,
    SimulationError,
)
from .item import Item, item_view
from .result import PackingResult

__all__ = [
    "PlacementKernel",
    "OpenBinIndex",
    "KernelListener",
    "ListenerFanout",
]

_NEG_INF = float("-inf")

#: values a packing-log buffer holds before the kernel asks its owner
#: to fold it (see :meth:`PlacementKernel.log_packing`)
LOG_BOUND = 1024

#: the clock, counters and float totals, which
#: :meth:`PlacementKernel.export_state` keeps under these names, as written
_SCALARS = (
    "time", "_bin_uid", "_seq", "closed_usage", "_sum_opened_at",
    "arrivals", "departures", "bins_opened", "max_open", "load",
    "peak_load", "util_area",
)
_COLUMNS = ("arrival", "departure", "size", "uid")


def _columns(rows) -> dict:
    """``(item, departure)`` rows as the four item columns (the departure
    comes apart from the item: a masked view hides it)."""
    table = [(it.arrival, dep, it.size, it.uid) for it, dep in rows]
    return {name: [row[k] for row in table] for k, name in enumerate(_COLUMNS)}


def _rows(cols: dict) -> List[Item]:
    """:func:`_columns` back as items, each one validated."""
    if len({len(cols[name]) for name in _COLUMNS}) != 1:
        raise SimulationError("item columns differ in length")
    return [
        Item(float(a), None if d is None else float(d), float(s), int(u))
        for a, d, s, u in zip(*(cols[name] for name in _COLUMNS))
    ]


def _deciding(commit, put_bin, put_opened):
    """``commit`` that also appends each placement's bin uid and opened
    flag to a caller's decision columns."""

    def deciding_commit(item, view, chosen, opened):
        bin_ = commit(item, view, chosen, opened)
        put_bin(bin_.uid)
        put_opened(opened)
        return bin_

    return deciding_commit


def _own_hook(algorithm, name: str):
    """``algorithm``'s bound ``name`` hook, or ``None`` when it is the
    :class:`~repro.algorithms.base.OnlineAlgorithm` no-op it inherits
    (so the kernel skips one call per departure or close)."""
    from ..algorithms.base import OnlineAlgorithm

    hook = getattr(algorithm, name, None)
    if getattr(hook, "__func__", None) is getattr(OnlineAlgorithm, name):
        return None
    return hook


class KernelListener:
    """Callback protocol for frontends observing kernel events.

    All methods are optional no-ops; the kernel calls only the ones a
    listener overrides.  The run's totals live in the kernel itself;
    listeners such as the tracing bridge and the invariant monitors
    observe them.  A listener with a ``bind(kernel)`` method is handed
    the kernel on attach, and one with ``unbind(kernel)`` is told when
    :meth:`PlacementKernel.remove_listener` detaches it.  The
    packing-metrics registry (:class:`~repro.engine.metrics.EngineMetrics`)
    is a listener of that kind with no callbacks: it reads the kernel's
    packing log (:meth:`PlacementKernel.log_packing`).
    """

    def on_advance(self, t: float) -> None:
        """The clock is about to move forward to ``t``."""

    def on_open(self, bin_: Bin) -> None:
        """``bin_`` was just committed as a new open bin."""

    def on_arrival(self, item: Item, bin_: Bin, opened: bool) -> None:
        """``item`` was committed into ``bin_`` (``opened``: fresh bin)."""

    def on_departure(
        self,
        uid: int,
        removed: Item,
        bin_: Bin,
        t: float,
        closed: bool,
    ) -> None:
        """Item ``uid`` left ``bin_`` at ``t`` (``closed``: bin emptied)."""

    def on_close(
        self, bin_: Bin, t: float, usage: float, peak: float, n_items: int
    ) -> None:
        """``bin_`` became empty and was closed at ``t``."""


class ListenerFanout(KernelListener):
    """Broadcast one kernel's event stream to several listeners.

    Pure dispatch — callbacks run in registration order and no event is
    reordered or filtered, so attaching an observability listener (e.g.
    :class:`repro.obs.trace.TracingListener`) next to a frontend's own
    listener can never change semantics.  The kernel calls the members
    through :meth:`hook`, so a member is called only for the events it
    overrides; the ``on_*`` methods broadcast to every member for
    callers that dispatch by hand.
    """

    def __init__(self, listeners) -> None:
        self.listeners = list(listeners)

    def on_advance(self, t: float) -> None:
        for listener in self.listeners:
            listener.on_advance(t)

    def on_open(self, bin_: Bin) -> None:
        for listener in self.listeners:
            listener.on_open(bin_)

    def on_arrival(self, item: Item, bin_: Bin, opened: bool) -> None:
        for listener in self.listeners:
            listener.on_arrival(item, bin_, opened)

    def on_departure(
        self,
        uid: int,
        removed: Item,
        bin_: Bin,
        t: float,
        closed: bool,
    ) -> None:
        for listener in self.listeners:
            listener.on_departure(uid, removed, bin_, t, closed)

    def on_close(
        self, bin_: Bin, t: float, usage: float, peak: float, n_items: int
    ) -> None:
        for listener in self.listeners:
            listener.on_close(bin_, t, usage, peak, n_items)

    def hook(self, name: str):
        """The members' own ``name`` callbacks as one callable, or
        ``None`` when no member overrides it (what the kernel calls; a
        direct ``on_*`` call still reaches every member).  A member
        appended to ``listeners`` by hand is seen by the kernel only
        after its ``rebind_listeners()``; ``add_listener`` does that."""
        hooks = [
            hook
            for hook in (_listener_hook(m, name) for m in self.listeners)
            if hook is not None
        ]
        if len(hooks) <= 1:
            return hooks[0] if hooks else None

        def fan_out(*args) -> None:
            for hook in hooks:
                hook(*args)

        return fan_out


def _listener_hook(listener, name: str):
    """``listener``'s ``name`` callback, or ``None`` when calling it
    would do nothing: no listener, or only the :class:`KernelListener`
    no-op it inherits."""
    if listener is None:
        return None
    if isinstance(listener, ListenerFanout):
        return listener.hook(name)
    hook = getattr(listener, name, None)
    if getattr(hook, "__func__", None) is getattr(KernelListener, name):
        return None
    return hook


class OpenBinIndex:
    """Indexed candidate lookup over the open bins, built on demand.

    The index reads the kernel's ``uid -> Bin`` table of open bins,
    which is in opening order, and keeps up to two structures over it:

    - ``_sorted``: ``(residual, uid)`` pairs in ascending order, backing
      O(log n) best-fit (leftmost residual ≥ size) and worst-fit (the
      max-residual group's smallest uid) queries;
    - a max-residual **segment tree** over *slots* (one per bin, in
      opening order), backing O(log n) first-fit (leftmost fitting slot)
      and last-fit (rightmost fitting slot) queries.  Closed bins leave
      ``-inf`` leaves behind; the tree compacts itself once dead slots
      outnumber the live ones.

    Neither structure exists until the first query that needs it, which
    builds it from the open-bin table; from then on :meth:`add`,
    :meth:`update` and :meth:`remove` maintain only the structures that
    exist.  A BestFit run therefore never pays for the tree, and the
    kernel creates no index at all for an algorithm that never makes a
    whole-table query (HybridAlgorithm and the other lane users, CDFF,
    NextFit, ...).  Both structures depend only on the live bins'
    residuals and opening order, so when one is built cannot change a
    query's answer.

    Thresholds use the same ``LOAD_EPS`` tolerance as :meth:`Bin.fits`;
    the kernel re-verifies every returned candidate with ``fits()`` so a
    one-ulp disagreement between ``load + size ≤ capacity + eps`` and
    ``residual ≥ size - eps`` can never overfill a bin.
    """

    _MIN_SLOTS = 64

    def __init__(self, open_bins: dict[int, Bin]) -> None:
        self._open = open_bins  # the kernel's table, shared, not copied
        self._sorted: Optional[List[Tuple[float, int]]] = None
        self._key: dict[int, float] = {}  # uid -> key currently in _sorted
        self._tree: Optional[List[float]] = None
        self._slots: List[Optional[Bin]] = []
        self._slot_of: dict[int, int] = {}  # uid -> slot (opening order)
        self._size = 0  # segment-tree leaf count (power of 2)
        self._dead = 0

    # -- maintenance: called right after the kernel changes the open-bin
    # -- table or a bin's load, so the table already shows the change
    def add(self, bin_: Bin) -> None:
        if self._sorted is not None:
            res = bin_.residual()
            insort(self._sorted, (res, bin_.uid))
            self._key[bin_.uid] = res
        if self._tree is not None:
            if len(self._slots) == self._size:
                self._build_tree()  # the table already holds bin_
                return
            slot = len(self._slots)
            self._slots.append(bin_)
            self._slot_of[bin_.uid] = slot
            self._set_leaf(slot, bin_.residual())

    def update(self, bin_: Bin) -> None:
        sorted_ = self._sorted
        if sorted_ is not None:
            uid = bin_.uid
            old = self._key[uid]
            new = bin_.residual()
            if new != old:
                del sorted_[bisect_left(sorted_, (old, uid))]
                insort(sorted_, (new, uid))
                self._key[uid] = new
        if self._tree is not None:
            self._set_leaf(self._slot_of[bin_.uid], bin_.residual())

    def remove(self, bin_: Bin) -> None:
        uid = bin_.uid
        if self._sorted is not None:
            old = self._key.pop(uid)
            del self._sorted[bisect_left(self._sorted, (old, uid))]
        if self._tree is not None:
            slot = self._slot_of.pop(uid)
            self._slots[slot] = None
            self._set_leaf(slot, _NEG_INF)
            self._dead += 1
            if self._dead > max(self._MIN_SLOTS, len(self._slot_of)):
                self._build_tree()

    # -- queries (thresholds already include the LOAD_EPS slack) -------- #
    def first_fit(self, threshold: float) -> Optional[Bin]:
        """Earliest-opened bin with residual ≥ ``threshold``."""
        tree = self._tree
        if tree is None:
            tree = self._build_tree()
        if tree[1] < threshold:
            return None
        i, size = 1, self._size
        while i < size:
            i <<= 1
            if tree[i] < threshold:
                i += 1
        return self._slots[i - size]

    def last_fit(self, threshold: float) -> Optional[Bin]:
        """Latest-opened bin with residual ≥ ``threshold``."""
        tree = self._tree
        if tree is None:
            tree = self._build_tree()
        if tree[1] < threshold:
            return None
        i, size = 1, self._size
        while i < size:
            i <<= 1
            if tree[i + 1] >= threshold:
                i += 1
        return self._slots[i - size]

    def best_fit(self, threshold: float) -> Optional[Bin]:
        """Fullest fitting bin: smallest ``(residual, uid)`` ≥ threshold."""
        sorted_ = self._sorted
        if sorted_ is None:
            sorted_ = self._build_sorted()
        i = bisect_left(sorted_, (threshold,))
        if i == len(sorted_):
            return None
        return self._open[sorted_[i][1]]

    def worst_fit(self, threshold: float) -> Optional[Bin]:
        """Emptiest fitting bin; ties broken to the earliest-opened."""
        sorted_ = self._sorted
        if sorted_ is None:
            sorted_ = self._build_sorted()
        if not sorted_ or sorted_[-1][0] < threshold:
            return None
        return self._open[sorted_[bisect_left(sorted_, (sorted_[-1][0],))][1]]

    # -- internals ------------------------------------------------------ #
    def _build_sorted(self) -> List[Tuple[float, int]]:
        key = {uid: b.residual() for uid, b in self._open.items()}
        self._key = key
        self._sorted = sorted((res, uid) for uid, res in key.items())
        return self._sorted

    def _build_tree(self) -> List[float]:
        """(Re)build the tree over the open bins, compacting dead slots."""
        live = list(self._open.values())
        size = self._MIN_SLOTS
        while size < 2 * len(live) + 1:
            size <<= 1
        self._size = size
        self._slots = live
        self._slot_of = {b.uid: k for k, b in enumerate(live)}
        self._dead = 0
        tree = [_NEG_INF] * (2 * size)
        for k, b in enumerate(live):
            tree[size + k] = b.residual()
        for i in range(size - 1, 0, -1):
            left, right = tree[2 * i], tree[2 * i + 1]
            tree[i] = left if left >= right else right
        self._tree = tree
        return tree

    def _set_leaf(self, slot: int, value: float) -> None:
        tree = self._tree
        i = self._size + slot
        if tree[i] == value:
            return
        tree[i] = value
        i >>= 1
        while i:
            left, right = tree[2 * i], tree[2 * i + 1]
            v = left if left >= right else right
            if tree[i] == v:
                break
            tree[i] = v
            i >>= 1


class PlacementKernel:
    """Shared simulation state and semantics for every frontend.

    Parameters
    ----------
    algorithm:
        An object satisfying the
        :class:`~repro.algorithms.base.OnlineAlgorithm` protocol; it is
        ``reset()`` once at construction.
    capacity:
        Bin capacity (1.0 in the paper).
    record:
        Keep full history (items, bin records, assignment, departure
        times) so :meth:`result` can build a
        :class:`~repro.core.result.PackingResult`.  The batch frontends
        always record; the constant-memory streaming engine does not.
    record_events:
        Additionally keep the ``(time, ±1)`` ON_t open-count deltas in
        :attr:`open_count_events` (grows with the trace).
    indexed:
        Answer whole-table candidate queries through an
        :class:`OpenBinIndex` in O(log n), created by the first such
        query; ``False`` falls back to linear scans (identical results).
        Lane queries never use the index.
    listener:
        Optional :class:`KernelListener` receiving every event.
    """

    def __init__(
        self,
        algorithm,
        *,
        capacity: float = 1.0,
        record: bool = False,
        record_events: bool = False,
        indexed: bool = True,
        listener: Optional[KernelListener] = None,
    ) -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.algorithm = algorithm
        self.capacity = capacity
        self.record = record
        self.time = -math.inf
        self.closed_usage = 0.0
        self.open_count_events: Optional[List[Tuple[float, int]]] = (
            [] if record_events else None
        )
        self._sum_opened_at = 0.0
        # run totals (bins_closed is derived: bins_opened - open bins)
        self.arrivals = 0
        self.departures = 0
        self.bins_opened = 0
        self.max_open = 0
        self.load = 0.0  #: total size of active items, S_t
        self.peak_load = 0.0  #: max_t S_t so far
        self.util_area = 0.0  #: ∫ S_t dt — space-time demand served
        self._bin_uid = 0
        self._seq = 0
        self._open: dict[int, Bin] = {}
        self._departures: List[Tuple[float, int, int]] = []  # (t, seq, uid)
        self._item_bin: dict[int, Bin] = {}
        self._adaptive: set[int] = set()  # uids with unknown departure
        self._pending_bin: Optional[Bin] = None
        self._indexed = indexed
        # both derived from the open-bin table by the first query that
        # needs them (see _make_index / _make_lanes); not run state
        self._index: Optional[OpenBinIndex] = None
        self._lanes: Optional[dict[Hashable, dict[int, Bin]]] = None
        # the packing log (see log_packing): off until a registry binds
        self._arrived = self._closed = self._log_full = None
        if isinstance(listener, (list, tuple)):
            listener = (
                None
                if not listener
                else listener[0]
                if len(listener) == 1
                else ListenerFanout(listener)
            )
        self._listener = listener
        self._bind_listener(listener)
        self.rebind_listeners()
        # record-mode history (stays empty unless record=True)
        self._items: List[Item] = []
        self._records: List[BinRecord] = []
        self._assignment: dict[int, int] = {}
        self._bin_items: dict[int, list[int]] = {}
        self._departed_at: dict[int, float] = {}
        algorithm.reset()
        # hot-path caches
        self._masked = self.masks_departures
        self._dep_hook = _own_hook(algorithm, "notify_departure")
        self._close_hook = _own_hook(algorithm, "notify_close")

    # ------------------------------------------------------------------ #
    # The SimulationView surface algorithms see
    # ------------------------------------------------------------------ #
    @property
    def open_bins(self) -> tuple[Bin, ...]:
        """Currently open bins, oldest first (first-fit order)."""
        return tuple(self._open.values())

    @property
    def open_bin_count(self) -> int:
        return len(self._open)

    @property
    def cost_so_far(self) -> float:
        """Closed usage plus open bins' usage up to the clock, in O(1)."""
        t = self.time if math.isfinite(self.time) else 0.0
        return self.closed_usage + len(self._open) * t - self._sum_opened_at

    @property
    def bins_closed(self) -> int:
        return self.bins_opened - len(self._open)

    @property
    def masks_departures(self) -> bool:
        """Whether this run hides departure times from the algorithm.

        The *only* clairvoyance-masking decision site: both the batch
        simulator and the streaming engine see items through this flag.
        """
        return not getattr(self.algorithm, "clairvoyant", True)

    @property
    def indexed(self) -> bool:
        """Whether whole-table candidate queries go through the open-bin
        index (created on the first such query)."""
        return self._indexed

    def is_open(self, uid: int) -> bool:
        """Whether bin ``uid`` is currently open (O(1))."""
        return uid in self._open

    def add_listener(self, listener: KernelListener) -> None:
        """Attach one more :class:`KernelListener` (fan-out on demand).

        Used by frontends to bolt observability (tracing, extra metrics)
        onto an already-constructed kernel — e.g. after a checkpoint
        restore, which drops listeners by design.
        """
        if self._listener is None:
            self._listener = listener
        elif isinstance(self._listener, ListenerFanout):
            self._listener.listeners.append(listener)
        else:
            self._listener = ListenerFanout([self._listener, listener])
        self._bind_listener(listener)
        self.rebind_listeners()

    def remove_listener(self, listener: KernelListener) -> None:
        """Detach a listener attached earlier (no-op if it is not)."""
        if self._listener is listener:
            self._listener = None
        elif (
            isinstance(self._listener, ListenerFanout)
            and listener in self._listener.listeners
        ):
            self._listener.listeners.remove(listener)
        unbind = getattr(listener, "unbind", None)
        if callable(unbind):
            unbind(self)
        self.rebind_listeners()

    def rebind_listeners(self) -> None:
        """Resolve the listener callbacks once.

        Each event gets one attribute: the bound callback, or ``None``
        when no listener overrides the :class:`KernelListener` no-op
        (the event then costs one ``None`` check).  Runs on every
        attach and detach.
        """
        listener = self._listener
        self._on_advance = _listener_hook(listener, "on_advance")
        self._on_open = _listener_hook(listener, "on_open")
        self._on_arrival = _listener_hook(listener, "on_arrival")
        self._on_departure = _listener_hook(listener, "on_departure")
        self._on_close = _listener_hook(listener, "on_close")

    def _bind_listener(self, listener) -> None:
        """Hand listeners that want it a back-reference to this kernel.

        A listener exposing ``bind(source)`` (e.g. the invariant
        monitors in :mod:`repro.obs.invariants`, which cross-check the
        O(1) cost identity) is bound on attach; fan-outs are unpacked so
        every member gets the call.  Plain listeners are untouched.
        """
        if listener is None:
            return
        if isinstance(listener, ListenerFanout):
            for member in listener.listeners:
                self._bind_listener(member)
            return
        bind = getattr(listener, "bind", None)
        if callable(bind):
            bind(self)

    def log_packing(self, arrived, closed, full) -> None:
        """Append packing values to caller-owned buffers; ``None``s stop.

        How the packing-metrics registry is fed
        (:meth:`~repro.engine.metrics.EngineMetrics.bind` calls it):
        after each arrival's commit ``arrived`` gets the chosen bin's
        load and the open-bin count, and after each close ``closed``
        gets the bin's items held, peak load and usage (as floats, so an
        ``array('d')`` holds them).  Once either holds
        :data:`LOG_BOUND` values the kernel calls ``full()``, which must
        empty both.  A kernel logs to one pair of buffers.
        While logging, ``_commit`` and ``_close`` are the logging
        variants (instance attributes, which call the class's own
        methods first); otherwise those run and the log costs nothing.
        """
        if arrived is None:
            vars(self).pop("_commit", None)
            vars(self).pop("_close", None)
            self._arrived = self._closed = self._log_full = None
            return
        if self._arrived is not None and self._arrived is not arrived:
            raise SimulationError(
                "a kernel feeds one packing-metrics registry"
            )
        self._arrived, self._closed, self._log_full = arrived, closed, full
        self._commit = self._logged_commit
        self._close = self._logged_close

    def open_bin(self, tag: Hashable = None) -> Bin:
        """Called *by the algorithm inside place()* to open a fresh bin.

        The returned bin must be the one ``place`` returns; opening more
        than one bin per placement is an error.
        """
        if self._pending_bin is not None:
            raise PackingError("place() may open at most one new bin")
        b = Bin(self._bin_uid, self.capacity, self.time, tag)
        self._bin_uid += 1
        self._pending_bin = b
        return b

    # -- candidate queries: the whole table, or one lane ---------------- #
    def first_fit(self, item: Item, lane: Hashable = None) -> Optional[Bin]:
        """Earliest-opened open bin (of ``lane``) that fits ``item``."""
        if lane is None and self._indexed:
            b = (self._index or self._make_index()).first_fit(
                item.size - LOAD_EPS
            )
            if b is None or b.fits(item):
                return b
        return first_fit_choice(self._lane_bins(lane), item)

    def last_fit(self, item: Item, lane: Hashable = None) -> Optional[Bin]:
        """Latest-opened open bin (of ``lane``) that fits ``item``."""
        if lane is None and self._indexed:
            b = (self._index or self._make_index()).last_fit(
                item.size - LOAD_EPS
            )
            if b is None or b.fits(item):
                return b
        return first_fit_choice(reversed(self._lane_bins(lane)), item)

    def best_fit(self, item: Item, lane: Hashable = None) -> Optional[Bin]:
        """Fullest fitting bin (of ``lane``; ties to the earliest-opened)."""
        if lane is None and self._indexed:
            b = (self._index or self._make_index()).best_fit(
                item.size - LOAD_EPS
            )
            if b is None or b.fits(item):
                return b
        best: Optional[Bin] = None
        best_res = math.inf
        for b in self._lane_bins(lane):
            r = b.residual()
            # opening order is uid order: strict < keeps the smaller uid
            if r < best_res and b.fits(item):
                best, best_res = b, r
        return best

    def worst_fit(self, item: Item, lane: Hashable = None) -> Optional[Bin]:
        """Emptiest fitting bin (of ``lane``; ties to the earliest-opened)."""
        if lane is None and self._indexed:
            b = (self._index or self._make_index()).worst_fit(
                item.size - LOAD_EPS
            )
            if b is None or b.fits(item):
                return b
        best: Optional[Bin] = None
        best_res = _NEG_INF
        for b in self._lane_bins(lane):
            r = b.residual()
            if r > best_res and b.fits(item):
                best, best_res = b, r
        return best

    def fitting_bins(self, item: Item, lane: Hashable = None) -> list[Bin]:
        """All open bins (of ``lane``) that fit ``item``, oldest first."""
        return [b for b in self._lane_bins(lane) if b.fits(item)]

    def lane_count(self, lane: Hashable = None) -> int:
        """Number of open bins tagged ``lane`` (all open bins for
        ``None``), in O(1)."""
        return len(self._lane_bins(lane))

    def _lane_bins(self, lane: Hashable):
        """The open bins tagged ``lane`` (all for ``None``), in opening
        order, as a live dict view."""
        if lane is None:
            return self._open.values()
        lanes = self._lanes
        if lanes is None:
            lanes = self._make_lanes()
        bins = lanes.get(lane)
        return () if bins is None else bins.values()

    def _make_index(self) -> OpenBinIndex:
        self._index = OpenBinIndex(self._open)
        return self._index

    def _make_lanes(self) -> dict[Hashable, dict[int, Bin]]:
        """Group the open-bin table by tag, each lane in opening order."""
        lanes: dict[Hashable, dict[int, Bin]] = {}
        for uid, b in self._open.items():
            lanes.setdefault(b.tag, {})[uid] = b
        self._lanes = lanes
        return lanes

    # ------------------------------------------------------------------ #
    # Driving API
    # ------------------------------------------------------------------ #
    def release(self, item: Item) -> Bin:
        """Release ``item`` to the algorithm and return the bin it chose.

        Processes all scheduled departures up to the item's arrival
        first (departures-before-arrivals at equal times).  A rejected
        item (out of order, or an unknown departure for a clairvoyant
        algorithm) leaves the kernel untouched, clock included.
        """
        if item.arrival < self.time:
            raise SimulationError(
                f"items must be released in arrival order: {item} arrives at "
                f"{item.arrival} but the clock is at {self.time}"
            )
        masked = self._masked
        if item.departure is None and not masked:
            raise ClairvoyanceError(
                f"clairvoyant algorithm {self.algorithm!r} received an item "
                "with unknown departure"
            )
        self._advance(item.arrival)
        view = item.masked() if masked else item
        chosen = self.algorithm.place(view, self)
        opened = self._pending_bin is not None
        bin_ = self._commit(item, view, chosen, opened)
        if item.departure is not None:
            heapq.heappush(
                self._departures, (item.departure, self._seq, item.uid)
            )
            self._seq += 1
        else:
            self._adaptive.add(item.uid)
        if self._on_arrival is not None:
            self._on_arrival(item, bin_, opened)
        return bin_

    def release_store(
        self,
        store,
        start: int = 0,
        stop: Optional[int] = None,
        bins=None,
        opened=None,
    ):
        """Release rows ``[start, stop)`` of an :class:`ItemStore` in order.

        The columnar :meth:`release`, hand-inlined straight over the
        window's columns — no per-row method dispatch, no ``_advance``
        call when no departure is due — returning the number of rows
        released.  The range is checked as :meth:`ItemStore.slice`
        checks it (:class:`InvalidInstanceError`), and only its rows are
        read.  Decision-for-decision identical to calling
        :meth:`release` on each row's item.

        ``bins`` and ``opened`` (both or neither) are caller-owned
        decision columns, such as an ``array('q')`` and a ``bytearray``:
        each released row appends its bin's uid and whether that bin was
        opened for it.  After a raise the columns hold exactly the rows
        released before the raising one, so that row is ``start`` plus
        the number of rows they gained.  A rejected row (out of order,
        or an unknown departure for a clairvoyant algorithm) raises
        before it touches the kernel; a row whose listener or packing
        log raised after its placement has been placed, and
        :attr:`arrivals` counts it.
        """
        if stop is None:
            stop = len(store)
        arr, dep, siz, uids, lo, hi = store.window(start, stop)
        if lo or hi != len(arr):
            # copy the window out: zip over the whole columns would
            # walk every row before ``lo``
            arr, dep, siz, uids = (
                arr[lo:hi], dep[lo:hi], siz[lo:hi], uids[lo:hi]
            )
        masked = self._masked
        place = self.algorithm.place
        advance = self._advance
        commit = self._commit
        decisions = None
        if bins is not None:
            # the loop's ``opened`` is each row's flag, so keep the
            # columns and their lengths under other names
            decisions = (bins, len(bins), opened, len(opened))
            commit = _deciding(commit, bins.append, opened.append)
        dq = self._departures
        push = heapq.heappush
        # zip iteration over the raw columns is ~2x cheaper than
        # per-index array reads
        arrivals0, uid = self.arrivals, None
        try:
            for arrival, d, size, uid in zip(arr, dep, siz, uids):
                departure = d if d == d else None
                if arrival < self.time:
                    raise SimulationError(
                        "items must be released in arrival order: "
                        f"{item_view(arrival, departure, size, uid)} "
                        f"arrives at {arrival} but the clock is at "
                        f"{self.time}"
                    )
                if departure is None and not masked:
                    raise ClairvoyanceError(
                        f"clairvoyant algorithm {self.algorithm!r} received "
                        "an item with unknown departure"
                    )
                if dq and dq[0][0] <= arrival:
                    advance(arrival)
                elif arrival > self.time:  # _advance's no-departure tail
                    if self.time != _NEG_INF:
                        self.util_area += self.load * (arrival - self.time)
                    if self._on_advance is not None:
                        self._on_advance(arrival)
                    self.time = arrival
                item = item_view(arrival, departure, size, uid)
                view = (
                    item_view(arrival, None, size, uid) if masked else item
                )
                chosen = place(view, self)
                opened = self._pending_bin is not None
                bin_ = commit(item, view, chosen, opened)
                if departure is not None:
                    push(dq, (departure, self._seq, uid))
                    self._seq += 1
                else:
                    self._adaptive.add(uid)
                on_arrival = self._on_arrival
                if on_arrival is not None:
                    on_arrival(item, bin_, opened)
        except BaseException:
            if decisions is not None:
                # the raising row: ``uid`` is its uid; it was placed
                # when ``arrivals`` counts it (a listener or the
                # packing log raised after its commit)
                row = self.arrivals - arrivals0
                if row and (row == len(uids) or uids[row] != uid):
                    row -= 1
                bin_uids, n_bins, flags, n_flags = decisions
                del bin_uids[n_bins + row:], flags[n_flags + row:]
            raise
        return hi - lo

    def depart(self, uid: int, time: float) -> None:
        """Force an adaptive item (unknown departure) out at ``time``.

        Used by non-clairvoyant adversaries that decide departure times
        as a function of the algorithm's behaviour.
        """
        if time < self.time:
            raise SimulationError(
                f"departure at {time} is before the clock ({self.time})"
            )
        if uid not in self._item_bin:
            raise PackingError(f"item {uid} is not active")
        if uid not in self._adaptive:
            raise SimulationError(
                f"item {uid} has a scheduled departure; only adaptive items "
                "may be departed explicitly"
            )
        self._advance(time)
        self._adaptive.discard(uid)
        self._do_departure(uid, time)

    def run_until(self, time: float) -> None:
        """Advance the clock to ``time``, processing scheduled departures."""
        if time < self.time:
            raise SimulationError("time may not move backwards")
        self._advance(time)

    #: streaming-flavoured alias for :meth:`run_until`
    advance_to = run_until

    def drain(self) -> None:
        """Process every remaining scheduled departure.

        Raises if adaptive items are still active afterwards — those
        must be departed explicitly by whoever released them.
        """
        while self._departures:
            t, _, _ = self._departures[0]
            self._advance(t)
        if self._item_bin:
            alive = list(self._open.values())
            raise SimulationError(
                f"simulation finished with items still active in bins {alive}; "
                "adaptive items must be departed explicitly"
            )

    def result(self) -> PackingResult:
        """The audited :class:`PackingResult` (requires ``record=True``)."""
        if not self.record:
            raise SimulationError(
                "result() needs record=True; the constant-memory kernel "
                "keeps no per-item history — use the frontend's summary "
                "instead"
            )
        if self._item_bin:
            raise SimulationError("result() before the stream is drained")
        return PackingResult(
            algorithm=getattr(
                self.algorithm, "name", type(self.algorithm).__name__
            ),
            items=tuple(self._items),
            assignment=dict(self._assignment),
            bins=tuple(self._records),
            departed_at=dict(self._departed_at),
            capacity=self.capacity,
        )

    def finish(self) -> PackingResult:
        """:meth:`drain` then :meth:`result` — the batch-style ending."""
        self.drain()
        return self.result()

    # ------------------------------------------------------------------ #
    # Internals — the one copy of the event semantics
    # ------------------------------------------------------------------ #
    def _advance(self, until: float) -> None:
        """Process scheduled departures ≤ ``until``, then move the clock."""
        dq = self._departures
        while dq:
            t, _, uid = dq[0]
            if t > until:
                break
            heapq.heappop(dq)
            self._do_departure(uid, t)
        if until > self.time:
            if self.time != _NEG_INF:
                self.util_area += self.load * (until - self.time)
            if self._on_advance is not None:
                self._on_advance(until)
            self.time = until

    def _do_departure(self, uid: int, t: float) -> None:
        if t > self.time:
            if self.time != _NEG_INF:
                self.util_area += self.load * (t - self.time)
            if self._on_advance is not None:
                self._on_advance(t)
            self.time = t
        bin_ = self._item_bin.pop(uid, None)
        if bin_ is None:
            return  # already departed (duplicate schedule), ignore
        removed = bin_._remove(uid)
        self.departures += 1
        self.load -= removed.size
        if not self._item_bin:
            self.load = 0.0  # kill floating residue when idle
        if self.record:
            self._departed_at[uid] = t
        hook = self._dep_hook
        if hook is not None:
            hook(removed, bin_, self)
        closed = not bin_._contents
        if closed:
            self._close(bin_, t)
        elif self._index is not None:
            self._index.update(bin_)
        if self._on_departure is not None:
            self._on_departure(uid, removed, bin_, t, closed)

    def _close(self, bin_: Bin, t: float) -> None:
        del self._open[bin_.uid]
        if self._index is not None:
            self._index.remove(bin_)
        lanes = self._lanes
        if lanes is not None:
            lane = lanes[bin_.tag]
            del lane[bin_.uid]
            if not lane:
                del lanes[bin_.tag]
        peak = bin_.peak_load
        usage = t - bin_.opened_at
        self.closed_usage += usage
        self._sum_opened_at -= bin_.opened_at
        if not self._open:
            self._sum_opened_at = 0.0  # kill floating residue when idle
        if self.open_count_events is not None:
            self.open_count_events.append((t, -1))
        if self.record:
            self._records.append(
                BinRecord(
                    uid=bin_.uid,
                    tag=bin_.tag,
                    opened_at=bin_.opened_at,
                    closed_at=t,
                    item_uids=tuple(self._bin_items.pop(bin_.uid, ())),
                    peak_load=peak,
                )
            )
        if self._on_close is not None:
            self._on_close(bin_, t, usage, peak, bin_.items_held)
        hook = self._close_hook
        if hook is not None:
            hook(bin_, self)

    def _commit(self, item: Item, view: Item, chosen, opened: bool) -> Bin:
        """Validate the algorithm's choice and commit the placement.

        The one pending-bin commit site: both frontends inherit its
        protocol checks (one new bin per placement, returned bin must be
        the pending one or already open) and capacity enforcement.
        """
        pending, self._pending_bin = self._pending_bin, None
        if not isinstance(chosen, Bin):
            raise PackingError(f"place() must return a Bin, got {chosen!r}")
        uid = chosen.uid
        if pending is not None:
            if chosen is not pending:
                raise PackingError(
                    "place() opened a new bin but returned a different one"
                )
            chosen._add(view)
            self._open[uid] = chosen
            self._sum_opened_at += chosen.opened_at
            self.bins_opened += 1
            n_open = len(self._open)
            if n_open > self.max_open:
                self.max_open = n_open
            if self._index is not None:
                self._index.add(chosen)
            if self._lanes is not None:
                self._lanes.setdefault(chosen.tag, {})[uid] = chosen
            if self.open_count_events is not None:
                self.open_count_events.append((self.time, +1))
            if self._on_open is not None:
                self._on_open(chosen)
        else:
            if uid not in self._open:
                raise PackingError(
                    f"place() returned bin {uid} which is not open"
                )
            chosen._add(view)
            if self._index is not None:
                self._index.update(chosen)
        self.arrivals += 1
        load = self.load + view.size
        self.load = load
        if load > self.peak_load:
            self.peak_load = load
        self._item_bin[item.uid] = chosen
        if self.record:
            self._assignment[item.uid] = uid
            members = self._bin_items.get(uid)
            if members is None:
                self._bin_items[uid] = [item.uid]
            else:
                members.append(item.uid)
            self._items.append(item)
        return chosen

    def _logged_commit(self, item: Item, view: Item, chosen, opened: bool):
        """:meth:`_commit`, then the arrival's two packing-log values."""
        bin_ = type(self)._commit(self, item, view, chosen, opened)
        log = self._arrived
        log.append(bin_._load)
        log.append(len(self._open))
        if len(log) >= LOG_BOUND:
            self._log_full()
        return bin_

    def _logged_close(self, bin_: Bin, t: float) -> None:
        """:meth:`_close`, then the close's three packing-log values."""
        type(self)._close(self, bin_, t)
        log = self._closed
        log.append(bin_.items_held)
        log.append(bin_.peak_load)
        log.append(t - bin_.opened_at)
        if len(log) >= LOG_BOUND:
            self._log_full()

    # ------------------------------------------------------------------ #
    # Run state (checkpointing): plain data, never the object graph
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict:
        """The run state at the current clock, as plain data.

        Numbers, strings, ``None``, lists, string-keyed dicts, and each
        bin's ``tag`` as the algorithm gave it (tuples stay tuples: the
        lanes key on them).  Loads and totals are the running values as
        written: a float sum recomputed after removals would differ.
        The algorithm's own state, the listeners, the index and the
        lanes are not part of it.  :meth:`import_state` inverts it.
        """
        if self._pending_bin is not None:
            raise SimulationError("cannot export state mid-placement")
        due = {uid: t for t, _, uid in self._departures}
        events = self.open_count_events
        state = self._options()
        state.update({name: getattr(self, name) for name in _SCALARS})
        state.update(
            bins=[
                [b.uid, b.tag, b.opened_at, b._load, b.peak_load,
                 b.items_held, list(b._contents)]
                for b in self._open.values()
            ],
            active=_columns(
                (b._contents[u], due.get(u)) for u, b in self._item_bin.items()
            ),
            heap=[list(entry) for entry in self._departures],
            adaptive=list(self._adaptive),
            events=None if events is None else [list(e) for e in events],
            history=None if not self.record else {
                "items": _columns((it, it.departure) for it in self._items),
                "records": [
                    [r.uid, r.tag, r.opened_at, r.closed_at,
                     list(r.item_uids), r.peak_load]
                    for r in self._records
                ],
                "assignment": [[u, b] for u, b in self._assignment.items()],
                "departed_at": [[u, t] for u, t in self._departed_at.items()],
            },
        )
        return state

    def import_state(self, state: dict) -> None:
        """Load :meth:`export_state` data into this freshly built kernel.

        The kernel must come straight from its constructor, built with
        the options the state records (``capacity``, ``record``,
        ``record_events``, ``indexed``).  Each active row is validated
        as an :class:`Item`, and the bins' residents must be exactly the
        active items; otherwise :class:`SimulationError` (or the
        ``KeyError``/``TypeError``/``ValueError`` of a missing or
        mistyped field).  Listeners stay as attached.
        """
        if self.time != _NEG_INF or self._open or self.arrivals:
            raise SimulationError("import_state needs a freshly built kernel")
        if {name: state[name] for name in self._options()} != self._options():
            raise SimulationError("the state has other kernel options")
        active = {it.uid: it for it in _rows(state["active"])}
        for uid, tag, opened_at, load, peak, held, residents in state["bins"]:
            hash(tag)  # the lanes key on it
            b = Bin(int(uid), self.capacity, float(opened_at), tag)
            b._load, b.peak_load = float(load), float(peak)
            b.items_held = int(held)
            for u in residents:
                if u in self._item_bin:
                    raise SimulationError(f"item {u} resides in two bins")
                b._contents[u] = active[u].masked() if self._masked else active[u]
                self._item_bin[u] = b
            self._open[b.uid] = b
        if (len(self._item_bin), len(self._open)) != (
            len(state["active"]["uid"]), len(state["bins"])
        ):
            raise SimulationError("the bins' residents are not the active items")
        self._item_bin = {u: self._item_bin[u] for u in active}
        for name in _SCALARS:
            setattr(self, name, type(getattr(self, name))(state[name]))
        self._departures = [
            (float(t), int(seq), int(uid)) for t, seq, uid in state["heap"]
        ]
        self._adaptive = set(map(int, state["adaptive"]))
        if self.open_count_events is not None:
            self.open_count_events[:] = [
                (float(t), int(d)) for t, d in state["events"]
            ]
        if self.record:
            history = state["history"]
            self._items = _rows(history["items"])
            self._records = [
                BinRecord(int(uid), tag, float(opened), float(closed),
                          tuple(map(int, uids)), float(peak))
                for uid, tag, opened, closed, uids, peak in history["records"]
            ]
            self._assignment = {int(u): int(b) for u, b in history["assignment"]}
            # an open bin's members, in release order, as _commit appends
            self._bin_items = {uid: [] for uid in self._open}
            for u, b in self._assignment.items():
                if b in self._bin_items:
                    self._bin_items[b].append(u)
            self._departed_at = {
                int(u): float(t) for u, t in history["departed_at"]
            }

    def _options(self) -> dict:
        """The constructor options an exported state was taken under."""
        return {
            "capacity": self.capacity,
            "record": self.record,
            "record_events": self.open_count_events is not None,
            "indexed": self._indexed,
        }

    def __repr__(self) -> str:
        name = getattr(self.algorithm, "name", type(self.algorithm).__name__)
        return (
            f"{type(self).__name__}(algorithm={name!r}, t={self.time:g}, "
            f"open={len(self._open)}, cost={self.cost_so_far:.6g})"
        )
