"""The placement kernel: single owner of all packing-simulation state.

Every frontend that drives an online algorithm — the batch
:func:`~repro.core.simulation.simulate`, the incremental
:class:`~repro.core.simulation.IncrementalSimulation` used by the
Section-4 adaptive adversaries, and the streaming
:class:`~repro.engine.loop.Engine` — is a thin adapter over one
:class:`PlacementKernel`.  The kernel owns, in one place:

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
- per-bin **usage/peak accounting** and the O(1) running-cost identity
  ``Σ_open (t - opened_at) = |open|·t - Σ_open opened_at``;
- the optional **ON_t event log** (``(time, ±1)`` open-count deltas)
  and record-mode history from which :meth:`result` builds an audited
  :class:`~repro.core.result.PackingResult`.

Because both frontends call the same ``release``/``depart``/``advance``
/``commit`` code, batch/stream parity holds **by construction**; the
sweep in :mod:`repro.engine.parity` remains only as a regression guard.

Indexed placement
-----------------
The kernel keeps an :class:`OpenBinIndex` over the open bins so the
Any-Fit candidate queries exposed on the facade (:meth:`first_fit`,
:meth:`best_fit`, :meth:`worst_fit`, :meth:`last_fit`) run in O(log n)
instead of scanning every open bin.  Its two structures — a
residual-sorted list and a max-residual segment tree in opening order —
are built from the open-bin table by the first query that needs each,
so an algorithm only pays upkeep for the queries it actually makes.
Construct with ``indexed=False`` to fall back to the plain linear scans
(same results; used as the benchmark baseline and as a safety valve).

Frontends integrate through two hooks passed at construction:

``facade``
    The object handed to ``algorithm.place(view, facade)`` and the
    notify hooks; defaults to the kernel itself.  Adapters pass
    themselves so algorithms keep seeing the familiar ``sim`` surface
    (the :class:`~repro.algorithms.base.SimulationView` protocol).
``listener``
    Receives ``on_advance`` / ``on_open`` / ``on_arrival`` /
    ``on_departure`` / ``on_close`` callbacks in exact event order; the
    streaming engine uses this to drive its incremental accounting,
    metrics and observer events without re-implementing any semantics.
"""

from __future__ import annotations

import heapq
import math
import time as _time
from itertools import islice
from bisect import bisect_left, insort
from typing import Hashable, List, Optional, Tuple

from .bins import LOAD_EPS, Bin, BinRecord
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


class KernelListener:
    """Callback protocol for frontends observing kernel events.

    All methods are optional no-ops; the streaming engine overrides them
    to maintain :class:`~repro.engine.accounting.RunningAccounting`,
    metrics and observer events.  ``timed`` tells the kernel whether to
    measure per-departure wall time (for latency histograms).
    """

    timed: bool = False

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
        elapsed: float,
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
    accounting listener can never change semantics.  ``timed`` is the OR
    over members: one latency-hungry listener is enough to make the
    kernel measure per-departure wall time.
    """

    def __init__(self, listeners) -> None:
        self.listeners = list(listeners)

    @property
    def timed(self) -> bool:  # type: ignore[override]
        return any(listener.timed for listener in self.listeners)

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
        elapsed: float,
    ) -> None:
        for listener in self.listeners:
            listener.on_departure(uid, removed, bin_, t, closed, elapsed)

    def on_close(
        self, bin_: Bin, t: float, usage: float, peak: float, n_items: int
    ) -> None:
        for listener in self.listeners:
            listener.on_close(bin_, t, usage, peak, n_items)


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
    exist.  A BestFit run therefore never pays for the tree, and an
    algorithm that keeps its own bin lists (HybridAlgorithm, CDFF,
    NextFit, ...) pays for neither.  Both structures depend only on the
    live bins' residuals and opening order, so when one is built cannot
    change a query's answer.

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
        Answer candidate queries through the :class:`OpenBinIndex`
        in O(log n); ``False`` falls back to linear scans (identical
        results).
    listener:
        Optional :class:`KernelListener` receiving every event.
    facade:
        The ``sim`` object algorithms and notify hooks see; defaults to
        the kernel itself (adversaries drive the kernel directly).
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
        facade=None,
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
        self._bin_uid = 0
        self._seq = 0
        self._open: dict[int, Bin] = {}
        self._departures: List[Tuple[float, int, int]] = []  # (t, seq, uid)
        self._item_bin: dict[int, Bin] = {}
        self._peak: dict[int, float] = {}  # open-bin uid -> peak load
        self._bin_count: dict[int, int] = {}  # open-bin uid -> items ever
        self._adaptive: set[int] = set()  # uids with unknown departure
        self._pending_bin: Optional[Bin] = None
        self._index: Optional[OpenBinIndex] = (
            OpenBinIndex(self._open) if indexed else None
        )
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
        self._facade = facade if facade is not None else self
        # record-mode history (stays empty unless record=True)
        self._items: List[Item] = []
        self._records: List[BinRecord] = []
        self._assignment: dict[int, int] = {}
        self._bin_items: dict[int, list[int]] = {}
        self._departed_at: dict[int, float] = {}
        algorithm.reset()
        # hot-path caches (recomputed on unpickle; see __setstate__)
        self._masked = self.masks_departures
        self._dep_hook = getattr(algorithm, "notify_departure", None)
        self._close_hook = getattr(algorithm, "notify_close", None)

    # ------------------------------------------------------------------ #
    # The facade surface (SimulationView protocol)
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
    def masks_departures(self) -> bool:
        """Whether this run hides departure times from the algorithm.

        The *only* clairvoyance-masking decision site: both the batch
        simulator and the streaming engine see items through this flag.
        """
        return not getattr(self.algorithm, "clairvoyant", True)

    @property
    def has_active(self) -> bool:
        """Whether any item is still inside a bin."""
        return bool(self._item_bin)

    @property
    def indexed(self) -> bool:
        """Whether candidate queries go through the open-bin index."""
        return self._index is not None

    def set_indexed(self, flag: bool) -> None:
        """Switch the open-bin index on or off, mid-run.

        Turning it on attaches a fresh index over the current open bins
        (identical query results from the next placement on); turning it
        off falls back to linear scans.  The restore paths use this to
        honour ``--no-index`` on resumed engines, whatever the
        checkpointed run used.
        """
        if flag and self._index is None:
            self._index = OpenBinIndex(self._open)
        elif not flag:
            self._index = None

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

    # -- indexed candidate queries -------------------------------------- #
    def first_fit(self, item: Item) -> Optional[Bin]:
        """Earliest-opened open bin that fits ``item``, else ``None``."""
        if self._index is not None:
            b = self._index.first_fit(item.size - LOAD_EPS)
            if b is None or b.fits(item):
                return b
        for b in self._open.values():
            if b.fits(item):
                return b
        return None

    def best_fit(self, item: Item) -> Optional[Bin]:
        """Fullest fitting bin (ties to the earliest-opened), else ``None``."""
        if self._index is not None:
            b = self._index.best_fit(item.size - LOAD_EPS)
            if b is None or b.fits(item):
                return b
        best: Optional[Bin] = None
        best_key: Optional[Tuple[float, int]] = None
        for b in self._open.values():
            if b.fits(item):
                key = (b.residual(), b.uid)
                if best_key is None or key < best_key:
                    best, best_key = b, key
        return best

    def worst_fit(self, item: Item) -> Optional[Bin]:
        """Emptiest fitting bin (ties to the earliest-opened), else ``None``."""
        if self._index is not None:
            b = self._index.worst_fit(item.size - LOAD_EPS)
            if b is None or b.fits(item):
                return b
        best: Optional[Bin] = None
        best_res = _NEG_INF
        for b in self._open.values():
            r = b.residual()
            if r > best_res and b.fits(item):
                best, best_res = b, r
        return best

    def last_fit(self, item: Item) -> Optional[Bin]:
        """Latest-opened open bin that fits ``item``, else ``None``."""
        if self._index is not None:
            b = self._index.last_fit(item.size - LOAD_EPS)
            if b is None or b.fits(item):
                return b
        for b in reversed(self._open.values()):
            if b.fits(item):
                return b
        return None

    def fitting_bins(self, item: Item) -> list[Bin]:
        """All open bins that fit ``item``, oldest first (linear scan)."""
        return [b for b in self._open.values() if b.fits(item)]

    # ------------------------------------------------------------------ #
    # Driving API
    # ------------------------------------------------------------------ #
    def release(self, item: Item) -> Bin:
        """Release ``item`` to the algorithm and return the bin it chose.

        Processes all scheduled departures up to the item's arrival
        first (departures-before-arrivals at equal times).
        """
        if item.arrival < self.time:
            raise SimulationError(
                f"items must be released in arrival order: {item} arrives at "
                f"{item.arrival} but the clock is at {self.time}"
            )
        self._advance(item.arrival)
        masked = self._masked
        if item.departure is None and not masked:
            raise ClairvoyanceError(
                f"clairvoyant algorithm {self.algorithm!r} received an item "
                "with unknown departure"
            )
        view = item.masked() if masked else item
        return self._finish_release(item, view)

    def release_values(
        self,
        arrival: float,
        departure: Optional[float],
        size: float,
        uid: int,
    ) -> Bin:
        """Columnar :meth:`release`: the same semantics, from plain scalars.

        The hot path for store-backed frontends — no caller-side
        :class:`Item` allocation; the kernel builds exactly one
        (pre-validated) boxed view per arrival, two when masking hides
        the departure from the algorithm.  Values must already satisfy
        :class:`Item`'s invariants (store rows are validated on append).
        """
        if arrival < self.time:
            raise SimulationError(
                "items must be released in arrival order: "
                f"{item_view(arrival, departure, size, uid)} arrives at "
                f"{arrival} but the clock is at {self.time}"
            )
        self._advance(arrival)
        masked = self._masked
        if departure is None and not masked:
            raise ClairvoyanceError(
                f"clairvoyant algorithm {self.algorithm!r} received an item "
                "with unknown departure"
            )
        item = item_view(arrival, departure, size, uid)
        view = item_view(arrival, None, size, uid) if masked else item
        return self._finish_release(item, view)

    def release_store(self, store, start: int = 0, stop: Optional[int] = None):
        """Release rows ``[start, stop)`` of an :class:`ItemStore` in order.

        The batch ``simulate()`` loop: :meth:`release_values` semantics,
        hand-inlined straight over the store's columns — no per-row
        method dispatch, no ``_advance`` call when no departure is due —
        and returns the number of rows released.  Decision-for-decision
        identical to calling :meth:`release` on each row's item.
        """
        arr, dep, siz, uids, w0, w1 = store.columns()
        lo = w0 + start
        hi = w1 if stop is None else w0 + stop
        masked = self._masked
        place = self.algorithm.place
        facade = self._facade
        advance = self._advance
        commit = self._commit
        dq = self._departures
        push = heapq.heappush
        # zip iteration over the raw columns is ~2x cheaper than
        # per-index array reads; islice bounds it to the window
        for arrival, d, size, uid in islice(
            zip(arr, dep, siz, uids), lo, hi
        ):
            if arrival < self.time:
                raise SimulationError(
                    "items must be released in arrival order: "
                    f"{item_view(arrival, d if d == d else None, size, uid)} "
                    f"arrives at {arrival} but the clock is at {self.time}"
                )
            if dq and dq[0][0] <= arrival:
                advance(arrival)
            elif arrival > self.time:  # _advance's no-departure tail
                if self._listener is not None:
                    self._listener.on_advance(arrival)
                self.time = arrival
            departure = d if d == d else None
            if departure is None and not masked:
                raise ClairvoyanceError(
                    f"clairvoyant algorithm {self.algorithm!r} received an "
                    "item with unknown departure"
                )
            item = item_view(arrival, departure, size, uid)
            view = item_view(arrival, None, size, uid) if masked else item
            chosen = place(view, facade)
            opened = self._pending_bin is not None
            bin_ = commit(item, view, chosen, opened)
            if departure is not None:
                push(dq, (departure, self._seq, uid))
                self._seq += 1
            else:
                self._adaptive.add(uid)
            listener = self._listener
            if listener is not None:
                listener.on_arrival(item, bin_, opened)
        return hi - lo

    def _finish_release(self, item: Item, view: Item) -> Bin:
        """The shared tail of every release: place, commit, schedule."""
        chosen = self.algorithm.place(view, self._facade)
        opened = self._pending_bin is not None
        bin_ = self._commit(item, view, chosen, opened)
        if item.departure is not None:
            heapq.heappush(
                self._departures, (item.departure, self._seq, item.uid)
            )
            self._seq += 1
        else:
            self._adaptive.add(item.uid)
        if self._listener is not None:
            self._listener.on_arrival(item, bin_, opened)
        return bin_

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
            if self._listener is not None:
                self._listener.on_advance(until)
            self.time = until

    def _do_departure(self, uid: int, t: float) -> None:
        listener = self._listener
        timed = listener is not None and listener.timed
        t0 = _time.perf_counter() if timed else 0.0
        if t > self.time:
            if listener is not None:
                listener.on_advance(t)
            self.time = t
        bin_ = self._item_bin.pop(uid, None)
        if bin_ is None:
            return  # already departed (duplicate schedule), ignore
        removed = bin_._remove(uid)
        if self.record:
            self._departed_at[uid] = t
        hook = self._dep_hook
        if hook is not None:
            hook(removed, bin_, self._facade)
        closed = bin_.n_items == 0
        if closed:
            self._close(bin_, t)
        elif self._index is not None:
            self._index.update(bin_)
        if listener is not None:
            listener.on_departure(
                uid,
                removed,
                bin_,
                t,
                closed,
                _time.perf_counter() - t0 if timed else 0.0,
            )

    def _close(self, bin_: Bin, t: float) -> None:
        del self._open[bin_.uid]
        if self._index is not None:
            self._index.remove(bin_)
        peak = self._peak.pop(bin_.uid, 0.0)
        n_items = self._bin_count.pop(bin_.uid, 0)
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
        if self._listener is not None:
            self._listener.on_close(bin_, t, usage, peak, n_items)
        hook = self._close_hook
        if hook is not None:
            hook(bin_, self._facade)

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
            if self._index is not None:
                self._index.add(chosen)
            if self.open_count_events is not None:
                self.open_count_events.append((self.time, +1))
            if self._listener is not None:
                self._listener.on_open(chosen)
        else:
            if uid not in self._open:
                raise PackingError(
                    f"place() returned bin {uid} which is not open"
                )
            chosen._add(view)
            if self._index is not None:
                self._index.update(chosen)
        load = chosen.load
        peak = self._peak
        if load > peak.get(uid, 0.0):
            peak[uid] = load
        counts = self._bin_count
        counts[uid] = counts.get(uid, 0) + 1
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

    # ------------------------------------------------------------------ #
    # Pickling (checkpointing): hooks are re-attached by the restorer
    # ------------------------------------------------------------------ #
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_listener"] = None
        state["_facade"] = None
        # the index is derived state: record only whether there was one
        state["_index"] = self._index is not None
        # bound-method caches are recomputed on restore, not serialized
        state.pop("_dep_hook", None)
        state.pop("_close_hook", None)
        state.pop("_masked", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        if self._facade is None:
            self._facade = self
        # blobs written before the index was demand-built pickle the
        # index object itself, in a layout without the open-bin table;
        # either way a fresh index over the restored bins replaces it
        self._index = (
            None
            if state.get("_index") in (None, False)
            else OpenBinIndex(self._open)
        )
        # also covers pre-columnar (v2-era) blobs, which lack the caches
        self._masked = self.masks_departures
        self._dep_hook = getattr(self.algorithm, "notify_departure", None)
        self._close_hook = getattr(self.algorithm, "notify_close", None)

    def __repr__(self) -> str:
        name = getattr(self.algorithm, "name", type(self.algorithm).__name__)
        return (
            f"PlacementKernel(algorithm={name!r}, t={self.time:g}, "
            f"open={len(self._open)}, cost={self.cost_so_far:.6g})"
        )
