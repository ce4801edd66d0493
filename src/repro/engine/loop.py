"""The streaming packing engine.

:class:`Engine` merges an arrival stream (pulled lazily from any
:data:`~repro.engine.stream.ItemSource`) with the kernel's departure heap
and drives an **unmodified** :class:`~repro.algorithms.base.
OnlineAlgorithm` over the combined event sequence.  It is a thin adapter
over the shared :class:`~repro.core.kernel.PlacementKernel` — the same
kernel the batch ``simulate()`` runs on — so event semantics (departures
before arrivals at equal times, release-order tie-breaks, bins close the
moment they empty, clairvoyance enforced by masking) are *identical by
construction*, not by mirroring.  What the engine layers on top:

- **Incremental accounting.**  The engine registers as the kernel's
  listener and folds every event into
  :class:`~repro.engine.accounting.RunningAccounting` in O(1) per event
  (O(log n) including the heap), so ``ON_t``, cost, load and utilisation
  are queryable at any moment mid-stream — no whole-instance
  recomputation, no stored history.
- **Constant memory.**  By default nothing proportional to the trace is
  retained: resident state is the open bins and the pending-departure
  heap.  Pass ``record=True`` to additionally keep items, records and the
  assignment so :meth:`result` can produce a full
  :class:`~repro.core.result.PackingResult` (the parity harness uses
  this; it restores the batch path's memory profile).
- **Observability.**  Optional per-event metrics
  (:class:`~repro.engine.metrics.EngineMetrics`) and observer callbacks
  receiving typed :class:`~repro.engine.events.Event` records.

Per-bin usage is accumulated in close order inside the kernel, so the
final cost is bit-for-bit equal to ``simulate()``'s (the regression guard
in ``repro.engine.parity`` checks exactly this).
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..core.bins import Bin, BinRecord
from ..core.instance import Instance
from ..core.item import Item
from ..core.kernel import KernelListener, PlacementKernel
from ..core.result import PackingResult
from ..core.store import ItemStore
from ..obs.trace import Tracer, TracingListener
from .accounting import RunningAccounting
from .events import ArrivalEvent, DepartureEvent, Event
from .metrics import EngineMetrics
from .stream import ItemSource

__all__ = ["Engine", "EngineSummary", "replay"]


@dataclass(frozen=True, slots=True)
class EngineSummary:
    """The final accounting of one streamed run (JSON-friendly)."""

    algorithm: str
    capacity: float
    items: int
    cost: float
    bins_opened: int
    bins_closed: int
    max_open: int
    peak_load: float
    util_area: float
    final_time: Optional[float]

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "capacity": self.capacity,
            "items": self.items,
            "cost": self.cost,
            "bins_opened": self.bins_opened,
            "bins_closed": self.bins_closed,
            "max_open": self.max_open,
            "peak_load": self.peak_load,
            "util_area": self.util_area,
            "final_time": self.final_time,
        }


class Engine:
    """Event-driven streaming replacement for batch ``simulate()``.

    Parameters
    ----------
    algorithm:
        Any :class:`~repro.algorithms.base.OnlineAlgorithm`; it is
        ``reset()`` once at construction (but *not* on checkpoint
        restore).
    capacity:
        Bin capacity, as in the batch simulator.
    metrics:
        Optional :class:`~repro.engine.metrics.EngineMetrics`; updated
        per event when present, at the price of two clock reads per
        event.
    record:
        Keep full history (items, bin records, assignment) so
        :meth:`result` works.  Off by default — on, memory grows with
        the trace exactly like the batch path.
    record_profile:
        Keep open-count deltas so ``accounting.open_profile()`` can
        rebuild ``ON_t`` afterwards (also grows with the trace).
    indexed:
        Maintain the kernel's O(log n) open-bin index (default).  Pass
        ``False`` for plain linear-scan placement queries.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; when given (and
        enabled), a :class:`~repro.obs.trace.TracingListener` is fanned
        in next to the engine's own kernel listener so every kernel
        event lands in the ring buffer.  A tracer that is *disabled at
        construction* is not attached at all — tracing off costs
        nothing (the contract ``benchmarks/bench_obs.py`` freezes).
    listeners:
        Extra :class:`~repro.core.kernel.KernelListener` objects to fan
        kernel events out to (e.g. the deterministic
        :class:`~repro.obs.metrics.MetricsListener`).  Like observers,
        they are not checkpointed — re-attach after a restore via
        :meth:`attach_listener`.
    invariants:
        Optional :class:`~repro.obs.invariants.InvariantMonitor`; it is
        attached as a kernel listener (the kernel binds it for the cost
        identity cross-check), inherits the engine's tracer when it has
        none of its own, and is finalized by :meth:`finish` so the
        end-of-run bound checks (``span ≤ cost``, Table-1 ratios) run
        without the caller having to remember to.
    """

    def __init__(
        self,
        algorithm,
        *,
        capacity: float = 1.0,
        metrics: Optional[EngineMetrics] = None,
        record: bool = False,
        record_profile: bool = False,
        indexed: bool = True,
        tracer: Optional[Tracer] = None,
        listeners: tuple = (),
        invariants=None,
    ) -> None:
        self.metrics = metrics
        self.record = record
        self.tracer = tracer
        self.invariants = invariants
        self.accounting = RunningAccounting(record_profile=record_profile)
        self._observers: List[Callable[[Event], None]] = []
        self._last_opened = False
        self._last_item: Optional[Item] = None
        extra: List[KernelListener] = list(listeners)
        if tracer is not None and tracer.enabled:
            extra.append(TracingListener(tracer))
        if invariants is not None:
            if getattr(invariants, "tracer", None) is None:
                invariants.tracer = tracer
            extra.append(invariants)
        self._kernel = PlacementKernel(
            algorithm,
            capacity=capacity,
            record=record,
            indexed=indexed,
            listener=self if not extra else [self, *extra],
            facade=self,
        )

    # ------------------------------------------------------------------ #
    # The `sim` facade algorithms see (SimulationView protocol)
    # ------------------------------------------------------------------ #
    @property
    def algorithm(self):
        return self._kernel.algorithm

    @property
    def capacity(self) -> float:
        return self._kernel.capacity

    @property
    def time(self) -> float:
        return self._kernel.time

    @property
    def open_bins(self) -> tuple[Bin, ...]:
        """Currently open bins, oldest first (first-fit order)."""
        return self._kernel.open_bins

    @property
    def open_bin_count(self) -> int:
        return self._kernel.open_bin_count

    @property
    def cost_so_far(self) -> float:
        """Closed usage plus open bins' usage up to the current clock."""
        return self.accounting.cost_at(self._kernel.time)

    @property
    def indexed(self) -> bool:
        """Whether the kernel maintains its O(log n) open-bin index."""
        return self._kernel.indexed

    def set_indexed(self, flag: bool) -> None:
        """Switch the kernel's open-bin index on or off (see the kernel)."""
        self._kernel.set_indexed(flag)

    def is_open(self, uid: int) -> bool:
        """Whether bin ``uid`` is currently open (O(1))."""
        return self._kernel.is_open(uid)

    def open_bin(self, tag=None) -> Bin:
        """Called by the algorithm inside ``place()`` to open a fresh bin."""
        return self._kernel.open_bin(tag)

    # indexed candidate queries (delegated to the kernel's bin index)
    def first_fit(self, item: Item) -> Optional[Bin]:
        return self._kernel.first_fit(item)

    def best_fit(self, item: Item) -> Optional[Bin]:
        return self._kernel.best_fit(item)

    def worst_fit(self, item: Item) -> Optional[Bin]:
        return self._kernel.worst_fit(item)

    def last_fit(self, item: Item) -> Optional[Bin]:
        return self._kernel.last_fit(item)

    def fitting_bins(self, item: Item) -> list[Bin]:
        return self._kernel.fitting_bins(item)

    # record-mode history lives in the kernel; exposed for tests/tools
    @property
    def _items(self) -> List[Item]:
        return self._kernel._items

    @property
    def _records(self) -> List[BinRecord]:
        return self._kernel._records

    @property
    def _assignment(self) -> dict[int, int]:
        return self._kernel._assignment

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def subscribe(self, observer: Callable[[Event], None]) -> None:
        """Register a callback invoked with every :class:`Event`.

        Observers are *not* checkpointed (they may close over sockets or
        file handles); re-subscribe after a restore.
        """
        self._observers.append(observer)

    def _emit(self, event: Event) -> None:
        for obs in self._observers:
            obs(event)

    def attach_listener(self, listener: KernelListener) -> None:
        """Fan kernel events out to one more listener, mid-run.

        Listeners (like observers) are not checkpointed; call this again
        after a restore.
        """
        self._kernel.add_listener(listener)

    def attach_tracer(self, tracer: Tracer) -> None:
        """Attach an (enabled) tracer to an already-built engine.

        The CLI resume path uses this: ``load_checkpoint`` rebuilds the
        engine without listeners, then ``--trace`` re-wires tracing.
        """
        self.tracer = tracer
        if tracer.enabled:
            self.attach_listener(TracingListener(tracer))

    # ------------------------------------------------------------------ #
    # Kernel listener callbacks: fold events into accounting/metrics
    # ------------------------------------------------------------------ #
    @property
    def timed(self) -> bool:
        """Whether the kernel should time departures (for metrics)."""
        return self.metrics is not None

    def on_advance(self, t: float) -> None:
        self.accounting.advance(t)

    def on_open(self, bin_: Bin) -> None:
        self.accounting.on_open(bin_.opened_at)

    def on_arrival(self, item: Item, bin_: Bin, opened: bool) -> None:
        self.accounting.on_arrival(item.size)
        self._last_opened = opened
        self._last_item = item

    def on_departure(
        self,
        uid: int,
        removed: Item,
        bin_: Bin,
        t: float,
        closed: bool,
        elapsed: float,
    ) -> None:
        self.accounting.on_departure(
            removed.size, any_active=self._kernel.has_active
        )
        if self.metrics is not None:
            self.metrics.on_departure(elapsed)
        if self._observers:
            self._emit(
                DepartureEvent(
                    time=t,
                    seq=self.accounting.departures,
                    uid=uid,
                    bin_uid=bin_.uid,
                    size=removed.size,
                    closed=closed,
                )
            )

    def on_close(
        self, bin_: Bin, t: float, usage: float, peak: float, n_items: int
    ) -> None:
        self.accounting.on_close(bin_.opened_at, t)
        if self.metrics is not None:
            self.metrics.on_bin_close(
                n_items=n_items,
                peak_load=peak,
                capacity=self.capacity,
                usage=usage,
            )

    # ------------------------------------------------------------------ #
    # Driving API (delegates to the kernel)
    # ------------------------------------------------------------------ #
    def feed(self, item: Item) -> Bin:
        """Release one item to the algorithm; returns the bin it chose.

        Processes all scheduled departures up to the item's arrival
        first — the kernel's semantics, shared with the batch simulator.
        """
        t0 = _time.perf_counter() if self.metrics is not None else 0.0
        self._last_opened = False
        bin_ = self._kernel.release(item)
        if self.metrics is not None:
            capacity = bin_.capacity
            self.metrics.on_arrival(
                _time.perf_counter() - t0,
                opened=self._last_opened,
                residual=bin_.residual() / capacity if capacity else 0.0,
                open_bins=self._kernel.open_bin_count,
            )
        if self._observers:
            self._emit(
                ArrivalEvent(
                    time=self._kernel.time,
                    seq=self.accounting.arrivals,
                    item=item,
                    bin_uid=bin_.uid,
                    opened=self._last_opened,
                )
            )
        return bin_

    def feed_values(
        self,
        arrival: float,
        departure: Optional[float],
        size: float,
        uid: int,
    ) -> Bin:
        """Columnar :meth:`feed`: one arrival from plain scalars.

        Identical semantics and accounting; the kernel builds the single
        boxed view itself (store rows are pre-validated), so the serve
        shards and the chunked replay path never allocate caller-side
        :class:`Item` objects.
        """
        t0 = _time.perf_counter() if self.metrics is not None else 0.0
        self._last_opened = False
        bin_ = self._kernel.release_values(arrival, departure, size, uid)
        if self.metrics is not None:
            capacity = bin_.capacity
            self.metrics.on_arrival(
                _time.perf_counter() - t0,
                opened=self._last_opened,
                residual=bin_.residual() / capacity if capacity else 0.0,
                open_bins=self._kernel.open_bin_count,
            )
        if self._observers:
            self._emit(
                ArrivalEvent(
                    time=self._kernel.time,
                    seq=self.accounting.arrivals,
                    item=self._last_item,
                    bin_uid=bin_.uid,
                    opened=self._last_opened,
                )
            )
        return bin_

    def feed_row(self, store: ItemStore, i: int) -> Bin:
        """Feed row ``i`` of an :class:`ItemStore` (window-relative)."""
        arrival, departure, size, uid = store.row(i)
        return self.feed_values(arrival, departure, size, uid)

    def feed_store(
        self, store: ItemStore, start: int = 0, stop: Optional[int] = None
    ) -> int:
        """Feed rows ``[start, stop)`` of an :class:`ItemStore` in order.

        Returns the number of rows fed.  Without metrics or observers
        this is the kernel's :meth:`~repro.core.kernel.PlacementKernel.
        release_store` loop, the one ``simulate()`` runs; the engine's
        accounting still sees every event through its listener hooks.
        With either attached, rows go one by one through
        :meth:`feed_values`, which times each arrival and emits its
        :class:`~repro.engine.events.ArrivalEvent`.
        """
        if self.metrics is None and not self._observers:
            return self._kernel.release_store(store, start, stop)
        arr, dep, siz, uids, w0, w1 = store.columns()
        lo = w0 + start
        hi = w1 if stop is None else w0 + stop
        feed = self.feed_values
        for j in range(lo, hi):
            d = dep[j]
            feed(arr[j], d if d == d else None, siz[j], uids[j])
        return hi - lo

    def depart(self, uid: int, time: float) -> None:
        """Force an adaptive item (unknown departure) out at ``time``."""
        self._kernel.depart(uid, time)

    def advance_to(self, time: float) -> None:
        """Move the clock to ``time``, processing due departures."""
        self._kernel.advance_to(time)

    def run(self, source: ItemSource) -> EngineSummary:
        """Drain an entire source, then :meth:`finish`.

        ``source`` may be an iterable of :class:`Item` objects (the
        classic streaming path), an :class:`~repro.core.instance.
        Instance` or :class:`~repro.core.store.ItemStore` (driven
        columnwise, no boxed iteration), or an iterable of
        :class:`ItemStore` chunks as produced by
        :func:`repro.workloads.io.iter_jsonl_stores`.
        """
        if isinstance(source, Instance):
            self.feed_store(source.store)
            return self.finish()
        if isinstance(source, ItemStore):
            self.feed_store(source)
            return self.finish()
        feed = self.feed
        feed_store = self.feed_store
        for obj in source:
            if type(obj) is ItemStore:
                feed_store(obj)
            else:
                feed(obj)
        return self.finish()

    def finish(self) -> EngineSummary:
        """Process every remaining departure and return the summary.

        Also finalizes an attached invariant monitor, so the end-of-run
        theory checks run exactly once per completed stream.
        """
        self._kernel.drain()
        if self.invariants is not None:
            self.invariants.finalize()
        return self.summary()

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def summary(self) -> EngineSummary:
        acc = self.accounting
        kernel = self._kernel
        return EngineSummary(
            algorithm=getattr(
                kernel.algorithm, "name", type(kernel.algorithm).__name__
            ),
            capacity=kernel.capacity,
            items=acc.arrivals,
            cost=acc.cost_at(kernel.time),
            bins_opened=acc.bins_opened,
            bins_closed=acc.bins_closed,
            max_open=acc.max_open,
            peak_load=acc.peak_load,
            util_area=acc.util_area,
            final_time=kernel.time if math.isfinite(kernel.time) else None,
        )

    def result(self) -> PackingResult:
        """The full :class:`PackingResult` (requires ``record=True``)."""
        return self._kernel.result()

    def __repr__(self) -> str:
        kernel = self._kernel
        name = getattr(
            kernel.algorithm, "name", type(kernel.algorithm).__name__
        )
        return (
            f"Engine(algorithm={name!r}, t={kernel.time:g}, "
            f"open={kernel.open_bin_count}, "
            f"cost={self.accounting.cost_at(kernel.time):.6g})"
        )


def replay(
    algorithm,
    source: ItemSource,
    *,
    capacity: float = 1.0,
    metrics: Optional[EngineMetrics] = None,
    tracer: Optional[Tracer] = None,
) -> EngineSummary:
    """One-shot convenience: stream ``source`` through a fresh engine."""
    return Engine(
        algorithm, capacity=capacity, metrics=metrics, tracer=tracer
    ).run(source)
