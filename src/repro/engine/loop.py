"""The streaming packing engine.

:class:`Engine` merges an arrival stream (pulled lazily from any
:data:`~repro.engine.stream.ItemSource`) with the kernel's departure heap
and drives an **unmodified** :class:`~repro.algorithms.base.
OnlineAlgorithm` over the combined event sequence.  It is a thin adapter
over the shared :class:`~repro.core.kernel.PlacementKernel` — the same
kernel the batch ``simulate()`` runs on, handed to the algorithm as its
``sim`` exactly as ``simulate()`` does — so event semantics (departures
before arrivals at equal times, release-order tie-breaks, bins close the
moment they empty, clairvoyance enforced by masking) are *identical by
construction*, not by mirroring.  What the engine layers on top:

- **Running totals, read off the kernel.**  The kernel keeps cost,
  arrivals, departures, bins opened, ``max_open``, the active load, its
  peak and its integral inline at the sites that change state, so they
  are queryable at any moment mid-stream in O(1) — no whole-instance
  recomputation, no stored history, and no per-event engine callback.
- **Constant memory.**  By default nothing proportional to the trace is
  retained: resident state is the open bins and the pending-departure
  heap.  Pass ``record=True`` to additionally keep items, records and the
  assignment so :meth:`result` can produce a full
  :class:`~repro.core.result.PackingResult` (the parity harness uses
  this; it restores the batch path's memory profile).
- **Observability.**  The optional packing-metrics registry
  (:class:`~repro.engine.metrics.EngineMetrics`), a tracer, an
  invariant monitor and any other
  :class:`~repro.core.kernel.KernelListener` ride on the kernel's
  listener hooks; the engine itself is not a listener and reads no
  clock.

Per-bin usage is accumulated in close order inside the kernel, so the
final cost is bit-for-bit equal to ``simulate()``'s (the regression guard
in ``repro.engine.parity`` checks exactly this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from ..core.bins import Bin
from ..core.instance import Instance
from ..core.item import Item
from ..core.kernel import KernelListener, PlacementKernel
from ..core.result import PackingResult
from ..core.store import ItemStore
from ..obs.trace import Tracer, TracingListener
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
        ``reset()`` once at construction (a checkpoint restore then
        brings back its saved state).
    capacity:
        Bin capacity, as in the batch simulator.
    metrics:
        Optional :class:`~repro.engine.metrics.EngineMetrics`, attached
        as a kernel listener.  Assigning one later
        (``engine.metrics = ...``) attaches it from the next event on
        and detaches the one it replaces.
    record:
        Keep full history (items, bin records, assignment) so
        :meth:`result` works.  Off by default — on, memory grows with
        the trace exactly like the batch path.
    record_profile:
        Keep the kernel's ``(time, ±1)`` open-count deltas in
        ``engine.kernel.open_count_events`` so
        :func:`~repro.core.profile.open_count_profile` can rebuild
        ``ON_t`` afterwards (also grows with the trace).
    indexed:
        Maintain the kernel's O(log n) open-bin index (default).  Pass
        ``False`` for plain linear-scan placement queries.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; when given (and
        enabled), a :class:`~repro.obs.trace.TracingListener` is fanned
        in as a kernel listener so every kernel event lands in the ring
        buffer.  A tracer that is *disabled at construction* is not
        attached at all — tracing off costs nothing (the contract
        ``benchmarks/bench_obs.py`` freezes).
    listeners:
        Extra :class:`~repro.core.kernel.KernelListener` objects to fan
        kernel events out to.  They are not checkpointed — re-attach
        after a restore via :meth:`attach_listener`.
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
        self._metrics = metrics
        self.record = record
        self.tracer = tracer
        self.invariants = invariants
        extra: List[KernelListener] = [] if metrics is None else [metrics]
        extra.extend(listeners)
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
            record_events=record_profile,
            indexed=indexed,
            listener=extra,
        )

    # ------------------------------------------------------------------ #
    # State (the kernel owns it; these are read-throughs)
    # ------------------------------------------------------------------ #
    @property
    def kernel(self) -> PlacementKernel:
        """The kernel this engine drives; it owns the run's totals."""
        return self._kernel

    @property
    def metrics(self) -> Optional[EngineMetrics]:
        return self._metrics

    @metrics.setter
    def metrics(self, metrics: Optional[EngineMetrics]) -> None:
        if metrics is self._metrics:
            return
        if self._metrics is not None:
            self._kernel.remove_listener(self._metrics)
        self._metrics = metrics
        if metrics is not None:
            self._kernel.add_listener(metrics)

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
        return self._kernel.cost_so_far

    @property
    def indexed(self) -> bool:
        """Whether the kernel maintains its O(log n) open-bin index."""
        return self._kernel.indexed

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def attach_listener(self, listener: KernelListener) -> None:
        """Fan kernel events out to one more listener, mid-run.

        Listeners (they may hold sockets or file handles) are not
        checkpointed; call this again after a restore.
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
    # Driving API (delegates to the kernel)
    # ------------------------------------------------------------------ #
    def feed(self, item: Item) -> Bin:
        """Release one item to the algorithm; returns the bin it chose.

        Processes all scheduled departures up to the item's arrival
        first — the kernel's semantics, shared with the batch simulator.
        """
        return self._kernel.release(item)

    def feed_store(
        self, store: ItemStore, start: int = 0, stop: Optional[int] = None
    ) -> int:
        """Feed rows ``[start, stop)`` of an :class:`ItemStore` in order.

        Returns the number of rows fed; the range must lie inside the
        store's window (:meth:`ItemStore.slice`'s check).  This is the
        kernel's :meth:`~repro.core.kernel.PlacementKernel.release_store`
        loop, the one ``simulate()`` runs, metered or not: the engine
        does no per-row work at all.
        """
        return self._kernel.release_store(store, start, stop)

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
        :func:`repro.engine.stream.open_trace`.
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
        kernel = self._kernel
        return EngineSummary(
            algorithm=getattr(
                kernel.algorithm, "name", type(kernel.algorithm).__name__
            ),
            capacity=kernel.capacity,
            items=kernel.arrivals,
            cost=kernel.cost_so_far,
            bins_opened=kernel.bins_opened,
            bins_closed=kernel.bins_closed,
            max_open=kernel.max_open,
            peak_load=kernel.peak_load,
            util_area=kernel.util_area,
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
            f"open={kernel.open_bin_count}, cost={kernel.cost_so_far:.6g})"
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
