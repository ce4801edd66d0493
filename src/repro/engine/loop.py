"""The streaming packing engine.

:class:`Engine` is a :class:`~repro.core.kernel.PlacementKernel` — the
kernel the batch ``simulate()`` runs — that merges an arrival stream
(pulled lazily from any :data:`~repro.engine.stream.ItemSource`) with
its departure heap and drives an **unmodified**
:class:`~repro.algorithms.base.OnlineAlgorithm`, handing itself to
``place()`` as its ``sim``.  Event semantics and every running total are
the kernel's own, so batch and stream agree bit for bit *by
construction* (``repro.engine.parity`` guards it).  What the subclass
adds:

- **Listener assembly.**  The packing-metrics registry
  (:class:`~repro.engine.metrics.EngineMetrics`), a tracer, an
  invariant monitor and any other
  :class:`~repro.core.kernel.KernelListener` become the kernel's
  listener at construction; the engine reads no clock.
- **A streaming ending.**  :meth:`Engine.run` drains a whole source and
  :meth:`Engine.finish` returns an :class:`EngineSummary`, not a
  :class:`~repro.core.result.PackingResult`: by default nothing
  proportional to the trace is kept (``record=True`` keeps the history
  the kernel's ``result()`` needs).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import List, Optional

from ..algorithms.base import algorithm_name
from ..core.instance import Instance
from ..core.kernel import KernelListener, PlacementKernel
from ..core.store import ItemStore
from ..obs.trace import Tracer, TracingListener
from .metrics import EngineMetrics
from .stream import ItemSource

__all__ = ["Engine", "EngineSummary"]


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
        return asdict(self)


class Engine(PlacementKernel):
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
        as a kernel listener (it binds to the kernel's packing log).
        Assigning one later (``engine.metrics = ...``) attaches it from
        the next event on and detaches the one it replaces, folded.
    record:
        Keep full history (items, bin records, assignment) so
        :meth:`~repro.core.kernel.PlacementKernel.result` works.  Off by
        default — on, memory grows with the trace exactly like the batch
        path.
    record_profile:
        Keep the kernel's ``(time, ±1)`` open-count deltas in
        ``open_count_events`` so
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
        them after a restore with ``add_listener``.
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
        self.invariants = invariants
        extra: List[KernelListener] = [] if metrics is None else [metrics]
        extra.extend(listeners)
        if tracer is not None and tracer.enabled:
            extra.append(TracingListener(tracer))
        if invariants is not None:
            if getattr(invariants, "tracer", None) is None:
                invariants.tracer = tracer
            extra.append(invariants)
        super().__init__(
            algorithm,
            capacity=capacity,
            record=record,
            record_events=record_profile,
            indexed=indexed,
            listener=extra,
        )

    @property
    def metrics(self) -> Optional[EngineMetrics]:
        return self._metrics

    @metrics.setter
    def metrics(self, metrics: Optional[EngineMetrics]) -> None:
        if metrics is self._metrics:
            return
        if self._metrics is not None:
            self.remove_listener(self._metrics)
        self._metrics = metrics
        if metrics is not None:
            self.add_listener(metrics)

    #: the streaming names of the kernel's two arrival doors
    feed = PlacementKernel.release
    feed_store = PlacementKernel.release_store

    def run(self, source: ItemSource) -> EngineSummary:
        """Drain an entire source, then :meth:`finish`.

        ``source`` may be an iterable of :class:`Item` objects (each one
        released on its own), an :class:`~repro.core.instance.Instance`
        or :class:`~repro.core.store.ItemStore` (driven columnwise, no
        boxed iteration), or an iterable of :class:`ItemStore` chunks as
        produced by :func:`repro.engine.stream.open_trace`.
        """
        if isinstance(source, Instance):
            source = source.store
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
        self.drain()
        if self.invariants is not None:
            self.invariants.finalize()
        return self.summary()

    def summary(self) -> EngineSummary:
        return EngineSummary(
            algorithm=algorithm_name(self.algorithm),
            capacity=self.capacity,
            items=self.arrivals,
            cost=self.cost_so_far,
            bins_opened=self.bins_opened,
            bins_closed=self.bins_closed,
            max_open=self.max_open,
            peak_load=self.peak_load,
            util_area=self.util_area,
            final_time=self.time if math.isfinite(self.time) else None,
        )
