"""The packing-metrics registry: fed from the kernel's packing log.

:class:`EngineMetrics` records the MinUsageTime quantities of a run —
bin lifetime, items per bin, peak load, residual at placement and the
open-bin count — as counters and fixed-edge histograms.  It has no
per-event callbacks.  On attach it hands the kernel two bounded buffers
(:meth:`~repro.core.kernel.PlacementKernel.log_packing`); the kernel
appends two values per arrival and three per close, and the registry
folds them into its histograms in event order when a buffer fills and
before every read.  The counters are deltas of the kernel's own totals.
Every value is a pure function of the event sequence (no clock is
read), so the batch ``simulate(listener=...)``, a streaming
:class:`~repro.engine.loop.Engine` fed item by item and one fed
columnwise produce identical snapshots of the same trace, across reruns
and across ``--no-index``.  Per-request wall time belongs to the serve
layer (``latency_us``, ``request_latency``).

The primitives (Counter / Gauge / Histogram / Timing) and the sinks live
in :mod:`repro.obs` and are re-exported here unchanged.

Everything here is bounded-memory and data only: histograms have fixed
bucket edges and the buffers a fixed bound.  A pickled registry is
folded first and travels without its kernel or buffers (so it crosses
process pools), and checkpoints carry only its primitives' slots.
Sinks, which may own file handles, are passed to
:meth:`EngineMetrics.flush` at emission time; anything with an
``emit(snapshot: dict)`` method is a sink.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Optional, Union

from ..core.kernel import KernelListener
from ..obs.export import (
    CallbackSink,
    ConsoleSink,
    JSONLSink,
    JSONSink,
    MemorySink,
    MetricsSink,
)
from ..obs.metrics import (
    BINS_OPEN_EDGES,
    LIFETIME_EDGES,
    OCCUPANCY_EDGES,
    RESIDUAL_EDGES,
    UTILIZATION_EDGES,
    Counter,
    Gauge,
    Histogram,
    Timing,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timing",
    "EngineMetrics",
    "MetricsSink",
    "ConsoleSink",
    "JSONSink",
    "JSONLSink",
    "CallbackSink",
    "MemorySink",
]


#: the registry's primitives, in snapshot order
_COUNTERS = (
    "events", "arrivals", "departures", "bins_opened", "bins_closed",
    "checkpoints",
)
_HISTOGRAMS = {
    "bin_occupancy": OCCUPANCY_EDGES,
    "bin_utilization": UTILIZATION_EDGES,
    "bin_lifetime": LIFETIME_EDGES,
    "residual_at_placement": RESIDUAL_EDGES,
    "bins_open": BINS_OPEN_EDGES,
}


def _totals(kernel) -> tuple:
    return (kernel.arrivals, kernel.departures, kernel.bins_opened,
            kernel.bins_closed)


class _Folded:
    """A registry primitive, read after the registry folds its buffers."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, registry, owner=None):
        if registry is None:
            return self
        registry.fold()
        return registry._primitives[self.name]


class EngineMetrics(KernelListener):
    """Counters and histograms of a kernel's packing log.

    Attach it as a kernel listener: ``Engine(metrics=...)``,
    ``engine.metrics = ...`` mid-run, or ``simulate(listener=...)``.
    On attach the kernel calls :meth:`bind`, and from then on the
    registry counts what the kernel does; one attached after some
    arrivals still sees the true ``bins_open``.  Reading a primitive
    (``metrics.arrivals``), :meth:`primitives`, :meth:`snapshot`,
    :meth:`merge`, detaching and pickling all fold first.
    """

    events = _Folded()
    arrivals = _Folded()
    departures = _Folded()
    bins_opened = _Folded()
    bins_closed = _Folded()
    checkpoints = _Folded()
    bin_occupancy = _Folded()
    bin_utilization = _Folded()
    bin_lifetime = _Folded()
    residual_at_placement = _Folded()
    bins_open = _Folded()

    def __init__(self) -> None:
        self._primitives = {name: Counter() for name in _COUNTERS}
        self._primitives.update(
            (name, Histogram(edges)) for name, edges in _HISTOGRAMS.items()
        )
        self._unbound()

    def _unbound(self) -> None:
        self._kernel = None
        #: the kernel's packing log: (load, open count) per arrival and
        #: (items held, peak load, usage) per close, not yet folded
        self._arrived = array("d")
        self._closed = array("d")
        #: the kernel's (arrivals, departures, bins opened, bins closed)
        #: at the last fold
        self._base = (0, 0, 0, 0)

    def primitives(self) -> dict:
        """The metric primitives by name: what merges and checkpoints."""
        self.fold()
        return dict(self._primitives)

    # -- the kernel's packing log --------------------------------------- #
    def bind(self, kernel) -> None:
        """Start counting ``kernel``'s events (its listener attach hook)."""
        if self._kernel is not None:
            self.unbind(self._kernel)
        self._kernel = kernel
        self._base = _totals(kernel)
        kernel.log_packing(self._arrived, self._closed, self.fold)

    def unbind(self, kernel) -> None:
        """Fold, then stop counting ``kernel``'s events."""
        if kernel is self._kernel:
            self.fold()
            kernel.log_packing(None, None, None)
            self._kernel = None

    def fold(self) -> None:
        """Move the buffered values into the histograms, in event order,
        and the kernel's totals since the last fold into the counters."""
        kernel = self._kernel
        if kernel is None:
            return
        p = self._primitives
        cap = kernel.capacity
        arrived = self._arrived
        if arrived:
            p["residual_at_placement"].observe_all(
                [(cap - load) / cap for load in arrived[0::2]]
            )
            p["bins_open"].observe_all(arrived[1::2])
            del arrived[:]
        closed = self._closed
        if closed:
            p["bin_occupancy"].observe_all(closed[0::3])
            p["bin_utilization"].observe_all(
                [peak / cap for peak in closed[1::3]]
            )
            p["bin_lifetime"].observe_all(closed[2::3])
            del closed[:]
        totals = _totals(kernel)
        arrivals, departures, opened, closed_ = (
            now - then for now, then in zip(totals, self._base)
        )
        self._base = totals
        p["events"].value += arrivals + departures
        p["arrivals"].value += arrivals
        p["departures"].value += departures
        p["bins_opened"].value += opened
        p["bins_closed"].value += closed_

    def on_checkpoint(self) -> None:
        self._primitives["checkpoints"].inc()

    def __getstate__(self) -> dict:
        return {"primitives": self.primitives()}

    def __setstate__(self, state: dict) -> None:
        self._primitives = state["primitives"]
        self._unbound()

    # -- merge (per-shard aggregation) ---------------------------------- #
    def merge(self, other: "EngineMetrics") -> None:
        """Fold another registry's totals into this one, exactly.

        This is how :func:`repro.parallel.replay_sharded` and the
        placement server aggregate per-shard registries.
        """
        theirs = other.primitives()
        for name, metric in self.primitives().items():
            metric.merge(theirs[name])

    # -- export --------------------------------------------------------- #
    def snapshot(self, extra: Optional[dict] = None) -> dict:
        p = self.primitives()
        snap = {
            "counters": {name: p[name].value for name in _COUNTERS},
            "histograms": {
                name: p[name].to_dict() for name in _HISTOGRAMS
            },
        }
        if extra:
            snap.update(extra)
        return snap

    def flush(
        self,
        sinks: Union[MetricsSink, Iterable[MetricsSink]],
        extra: Optional[dict] = None,
    ) -> dict:
        """Emit a snapshot to one or more sinks; returns the snapshot."""
        snap = self.snapshot(extra)
        if hasattr(sinks, "emit"):
            sinks = [sinks]  # type: ignore[list-item]
        for sink in sinks:  # type: ignore[union-attr]
            sink.emit(snap)
        return snap
