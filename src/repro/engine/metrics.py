"""The packing-metrics registry: one kernel listener, data only.

:class:`EngineMetrics` records the MinUsageTime quantities of a run —
bin lifetime, items per bin, peak load, residual at placement and the
open-bin count — as counters and fixed-edge histograms, straight off the
kernel's listener hooks.  Every value is a pure function of the event
sequence (no clock is read), so the batch ``simulate(listener=...)``, a
streaming :class:`~repro.engine.loop.Engine` fed item by item and one
fed columnwise produce identical snapshots of the same trace, across
reruns and across ``--no-index``.  Per-request wall time belongs to the
serve layer (``latency_us``, ``request_latency``).

The primitives (Counter / Gauge / Histogram / Timing) and the sinks live
in :mod:`repro.obs` and are re-exported here unchanged.

Everything here is bounded-memory and data only: histograms have fixed
bucket edges, no per-event history is kept, and the registry holds no
kernel reference, so it pickles across process pools and its
primitives' slots travel inside checkpoints.  Sinks, which may own file
handles, are passed to :meth:`EngineMetrics.flush` at emission time;
anything with an ``emit(snapshot: dict)`` method is a sink.
"""

from __future__ import annotations

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


class EngineMetrics(KernelListener):
    """Counters and histograms a kernel updates per event.

    Attach it as a kernel listener: ``Engine(metrics=...)``,
    ``engine.metrics = ...`` mid-run, or ``simulate(listener=...)``.
    On attach the kernel calls :meth:`bind`, which reads its open-bin
    count, so a registry attached after some arrivals still sees the
    true ``bins_open``.
    """

    def __init__(self) -> None:
        self.events = Counter()
        self.arrivals = Counter()
        self.departures = Counter()
        self.bins_opened = Counter()
        self.bins_closed = Counter()
        self.checkpoints = Counter()
        self.bin_occupancy = Histogram(OCCUPANCY_EDGES)
        self.bin_utilization = Histogram(UTILIZATION_EDGES)
        self.bin_lifetime = Histogram(LIFETIME_EDGES)
        self.residual_at_placement = Histogram(RESIDUAL_EDGES)
        self.bins_open = Histogram(BINS_OPEN_EDGES)
        self._open = 0  # the kernel's open-bin count, not a metric

    def primitives(self) -> dict:
        """The metric primitives by name: what merges and checkpoints."""
        return {k: v for k, v in vars(self).items() if k != "_open"}

    # -- kernel hooks --------------------------------------------------- #
    def bind(self, kernel) -> None:
        self._open = kernel.open_bin_count

    def on_open(self, bin_) -> None:
        self._open += 1

    def on_arrival(self, item, bin_, opened: bool) -> None:
        self.events.value += 1
        self.arrivals.value += 1
        if opened:
            self.bins_opened.value += 1
        cap = bin_.capacity
        self.residual_at_placement.observe(bin_.residual() / cap if cap else 0.0)
        self.bins_open.observe(self._open)

    def on_departure(self, uid, removed, bin_, t, closed) -> None:
        self.events.value += 1
        self.departures.value += 1

    def on_close(self, bin_, t, usage, peak, n_items) -> None:
        self._open -= 1
        self.bins_closed.value += 1
        cap = bin_.capacity
        self.bin_occupancy.observe(n_items)
        self.bin_utilization.observe(peak / cap if cap else 0.0)
        self.bin_lifetime.observe(usage)

    def on_checkpoint(self) -> None:
        self.checkpoints.inc()

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
        snap = {
            "counters": {
                "events": self.events.value,
                "arrivals": self.arrivals.value,
                "departures": self.departures.value,
                "bins_opened": self.bins_opened.value,
                "bins_closed": self.bins_closed.value,
                "checkpoints": self.checkpoints.value,
            },
            "histograms": {
                "bin_occupancy": self.bin_occupancy.to_dict(),
                "bin_utilization": self.bin_utilization.to_dict(),
                "bin_lifetime": self.bin_lifetime.to_dict(),
                "residual_at_placement": self.residual_at_placement.to_dict(),
                "bins_open": self.bins_open.to_dict(),
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
