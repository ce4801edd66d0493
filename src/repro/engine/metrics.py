"""Observability for the streaming engine: counters, histograms, timings.

Since the unified observability layer landed, the primitives (Counter /
Gauge / Histogram / Timing) and the sinks live in :mod:`repro.obs` and
are re-exported here unchanged — every name this module has always
exported keeps working.  What remains engine-specific is
:class:`EngineMetrics`: the registry of per-event metrics the streaming
:class:`~repro.engine.loop.Engine` updates, which adds the wall-clock
quantities (placement/departure latency) the frontend-independent
:class:`~repro.obs.metrics.MetricsListener` deliberately excludes.

Everything here is dependency-free and bounded-memory: histograms have
fixed bucket edges, timings keep aggregates (count/total/min/max), and no
per-event history is retained, so the metrics layer never breaks the
engine's constant-memory contract.

Sinks are deliberately decoupled from the registry: an
:class:`EngineMetrics` holds only data (its primitives' states travel
inside checkpoints), while sinks — which may own file handles — are passed to
:meth:`EngineMetrics.flush` at emission time.  Anything with an
``emit(snapshot: dict)`` method is a sink.

Snapshot layout contract: ``counters`` and ``histograms`` contain only
**deterministic** quantities (identical across reruns, across frontends,
and across ``--no-index``); everything wall-clock lives under
``timings`` (including the ``placement_latency`` histogram).  The
``--no-index`` CLI regression test relies on this split.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

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
    LATENCY_EDGES,
    LIFETIME_EDGES,
    OCCUPANCY_EDGES,
    RESIDUAL_EDGES,
    UTILIZATION_EDGES,
    Counter,
    Gauge,
    Histogram,
    Timing,
    merge_metrics,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timing",
    "EngineMetrics",
    "merge_metrics",
    "MetricsSink",
    "ConsoleSink",
    "JSONSink",
    "JSONLSink",
    "CallbackSink",
    "MemorySink",
]

class EngineMetrics:
    """Counters, histograms and timings an engine updates per event."""

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
        self.placement_latency = Histogram(LATENCY_EDGES)
        self.arrival_latency = Timing()
        self.departure_latency = Timing()

    # -- engine hooks --------------------------------------------------- #
    def on_arrival(
        self,
        latency_s: float,
        *,
        opened: bool,
        residual: Optional[float] = None,
        open_bins: Optional[int] = None,
    ) -> None:
        self.events.inc()
        self.arrivals.inc()
        if opened:
            self.bins_opened.inc()
        self.arrival_latency.observe(latency_s)
        self.placement_latency.observe(latency_s)
        if residual is not None:
            self.residual_at_placement.observe(residual)
        if open_bins is not None:
            self.bins_open.observe(open_bins)

    def on_departure(self, latency_s: float) -> None:
        self.events.inc()
        self.departures.inc()
        self.departure_latency.observe(latency_s)

    def on_bin_close(
        self, *, n_items: int, peak_load: float, capacity: float, usage: float
    ) -> None:
        self.bins_closed.inc()
        self.bin_occupancy.observe(n_items)
        self.bin_utilization.observe(peak_load / capacity if capacity else 0.0)
        self.bin_lifetime.observe(usage)

    def on_checkpoint(self) -> None:
        self.checkpoints.inc()

    # -- merge (per-shard aggregation) ---------------------------------- #
    def merge(self, other: "EngineMetrics") -> None:
        """Fold another registry's totals into this one, field by field.

        Exact for counters and histograms; timings combine count/total
        and keep the global min/max.  This is what
        :func:`repro.parallel.replay_sharded` uses to aggregate
        per-shard metrics into one fleet-wide registry.
        """
        for name, metric in vars(self).items():
            metric.merge(getattr(other, name))

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
            "timings": {
                "arrival_latency": self.arrival_latency.to_dict(),
                "departure_latency": self.departure_latency.to_dict(),
                "placement_latency": self.placement_latency.to_dict(),
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

