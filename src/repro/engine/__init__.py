"""repro.engine — the streaming, event-driven packing engine.

Where :func:`repro.core.simulation.simulate` needs the whole instance in
memory and keeps full history, this subsystem replays traces of any
length through the shared :class:`~repro.core.kernel.PlacementKernel`
with **kernel-owned running totals** (cost, ``max_open``, load and its
integral queryable mid-stream in O(1)), **constant memory** (peak RSS
independent of trace length), **checkpoint/restore**, and an
**observability layer**.  Batch and
stream run the *same* kernel, so they agree bit-for-bit by construction
(:mod:`repro.engine.parity` keeps the regression guard).

Quickstart::

    from repro import FirstFit
    from repro.engine import Engine, open_trace

    engine = Engine(FirstFit())
    summary = engine.run(open_trace("trace.jsonl"))
    print(summary.cost, summary.max_open)

or from the shell::

    repro-dbp replay trace.jsonl --algo HybridAlgorithm --metrics m.json

Arrivals reach the kernel through one per-item path,
:meth:`Engine.feed`, and one columnar path, :meth:`Engine.feed_store`;
:func:`open_trace` reads a JSONL or CSV trace as bounded columnar
chunks for the latter.
"""

from .checkpoint import (
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    restore,
    save_checkpoint,
    snapshot,
)
from .events import ArrivalEvent, CheckpointEvent, DepartureEvent, Event, EventKind
from .loop import Engine, EngineSummary, replay
from .metrics import (
    CallbackSink,
    ConsoleSink,
    Counter,
    EngineMetrics,
    Gauge,
    Histogram,
    JSONLSink,
    JSONSink,
    MemorySink,
    MetricsSink,
    Timing,
    merge_metrics,
)
from .parity import ParityReport, check_parity, default_parity_cells, parity_suite
from .stream import (
    ItemSource,
    iter_tuples,
    merge,
    open_trace,
    ordered,
    trace_format,
)

__all__ = [
    "Engine",
    "EngineSummary",
    "replay",
    "Event",
    "EventKind",
    "ArrivalEvent",
    "DepartureEvent",
    "CheckpointEvent",
    "Checkpoint",
    "CheckpointError",
    "snapshot",
    "restore",
    "save_checkpoint",
    "load_checkpoint",
    "EngineMetrics",
    "merge_metrics",
    "MetricsSink",
    "Counter",
    "Gauge",
    "Histogram",
    "Timing",
    "ConsoleSink",
    "JSONSink",
    "JSONLSink",
    "CallbackSink",
    "MemorySink",
    "ParityReport",
    "check_parity",
    "parity_suite",
    "default_parity_cells",
    "ItemSource",
    "iter_tuples",
    "ordered",
    "merge",
    "open_trace",
    "trace_format",
]
