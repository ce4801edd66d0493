"""repro.engine — the streaming, event-driven packing engine.

Where :func:`repro.core.simulation.simulate` needs the whole instance in
memory and keeps full history, this subsystem replays traces of any
length through :class:`Engine`, a subclass of the shared
:class:`~repro.core.kernel.PlacementKernel`, with **kernel-owned running
totals** (cost, ``max_open``, load and its integral queryable
mid-stream in O(1)), **constant memory** (peak RSS independent of trace
length), **checkpoint/restore**, and an **observability layer**.  Batch
and stream run the *same* kernel, so they agree bit-for-bit by
construction (:mod:`repro.engine.parity` holds the one differential
oracle; the package does not import it, so ``python -m`` runs it
fresh).

Quickstart::

    from repro import FirstFit
    from repro.engine import Engine, open_trace

    engine = Engine(FirstFit())
    summary = engine.run(open_trace("trace.jsonl"))
    print(summary.cost, summary.max_open)

or from the shell::

    repro-dbp replay trace.jsonl --algo HybridAlgorithm --metrics m.json

Arrivals reach the kernel through one per-item path,
:meth:`Engine.feed` (the kernel's ``release``), and one columnar path,
:meth:`Engine.feed_store` (its ``release_store``); :func:`open_trace`
reads a JSONL or CSV trace as bounded columnar chunks for the latter.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".checkpoint": (
        "Checkpoint", "CheckpointError", "snapshot", "restore",
        "save_checkpoint", "load_checkpoint",
    ),
    ".loop": ("Engine", "EngineSummary"),
    ".metrics": (
        "EngineMetrics", "MetricsSink", "Counter", "Gauge", "Histogram",
        "Timing", "JSONSink",
    ),
    ".stream": ("ItemSource", "open_trace", "trace_format"),
})
