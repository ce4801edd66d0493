"""repro.obs — the unified observability layer.

One subsystem answering "what is this run doing and where does the time
go", shared by every frontend:

- :mod:`repro.obs.trace` — span/event **tracing** with a bounded ring
  buffer and a :class:`~repro.obs.trace.TracingListener` narrating every
  kernel event (``repro-dbp replay --trace out.jsonl``);
- :mod:`repro.obs.metrics` — **counters, gauges, histograms, timings**:
  the primitives behind the packing-metrics registry
  :class:`~repro.engine.metrics.EngineMetrics` (fed from the kernel's
  packing log: batch and streaming runs of a trace snapshot identically)
  and the serve layer's RED metrics;
- :mod:`repro.obs.prof` — the **profiling plane**: a CPU-time
  statistical stack sampler (``--sample-hz``), flamegraph/speedscope
  exporters (``repro-dbp obs flame``), and trace critical-path
  analytics (``repro-dbp obs critical-path``);
- :mod:`repro.obs.export` — the JSON metrics sink, the Prometheus text
  rendering and trace summaries (``repro-dbp obs summarize``);
- :mod:`repro.obs.invariants` — online **theory-invariant monitors**
  (capacity, cost identity, ``span ≤ cost``, Table-1 ratio bounds)
  emitting structured ``invariant.violation`` events;
- :mod:`repro.obs.ledger` — the **run ledger** (one JSON provenance
  record per run in ``.ledger/``) and the regression sentinel behind
  ``repro-dbp obs diff`` / ``obs regress``.

Quickstart::

    from repro import FirstFit
    from repro.engine import Engine
    from repro.obs import Tracer

    tracer = Tracer(capacity=1 << 16)
    engine = Engine(FirstFit(), tracer=tracer)
    ...
    tracer.write_jsonl("run.jsonl")
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".export": (
        "MetricsSink", "JSONSink", "render_prometheus", "summarize_trace",
    ),
    ".invariants": (
        "InvariantMonitor", "InvariantViolationError", "Violation",
        "RATIO_BOUNDS", "ratio_bound_for",
    ),
    ".ledger": (
        "LEDGER_ENV", "DEFAULT_LEDGER_DIR", "DEFAULT_TOLERANCES", "RunRecord",
        "LedgerSink", "RegressReport", "Drift", "resolve_ledger_dir",
        "git_sha", "config_hash", "read_record", "read_ledger",
        "read_baseline", "flatten_metrics", "diff_records", "regress",
        "render_drifts", "parse_tolerances",
    ),
    ".metrics": (
        "Counter", "Gauge", "Histogram", "Timing", "OCCUPANCY_EDGES",
        "UTILIZATION_EDGES", "LIFETIME_EDGES", "LATENCY_EDGES",
        "RESIDUAL_EDGES", "BINS_OPEN_EDGES",
    ),
    ".prof": (
        "StackSampler", "Profile", "CriticalReport", "analyze_trace",
        "render_top", "to_collapsed", "to_speedscope",
    ),
    ".trace": (
        "DEFAULT_CAPACITY", "Tracer", "TraceEvent", "TracingListener",
        "read_trace",
    ),
})
