"""Continuous profiling plane: sampling, flamegraphs, critical paths.

Three pure-stdlib modules:

- :mod:`repro.obs.prof.sampler` — :class:`StackSampler`, a CPU-time
  statistical profiler of the main thread on ``ITIMER_PROF`` (default
  97 Hz) producing immutable :class:`Profile` aggregates with
  drop-free bounded memory;
- :mod:`repro.obs.prof.flame` — exporters to collapsed-stack text,
  speedscope JSON, and a terminal top-functions table;
- :mod:`repro.obs.prof.critical` — span-tree reconstruction and
  critical-path/phase attribution over Tracer JSONL files, including
  the serve telemetry request spans.

CLI frontends: ``repro-dbp run/replay/serve --sample-hz``,
``repro-dbp obs flame`` and ``repro-dbp obs critical-path``.  The
overhead contract (sampling on vs off on the 1e5-item replay path) is
frozen by ``benchmarks/bench_profiler.py`` and gated in CI.
"""

from ..._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".critical": (
        "CriticalReport", "PhaseSlice", "RequestPath", "SpanNode",
        "analyze_events", "analyze_trace",
    ),
    ".flame": (
        "SPEEDSCOPE_SCHEMA", "frame_label", "render_top", "to_collapsed",
        "to_speedscope", "top_functions", "write_speedscope",
    ),
    ".sampler": (
        "DEFAULT_HZ", "DEFAULT_MAX_STACKS", "Frame", "Profile", "Stack",
        "StackSampler", "merge_profiles",
    ),
})
