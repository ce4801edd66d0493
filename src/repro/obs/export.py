"""Exporters for the observability layer: sinks and human summaries.

Sinks are deliberately decoupled from metric objects: a metrics registry
holds only data (so its state travels inside checkpoints), while sinks —
which may own file handles — are handed snapshots at emission time.
Anything with an ``emit(snapshot: dict)`` method is a sink; the engine's
``EngineMetrics.flush`` and the CLI both speak this protocol.

Three export shapes:

- **in-memory** (:class:`MemorySink`) — collect snapshots in a list, for
  tests and embedded use;
- **files** (:class:`JSONSink`, :class:`JSONLSink`) — the JSONL sink
  follows the same append-one-object-per-line convention as the engine's
  trace streams (:mod:`repro.engine.stream`);
- **human-readable** (:func:`render_summary`, :func:`summarize_trace`) —
  terminal summaries of a metrics snapshot or of a JSONL trace file
  written by :meth:`repro.obs.trace.Tracer.write_jsonl` (this is what
  ``repro-dbp obs summarize`` prints).
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Callable, List, Optional, Protocol, Union

__all__ = [
    "MetricsSink",
    "ConsoleSink",
    "JSONSink",
    "JSONLSink",
    "CallbackSink",
    "MemorySink",
    "render_summary",
    "render_prometheus",
    "summarize_trace",
]


class MetricsSink(Protocol):
    """Anything that accepts metric snapshots."""

    def emit(self, snapshot: dict) -> None: ...


class ConsoleSink:
    """Pretty-print the snapshot to a stream (stderr by default)."""

    def __init__(self, stream=None) -> None:
        self.stream = stream

    def emit(self, snapshot: dict) -> None:
        stream = self.stream if self.stream is not None else sys.stderr
        json.dump(snapshot, stream, indent=2, sort_keys=True)
        stream.write("\n")


class JSONSink:
    """Write the latest snapshot to ``path`` (overwriting)."""

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path)

    def emit(self, snapshot: dict) -> None:
        self.path.write_text(json.dumps(snapshot, indent=2, sort_keys=True))


class JSONLSink:
    """Append one snapshot per line — for periodic mid-stream flushes."""

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path)

    def emit(self, snapshot: dict) -> None:
        with self.path.open("a") as fh:
            fh.write(json.dumps(snapshot, sort_keys=True) + "\n")


class CallbackSink:
    """Adapt a plain callable into a sink."""

    def __init__(self, fn: Callable[[dict], None]) -> None:
        self.fn = fn

    def emit(self, snapshot: dict) -> None:
        self.fn(snapshot)


class MemorySink:
    """Collect every emitted snapshot in :attr:`snapshots` (newest last)."""

    def __init__(self) -> None:
        self.snapshots: List[dict] = []

    def emit(self, snapshot: dict) -> None:
        self.snapshots.append(snapshot)

    @property
    def last(self) -> dict:
        if not self.snapshots:
            raise LookupError("no snapshot has been emitted yet")
        return self.snapshots[-1]


# ---------------------------------------------------------------------- #
# Human-readable rendering
# ---------------------------------------------------------------------- #
def _table(headers, rows) -> List[str]:
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[k]) for r in cells)) if cells else len(h)
        for k, h in enumerate(headers)
    ]
    out = ["  ".join(h.ljust(widths[k]) for k, h in enumerate(headers))]
    out.append("  ".join("-" * w for w in widths))
    for r in cells:
        out.append("  ".join(r[k].rjust(widths[k]) for k in range(len(r))))
    return out


def render_summary(snapshot: dict) -> str:
    """A terminal-friendly summary of a metrics snapshot dict."""
    lines: List[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        for name, value in counters.items():
            lines.append(f"  {name:24s} {value:>12,}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        for name, g in gauges.items():
            lines.append(
                f"  {name:24s} {g.get('value', 0):>12g}   "
                f"(min {g.get('min')}, max {g.get('max')})"
            )
    for section in ("histograms", "timings"):
        entries = snapshot.get(section, {})
        if not entries:
            continue
        lines.append(f"{section}:")
        for name, h in entries.items():
            if "buckets" in h:
                lines.append(
                    f"  {name} (n={h['total']}, mean={h['mean']:g}):"
                )
                for label, count in h["buckets"].items():
                    bar = "#" * min(40, count)
                    lines.append(f"    {label:>14s} {count:>10,} {bar}")
            else:
                lines.append(
                    f"  {name:24s} n={h.get('count', 0):<9,} "
                    f"mean={h.get('mean_us', 0.0):.1f}us "
                    f"max={h.get('max_us', 0.0):.1f}us"
                )
    return "\n".join(lines)


def _prom_name(prefix: str, name: str) -> str:
    out = f"{prefix}_{name}" if prefix else name
    return "".join(
        c if c.isalnum() or c in "_:" else "_" for c in out
    )


def _escape_label_value(value) -> str:
    """Escape a label value per the Prometheus exposition format.

    Backslash, double-quote and newline are the three characters the
    text format requires escaping inside quoted label values; anything
    else passes through verbatim.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{k}="{_escape_label_value(v)}"' for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def _bucket_upper(label: str) -> str:
    """The ``le`` value encoded in a snapshot bucket label.

    Bucket labels come from :meth:`Histogram.to_dict` — ``"<= e"``,
    ``"(a, b]"``, or ``"> last"`` (the overflow bucket, which maps to
    ``+Inf``).
    """
    label = label.strip()
    if label.startswith("<="):
        return label[2:].strip()
    if label.startswith(">"):
        return "+Inf"
    # "(a, b]" — the upper edge is after the comma
    return label.rstrip("]").split(",")[-1].strip()


def render_prometheus(snapshot: dict, *, prefix="repro", labels=None) -> str:
    """Render a metrics snapshot in Prometheus text exposition format.

    Accepts the same snapshot shape every registry in the repo emits —
    ``counters`` (name → int), ``gauges`` (name → ``Gauge.to_dict()``),
    ``histograms``/``timings`` (name → ``Histogram.to_dict()`` /
    ``Timing.to_dict()``) — and maps them onto the conventional series:
    counters get a ``_total`` suffix, histograms become cumulative
    ``_bucket{le=...}`` series plus ``_sum``/``_count``, timings become
    ``_seconds_sum``/``_seconds_count``.  ``labels`` (e.g.
    ``{"shard": 0}``) are stamped on every series, which is how
    per-shard snapshots compose into one scrape page.
    """
    tag = _prom_labels(labels)
    lines: List[str] = []
    for name, value in snapshot.get("counters", {}).items():
        metric = _prom_name(prefix, name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}{tag} {value}")
    for name, g in snapshot.get("gauges", {}).items():
        metric = _prom_name(prefix, name)
        value = g.get("value", g) if isinstance(g, dict) else g
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric}{tag} {value}")
    for name, h in snapshot.get("histograms", {}).items():
        metric = _prom_name(prefix, name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for label, count in h.get("buckets", {}).items():
            cumulative += count
            le = _bucket_upper(label)
            if tag:
                bucket_tag = tag[:-1] + f',le="{le}"}}'
            else:
                bucket_tag = f'{{le="{le}"}}'
            lines.append(f"{metric}_bucket{bucket_tag} {cumulative}")
        total = h.get("total", 0)
        mean = h.get("mean", 0.0)
        lines.append(f"{metric}_sum{tag} {mean * total}")
        lines.append(f"{metric}_count{tag} {total}")
    for name, t in snapshot.get("timings", {}).items():
        metric = _prom_name(prefix, name) + "_seconds"
        lines.append(f"# TYPE {metric} summary")
        lines.append(f"{metric}_sum{tag} {t.get('total_s', 0.0)}")
        lines.append(f"{metric}_count{tag} {t.get('count', 0)}")
    return "\n".join(lines) + "\n" if lines else ""


def summarize_trace(
    path: Union[str, pathlib.Path], *, top: Optional[int] = None
) -> str:
    """Aggregate a JSONL trace file into a terminal summary.

    Works on anything :meth:`repro.obs.trace.Tracer.write_jsonl` wrote:
    groups records by event name, counting occurrences and (for spans)
    total/mean/max duration, and reports the covered wall-time window.
    ``top`` bounds the per-name table to the N heaviest rows (service
    traces can carry thousands of names; the default is unbounded).

    Raises ``ValueError`` on an empty or mid-file-corrupted trace and
    ``OSError`` on a missing one — a trace with nothing in it means the
    run was configured wrong (tracer never attached), and silently
    summarizing it as fine would mask that.  A truncated **final** line
    is different: that is the normal artifact of a process killed
    mid-write (chaos crashes, SIGKILL during flush), so it produces a
    one-line warning in the summary instead of an error.
    """
    path = pathlib.Path(path)
    per_name: dict = {}
    t_lo, t_hi, total = None, None, 0
    truncated = None  #: pending (lineno, error) — fatal unless file-final
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if truncated is not None:
                # the bad line was NOT the last one — that is mid-file
                # corruption, not a crash artifact, and stays fatal
                bad_lineno, exc = truncated
                raise ValueError(
                    f"{path}:{bad_lineno}: not a JSONL trace line: {exc}"
                ) from exc
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                truncated = (lineno, exc)
                continue
            total += 1
            name = rec.get("name", "?")
            t_ns = rec.get("t_ns", 0)
            dur = rec.get("dur_ns", 0)
            t_lo = t_ns if t_lo is None else min(t_lo, t_ns)
            t_hi = max(t_hi if t_hi is not None else 0, t_ns + dur)
            agg = per_name.setdefault(
                name, {"count": 0, "dur_ns": 0, "max_ns": 0, "kind": rec.get("kind")}
            )
            agg["count"] += 1
            agg["dur_ns"] += dur
            agg["max_ns"] = max(agg["max_ns"], dur)
    if not total:
        raise ValueError(
            f"{path}: empty trace (no events; was the tracer attached "
            "and the file written with --trace?)"
        )
    if top is not None and top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    span_ms = (t_hi - t_lo) / 1e6
    lines = [
        f"{path}: {total:,} events over {span_ms:.2f} ms",
    ]
    if truncated is not None:
        lines.append(
            f"warning: final line {truncated[0]} is truncated "
            "(crashed mid-write?) — ignored"
        )
    lines.append("")
    ranked = sorted(
        per_name.items(), key=lambda kv: (-kv[1]["dur_ns"], kv[0])
    )
    omitted = 0
    if top is not None and len(ranked) > top:
        omitted = len(ranked) - top
        ranked = ranked[:top]
    rows = []
    for name, agg in ranked:
        mean_us = agg["dur_ns"] / agg["count"] / 1e3
        rows.append(
            [
                name,
                agg["kind"] or "event",
                f"{agg['count']:,}",
                f"{agg['dur_ns'] / 1e6:.3f}",
                f"{mean_us:.2f}",
                f"{agg['max_ns'] / 1e3:.2f}",
            ]
        )
    lines += _table(
        ["name", "kind", "count", "total ms", "mean us", "max us"], rows
    )
    if omitted:
        lines.append(f"(+{omitted} more name(s) — raise --top to see them)")
    return "\n".join(lines)
