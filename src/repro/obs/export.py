"""Exporters for the observability layer: sinks and human summaries.

Sinks are deliberately decoupled from metric objects: a metrics registry
holds only data (so its state travels inside checkpoints), while sinks —
which may own file handles — are handed snapshots at emission time.
Anything with an ``emit(snapshot: dict)`` method is a
:class:`MetricsSink`; the engine's ``EngineMetrics.flush`` and the CLI
both speak this protocol.

Three export shapes:

- **files** (:class:`JSONSink`, and the run ledger's
  :class:`~repro.obs.ledger.LedgerSink`);
- **scrapes** (:func:`render_prometheus`) — a snapshot in Prometheus
  text exposition format;
- **human-readable** (:func:`summarize_trace`) — a terminal summary of a
  JSONL trace file written by :meth:`repro.obs.trace.Tracer.write_jsonl`
  (this is what ``repro-dbp obs summarize`` prints).
"""

from __future__ import annotations

import json
import pathlib
from typing import List, Optional, Protocol, Union

__all__ = [
    "MetricsSink",
    "JSONSink",
    "render_prometheus",
    "summarize_trace",
]


class MetricsSink(Protocol):
    """Anything that accepts metric snapshots."""

    def emit(self, snapshot: dict) -> None: ...


class JSONSink:
    """Write the latest snapshot to ``path`` (overwriting)."""

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path)

    def emit(self, snapshot: dict) -> None:
        self.path.write_text(json.dumps(snapshot, indent=2, sort_keys=True))


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
