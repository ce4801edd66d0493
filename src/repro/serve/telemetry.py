"""Request-scoped service telemetry: span trees, RED metrics, admin plane.

The serve stack measures latency from the *outside* (loadgen's
done-callbacks); this module makes the service explain its own tail from
the *inside*.  Three cooperating pieces:

**Tracing** — every request that enters the server gets a trace id
(client-supplied ``trace`` field, else ``client:seq``, else a local
counter) and a :class:`RequestContext` that rides with the request
through the pipeline, collecting timestamps at each hand-off:

.. code-block:: text

    t_recv ──parse──▶ t_parsed ──batch──▶ t_queued ──queue──▶
    t_dequeued ──kernel──▶ t_kernel1 ... t_done ──write──▶ t_written

When the reply bytes have been flushed, :meth:`ServiceTelemetry.finish`
folds the marks into per-shard RED metrics and — for **head-sampled**
requests — records one span tree into the shared bounded
:class:`~repro.obs.trace.Tracer` ring buffer: child spans
(``req.parse``, ``req.batch``, ``req.queue``, ``req.kernel``,
``req.write``) at depth 1 followed by the ``request`` root at depth 0,
the same children-precede-parent convention the tracer's context-manager
spans use, so ``repro-dbp obs summarize`` works on service traces
unchanged.  The sampling decision is ``stable_hash(seed:trace_id)``
against a threshold — a pure function of the trace id, so a chaos
replay under the :class:`~repro.testkit.clock.SimLoop` virtual clock
reproduces the sampled trace byte for byte.

**RED metrics** — each shard owns a :class:`ShardTelemetry`: request
and error counters (per error code), a duration histogram, per-phase
:class:`~repro.obs.metrics.Timing` aggregates, queue-depth/inflight
gauges, a batch-size histogram with flush-cause counters, and fault
counters fed by the chaos seams (``crash``/``stall``).  Everything is
built from :mod:`repro.obs.metrics` primitives, so shard snapshots merge
losslessly and the merged snapshot lands in the server's run-ledger
record under the (never-gated) ``telemetry`` section.

**Admin plane** — the ``{"op": "telemetry"}`` protocol verb returns
:meth:`ServiceTelemetry.snapshot` as JSON; :meth:`render_prometheus`
turns the same snapshot into Prometheus text exposition; and
``repro-dbp serve top`` polls the verb to render a live per-shard
rate/p50/p99/queue-depth view.

Telemetry is **off by default** and the off path is free: the server
holds ``telemetry=None`` and every hook site is a single ``is None``
check (enforced <5% overhead by the ``bench_serve`` telemetry cell).
"""

from __future__ import annotations

import time as _time
from typing import Callable, Dict, List, Optional

from ..obs.export import render_prometheus as _render_prometheus
from ..obs.metrics import (
    LATENCY_EDGES,
    Counter,
    Gauge,
    Histogram,
    Timing,
)
from ..obs.trace import DEFAULT_CAPACITY, Tracer, TracingListener
from .protocol import Request
from .shard import stable_hash

__all__ = [
    "RequestContext",
    "ShardTelemetry",
    "ServiceTelemetry",
    "GatedNarrator",
    "BATCH_SIZE_EDGES",
    "PHASES",
    "render_service_prometheus",
]

#: micro-batch size buckets (pieces per flush)
BATCH_SIZE_EDGES = (1, 2, 4, 8, 16, 32, 64, 128)

#: request-duration buckets: the kernel-latency edges extended up to 1s,
#: so end-to-end times (which include queueing) don't saturate at 10ms
DURATION_EDGES = LATENCY_EDGES + (3e-2, 1e-1, 3e-1, 1.0)

#: the per-request phases, in pipeline order (span names are ``req.<phase>``)
PHASES = ("parse", "batch", "queue", "kernel", "write")

_SCALE = float(1 << 64)  # sampling hash domain


class RequestContext:
    """Per-request telemetry state riding through the pipeline.

    Slots-only and mark-based: each pipeline stage stamps the clock into
    the mark it owns; missing marks (a request refused mid-flight never
    reaches the kernel) simply suppress the corresponding span.
    """

    __slots__ = (
        "trace",
        "sampled",
        "op",
        "shard",
        "status",
        "t_recv",
        "t_parsed",
        "t_enqueued",
        "t_queued",
        "t_dequeued",
        "t_kernel0",
        "t_kernel1",
        "t_done",
    )

    def __init__(
        self, trace: str, sampled: bool, op: str, shard: int, t_recv: float
    ) -> None:
        self.trace = trace
        self.sampled = sampled
        self.op = op
        self.shard = shard
        self.status: Optional[str] = None
        self.t_recv = t_recv
        self.t_parsed: Optional[float] = None
        self.t_enqueued: Optional[float] = None
        self.t_queued: Optional[float] = None
        self.t_dequeued: Optional[float] = None
        self.t_kernel0: Optional[float] = None
        self.t_kernel1: Optional[float] = None
        self.t_done: Optional[float] = None

    def __repr__(self) -> str:
        flag = "sampled" if self.sampled else "unsampled"
        return (
            f"RequestContext({self.trace!r}, {self.op}, shard="
            f"{self.shard}, {flag})"
        )


class ShardTelemetry:
    """RED metrics for one shard, built from mergeable obs primitives."""

    __slots__ = (
        "requests",
        "errors",
        "error_codes",
        "backpressure",
        "faults",
        "duration",
        "batch_size",
        "flush_causes",
        "queue_depth",
        "inflight",
        "phases",
    )

    def __init__(self) -> None:
        self.requests = Counter()
        self.errors = Counter()
        self.error_codes: Dict[str, int] = {}
        #: overloaded/unavailable refusals issued before the queue
        self.backpressure = Counter()
        #: injected faults (chaos crash/stall) observed by this shard
        self.faults = Counter()
        self.duration = Histogram(DURATION_EDGES)
        self.batch_size = Histogram(BATCH_SIZE_EDGES)
        self.flush_causes: Dict[str, int] = {}
        self.queue_depth = Gauge()
        self.inflight = Gauge()
        self.phases: Dict[str, Timing] = {p: Timing() for p in PHASES}

    def count_error(self, code: str) -> None:
        self.errors.inc()
        self.error_codes[code] = self.error_codes.get(code, 0) + 1

    def merge(self, other: "ShardTelemetry") -> None:
        self.requests.merge(other.requests)
        self.errors.merge(other.errors)
        for code, n in other.error_codes.items():
            self.error_codes[code] = self.error_codes.get(code, 0) + n
        self.backpressure.merge(other.backpressure)
        self.faults.merge(other.faults)
        self.duration.merge(other.duration)
        self.batch_size.merge(other.batch_size)
        for cause, n in other.flush_causes.items():
            self.flush_causes[cause] = self.flush_causes.get(cause, 0) + n
        self.queue_depth.merge(other.queue_depth)
        self.inflight.merge(other.inflight)
        for name, timing in other.phases.items():
            self.phases[name].merge(timing)

    def snapshot(self) -> dict:
        """This shard's metrics in the standard snapshot shape."""
        return {
            "counters": {
                "requests": self.requests.value,
                "errors": self.errors.value,
                "backpressure": self.backpressure.value,
                "faults": self.faults.value,
                **{
                    f"errors_{code}": n
                    for code, n in sorted(self.error_codes.items())
                },
                **{
                    f"flush_{cause}": n
                    for cause, n in sorted(self.flush_causes.items())
                },
            },
            "gauges": {
                "queue_depth": self.queue_depth.to_dict(),
                "inflight": self.inflight.to_dict(),
            },
            "histograms": {
                "duration": self.duration.to_dict(),
                "batch_size": self.batch_size.to_dict(),
            },
            "timings": {
                f"phase_{name}": timing.to_dict()
                for name, timing in self.phases.items()
            },
            "quantiles": {
                "p50_s": self.duration.quantile(0.50),
                "p99_s": self.duration.quantile(0.99),
            },
        }


class GatedNarrator(TracingListener):
    """A :class:`TracingListener` that narrates only while switched on.

    The service tracer stays enabled for span recording, so the kernel
    bridge needs its own gate: the shard worker flips :attr:`active`
    around sampled ``apply()`` calls, and every other kernel event costs
    one attribute check.
    """

    def __init__(self, tracer: Tracer) -> None:
        super().__init__(tracer)
        self.active = False

    def on_advance(self, t) -> None:
        if self.active:
            super().on_advance(t)

    def on_open(self, bin_) -> None:
        if self.active:
            super().on_open(bin_)

    def on_arrival(self, item, bin_, opened) -> None:
        if self.active:
            super().on_arrival(item, bin_, opened)

    def on_departure(self, uid, removed, bin_, t, closed) -> None:
        if self.active:
            super().on_departure(uid, removed, bin_, t, closed)

    def on_close(self, bin_, t, usage, peak, n_items) -> None:
        if self.active:
            super().on_close(bin_, t, usage, peak, n_items)


class ServiceTelemetry:
    """The server-wide telemetry plane: one tracer, one RED registry/shard.

    Parameters
    ----------
    n_shards:
        Shard count (one :class:`ShardTelemetry` each).
    clock:
        Monotonic-seconds source shared with the server — the chaos
        harness passes the virtual loop clock so every timestamp (and
        therefore every sampled span) is a pure function of the plan.
    sample:
        Head-sampling rate in ``[0, 1]``: the fraction of trace ids
        whose span trees are recorded.  RED metrics always count every
        request; sampling only bounds tracing volume.
    seed:
        Salt for the sampling hash — different seeds sample different
        (but equally deterministic) subsets.
    capacity:
        Tracer ring-buffer size (oldest spans evicted beyond it).
    trace_path:
        When set, the server's drain writes the retained spans there as
        JSONL (readable by ``repro-dbp obs summarize``).

    The object deliberately lives *outside* the server: the chaos
    harness constructs one and hands it to every server incarnation
    across graceful restarts, so RED counters and the span ring survive
    the crash/restart cycle they are meant to explain.
    """

    def __init__(
        self,
        n_shards: int,
        *,
        clock: Optional[Callable[[], float]] = None,
        sample: float = 1.0,
        seed: int = 0,
        capacity: int = DEFAULT_CAPACITY,
        trace_path=None,
    ) -> None:
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"sample must be in [0, 1], got {sample}")
        self.clock = clock if clock is not None else _time.perf_counter
        self.sample = sample
        self.seed = seed
        self.trace_path = trace_path
        self.tracer = Tracer(
            capacity,
            clock_ns=lambda: int(round(self.clock() * 1e9)),
        )
        self.shards: List[ShardTelemetry] = [
            ShardTelemetry() for _ in range(n_shards)
        ]
        self.parse_errors = Counter()
        self.refusals: Dict[str, int] = {}
        self.started_at = self.clock()
        self._trace_seq = 0
        self._threshold = int(sample * _SCALE)

    # ------------------------------------------------------------------ #
    # Request lifecycle hooks (called by the server)
    # ------------------------------------------------------------------ #
    def trace_id(self, req: Request) -> str:
        """The request's trace id (client-chosen, derived, or assigned)."""
        if req.trace is not None:
            return req.trace
        if req.client is not None and req.seq is not None:
            return f"{req.client}:{req.seq}"
        self._trace_seq += 1
        return f"t{self._trace_seq}"

    def sampled(self, trace: str) -> bool:
        """The deterministic head-sampling decision for ``trace``."""
        if self._threshold <= 0:
            return False
        return stable_hash(f"{self.seed}:{trace}") < self._threshold

    def begin(
        self, req: Request, shard: int, t_recv: float
    ) -> RequestContext:
        """Open a context for a request about to enter the pipeline."""
        trace = self.trace_id(req)
        ctx = RequestContext(
            trace, self.sampled(trace), req.op, shard, t_recv
        )
        ctx.t_parsed = self.clock()
        return ctx

    def refused(self, shard: Optional[int], code: str) -> None:
        """Count a request refused before it reached a shard queue."""
        self.refusals[code] = self.refusals.get(code, 0) + 1
        if shard is not None:
            tel = self.shards[shard]
            tel.count_error(code)
            if code in ("overloaded", "unavailable"):
                tel.backpressure.inc()

    def parse_error(self, code: str) -> None:
        self.parse_errors.inc()
        self.refusals[code] = self.refusals.get(code, 0) + 1

    def batch_flushed(self, shard: int, size: int, cause: str) -> None:
        """Record one micro-batch flush (wired as the batcher observer)."""
        tel = self.shards[shard]
        tel.batch_size.observe(size)
        tel.flush_causes[cause] = tel.flush_causes.get(cause, 0) + 1

    def finish(self, ctx: RequestContext, t_written: float) -> None:
        """Fold a completed request into RED metrics and (maybe) spans."""
        tel = self.shards[ctx.shard]
        tel.requests.inc()
        if ctx.status is not None and ctx.status != "ok":
            tel.count_error(ctx.status)
        tel.duration.observe(t_written - ctx.t_recv)
        marks = self._phase_marks(ctx, t_written)
        phases = tel.phases
        for name, (t0, t1) in marks.items():
            phases[name].observe(t1 - t0)
        if ctx.sampled:
            self._record_spans(ctx, t_written, marks)

    # ------------------------------------------------------------------ #
    # Span emission
    # ------------------------------------------------------------------ #
    def _phase_marks(self, ctx: RequestContext, t_written: float) -> dict:
        """``{phase: (t0, t1)}`` for every phase whose marks are set."""
        pairs = (
            ("parse", ctx.t_recv, ctx.t_parsed),
            ("batch", ctx.t_enqueued, ctx.t_queued),
            ("queue", ctx.t_queued, ctx.t_dequeued),
            ("kernel", ctx.t_kernel0, ctx.t_kernel1),
            ("write", ctx.t_done, t_written),
        )
        return {
            name: (t0, t1)
            for name, t0, t1 in pairs
            if t0 is not None and t1 is not None
        }

    def _ns(self, t: float) -> int:
        return int(round(t * 1e9)) - self.tracer.epoch_ns

    def _record_spans(
        self, ctx: RequestContext, t_written: float, marks: dict
    ) -> None:
        record = self.tracer.record
        for name, (t0, t1) in marks.items():
            record(
                f"req.{name}",
                t_ns=self._ns(t0),
                dur_ns=self._ns(t1) - self._ns(t0),
                depth=1,
                trace=ctx.trace,
            )
        record(
            "request",
            t_ns=self._ns(ctx.t_recv),
            dur_ns=self._ns(t_written) - self._ns(ctx.t_recv),
            depth=0,
            trace=ctx.trace,
            op=ctx.op,
            shard=ctx.shard,
            status=ctx.status or "ok",
        )

    # ------------------------------------------------------------------ #
    # Snapshots / export
    # ------------------------------------------------------------------ #
    def refresh_gauges(self, shards) -> None:
        """Stamp live queue-depth/inflight off the server's shard list."""
        for shard in shards:
            tel = self.shards[shard.shard_id]
            tel.queue_depth.set(shard.queue.qsize())
            tel.inflight.set(shard.inflight)

    def merged(self) -> ShardTelemetry:
        """All shards folded into one registry (lossless merges)."""
        out = ShardTelemetry()
        for tel in self.shards:
            out.merge(tel)
        return out

    def snapshot(self, shards=None) -> dict:
        """The full JSON-friendly telemetry snapshot (the admin verb)."""
        if shards is not None:
            self.refresh_gauges(shards)
        return {
            "uptime_s": self.clock() - self.started_at,
            "sample": self.sample,
            "seed": self.seed,
            "parse_errors": self.parse_errors.value,
            "refusals": dict(sorted(self.refusals.items())),
            "trace": {
                "recorded": self.tracer.total,
                "retained": len(self.tracer),
                "dropped": self.tracer.dropped,
            },
            "merged": self.merged().snapshot(),
            "per_shard": [tel.snapshot() for tel in self.shards],
        }

    def render_prometheus(self, snapshot: Optional[dict] = None) -> str:
        """The snapshot as one Prometheus text-exposition page."""
        snap = snapshot if snapshot is not None else self.snapshot()
        return render_service_prometheus(snap)

    def write_trace(self, path=None) -> int:
        """Export retained spans as JSONL; returns the line count."""
        target = path if path is not None else self.trace_path
        if target is None:
            raise ValueError("no trace path configured")
        return self.tracer.write_jsonl(target)


def render_service_prometheus(snapshot: dict) -> str:
    """A telemetry snapshot dict as one Prometheus text-exposition page.

    Works on the wire form of the ``{"op": "telemetry"}`` reply, so a
    scrape sidecar (or ``repro-dbp serve top --prometheus``) needs no
    handle on the server's live :class:`ServiceTelemetry`.
    """
    pages = [
        _render_prometheus(
            shard_snap, prefix="repro_serve", labels={"shard": k}
        )
        for k, shard_snap in enumerate(snapshot.get("per_shard", []))
    ]
    service = _render_prometheus(
        {
            "counters": {
                "parse_errors": snapshot.get("parse_errors", 0),
                **{
                    f"refused_{code}": n
                    for code, n in snapshot.get("refusals", {}).items()
                },
            },
            "gauges": {"uptime_seconds": snapshot.get("uptime_s", 0.0)},
        },
        prefix="repro_serve",
    )
    return "".join(pages) + service
