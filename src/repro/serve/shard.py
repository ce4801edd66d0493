"""Worker shards: one placement kernel per shard, consistent-hash routed.

A :class:`PlacementShard` owns one streaming
:class:`~repro.engine.loop.Engine` (and therefore one
:class:`~repro.core.kernel.PlacementKernel` + algorithm instance) behind
a bounded :class:`asyncio.Queue`.  A single worker coroutine drains the
queue, so every shard processes its requests **strictly in enqueue
order** — the property that makes per-shard decision streams
deterministic and lets the parity harness compare a single-shard server
bit-for-bit against batch ``simulate()``.

Routing uses a **consistent-hash ring** (:class:`HashRing`) over the
request's routing key (tenant, falling back to item id), built on
SHA-256 rather than Python's per-process-salted ``hash()`` so placement
of keys onto shards is stable across runs and machines.  Requests
sharing a key always reach the same shard; a key's sub-stream is
therefore processed in submission order.

Checkpointing writes the engine's **v2 checkpoint**
(:mod:`repro.engine.checkpoint` — the joint kernel+algorithm pickle)
plus a small JSON sidecar holding the shard's service-level state (the
live adaptive-item id map).  :meth:`PlacementShard.restore` rebuilds a
shard that continues the decision stream exactly where the snapshot
left off.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import pathlib
import time as _time
from bisect import bisect_right
from typing import Callable, List, Optional, Tuple, Union

from ..core.errors import ClairvoyanceError, PackingError, SimulationError
from ..engine.checkpoint import (
    Checkpoint,
    load_checkpoint,
    restore as restore_engine,
    save_checkpoint,
    snapshot,
)
from ..engine.loop import Engine
from ..engine.metrics import EngineMetrics
from ..obs.metrics import LATENCY_EDGES, Histogram
from .protocol import Request, error_reply, ok_reply

__all__ = ["HashRing", "PlacementShard", "stable_hash"]

#: sentinel that stops a shard worker (queue-ordered, after pending work)
_STOP = object()

#: bound of the ``(client, seq) → reply`` retry-dedup cache, in entries
#: (FIFO eviction; must exceed any client's in-flight × retry window)
_DEDUP_CAP = 65536


def stable_hash(key: str) -> int:
    """A 64-bit process-independent hash (SHA-256 prefix) of ``key``."""
    return int.from_bytes(
        hashlib.sha256(key.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """Consistent hashing of routing keys onto ``n_shards`` shards.

    Each shard owns ``replicas`` pseudo-random points on a 64-bit ring;
    a key maps to the shard owning the first point clockwise from the
    key's hash.  Deterministic for a given ``(n_shards, replicas)`` —
    the same key always routes to the same shard, across processes and
    machines.
    """

    def __init__(self, n_shards: int, *, replicas: int = 64) -> None:
        if n_shards < 1:
            raise ValueError(f"need at least one shard, got {n_shards}")
        self.n_shards = n_shards
        points: List[Tuple[int, int]] = []
        for shard in range(n_shards):
            for replica in range(replicas):
                points.append((stable_hash(f"shard{shard}:{replica}"), shard))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._shards = [s for _, s in points]

    def shard_for(self, key: str) -> int:
        """The shard owning ``key`` (O(log(shards·replicas)))."""
        if self.n_shards == 1:
            return 0
        i = bisect_right(self._hashes, stable_hash(key))
        if i == len(self._hashes):
            i = 0
        return self._shards[i]


class PlacementShard:
    """One kernel-owning worker: a queue in, placement decisions out.

    Parameters
    ----------
    shard_id:
        Position of this shard in the server's shard list.
    algorithm:
        A fresh algorithm instance (one per shard — shards never share
        state).
    capacity, indexed:
        Forwarded to the :class:`~repro.engine.loop.Engine`.
    max_queue:
        Bound of the work queue, in *jobs* (a job is a micro-batch).
        When the queue is full the server answers ``overloaded`` instead
        of buffering — explicit backpressure, never unbounded memory.
    metrics:
        Attach an :class:`~repro.engine.metrics.EngineMetrics` (kernel
        latency/residual/occupancy histograms; mergeable across shards).
    clock:
        Monotonic-seconds source for latency capture (defaults to
        :func:`time.perf_counter`).  The chaos harness passes the
        simulation loop's virtual clock so replies are deterministic.
    """

    def __init__(
        self,
        shard_id: int,
        algorithm,
        *,
        capacity: float = 1.0,
        indexed: bool = True,
        max_queue: int = 1024,
        metrics: bool = True,
        engine: Optional[Engine] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.shard_id = shard_id
        if engine is not None:
            self.engine = engine
            if metrics and engine.metrics is None:
                engine.metrics = EngineMetrics()
        else:
            self.engine = Engine(
                algorithm,
                capacity=capacity,
                indexed=indexed,
                metrics=EngineMetrics() if metrics else None,
            )
        self.queue: asyncio.Queue = asyncio.Queue(max_queue)
        #: wall-clock receive→reply latency of requests this shard served
        self.request_latency = Histogram(LATENCY_EDGES)
        self.accepted = 0  # arrive requests committed into the kernel
        self.rejected = 0  # requests answered with a structured error
        #: tracked request futures currently outstanding on this shard
        #: (incremented by the server at enqueue, decremented when the
        #: reply future resolves) — surfaced per shard by ``stats``
        self.inflight = 0
        #: telemetry plane hooks (None = telemetry off, zero overhead):
        #: the shard's RED registry and the gated kernel-event narrator
        self.telemetry = None
        self._narrator = None
        self._adaptive_uids: dict[str, int] = {}  # live unknown-departure ids
        self._task: Optional[asyncio.Task] = None
        self._now = clock if clock is not None else _time.perf_counter
        #: at-most-once retry dedup: ``(client, seq) → ok reply``.  The
        #: ``dedup_enabled`` switch is a deliberate bug-injection seam —
        #: the chaos harness flips it off to prove the exactly-once
        #: oracle catches double-applies.
        self.dedup_enabled = True
        self._applied: dict[tuple, dict] = {}
        #: fail-stop state (testkit seam): a crashed shard answers
        #: nothing until :meth:`recover` rebuilds it from the durable
        #: image captured at the crash instant (ack ⇒ durable)
        self.crashed = False
        self._durable: Optional[dict] = None
        self._stall_until: Optional[float] = None
        self._crash_after_applies: Optional[int] = None

    def attach_telemetry(self, shard_tel, narrator=None) -> None:
        """Wire this shard into the telemetry plane.

        ``shard_tel`` is the shard's
        :class:`~repro.serve.telemetry.ShardTelemetry` (fault counters);
        ``narrator`` the gated kernel-event listener, attached to the
        engine here and re-attached after every :meth:`recover` /
        :meth:`restore` (engines are rebuilt, listeners are not
        checkpointed).
        """
        self.telemetry = shard_tel
        self._narrator = narrator
        if narrator is not None:
            self.engine.attach_listener(narrator)

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Spawn the worker coroutine (idempotent)."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._worker(), name=f"shard-{self.shard_id}"
            )

    async def stop(self) -> None:
        """Process everything already queued, then stop the worker."""
        if self._task is None:
            return
        if self.crashed or self._task.done():
            self._task = None
            return
        await self.queue.put(_STOP)
        await self._task
        self._task = None

    async def _worker(self) -> None:
        while True:
            job = await self.queue.get()
            try:
                if job is _STOP:
                    return
                try:
                    await self._maybe_stall()
                except asyncio.CancelledError:
                    # fail-stopped while parked: this job is already out
                    # of the queue, so _fail_queue() cannot see it — its
                    # futures must still be answered or their waiters
                    # (and the connection's drain) hang forever
                    for req, future, _ in job:
                        self._fail_future(req, future)
                    raise
                for req, future, ctx in job:
                    if self.crashed:  # fail-stopped mid-batch
                        self._fail_future(req, future)
                        continue
                    if ctx is None or type(ctx) is float:
                        t_recv = ctx  # telemetry off: ctx IS t_recv
                        reply = self.apply(req)
                    else:  # a telemetry RequestContext rides with the job
                        t_recv = ctx.t_recv
                        ctx.t_dequeued = self._now()
                        narrator = self._narrator
                        if narrator is not None and ctx.sampled:
                            narrator.active = True
                        ctx.t_kernel0 = self._now()
                        reply = self.apply(req)
                        ctx.t_kernel1 = self._now()
                        if narrator is not None:
                            narrator.active = False
                    if t_recv is not None:
                        reply.setdefault("shard", self.shard_id)
                        self.request_latency.observe(self._now() - t_recv)
                    if not future.done():
                        future.set_result(reply)
                    if self._crash_after_applies is not None:
                        self._crash_after_applies -= 1
                        if self._crash_after_applies <= 0:
                            self._crash_after_applies = None
                            self._do_crash()
            finally:
                self.queue.task_done()
            if self.crashed:
                self._task = None
                return

    async def _maybe_stall(self) -> None:
        # overload-window fault: park the worker so the queue backs up
        # and the server's bounded-queue backpressure kicks in
        while self._stall_until is not None:
            delay = self._stall_until - asyncio.get_running_loop().time()
            if delay <= 0:
                self._stall_until = None
                return
            await asyncio.sleep(delay)

    # ------------------------------------------------------------------ #
    # Fault injection (testkit seams — inert in production)
    # ------------------------------------------------------------------ #
    def crash(self) -> None:
        """Fail-stop this shard *now*, keeping only the durable image.

        ``ack ⇒ durable``: the image is captured at the crash instant,
        so every request the shard has already applied (and therefore
        may have acknowledged) survives.  Everything still queued is
        answered ``unavailable`` — the client's cue to retry, which the
        ``(client, seq)`` dedup cache makes safe.
        """
        if self.crashed:
            return
        self._do_crash()
        if self._task is not None:
            self._task.cancel()
            self._task = None

    def _count_fault(self) -> None:
        if self.telemetry is not None:
            self.telemetry.faults.inc()

    def crash_after(self, applies: int) -> None:
        """Arm a fail-stop after ``applies`` more applied requests.

        Crashing from *inside* the worker's batch loop is how the
        harness hits the mid-batch window that an externally scheduled
        :meth:`crash` (which runs between event-loop steps) cannot.
        """
        self._crash_after_applies = max(1, int(applies))

    def stall(self, until: float) -> None:
        """Pause the worker until loop time ``until`` (overload window)."""
        self._count_fault()
        current = self._stall_until
        self._stall_until = until if current is None else max(current, until)

    def durable_image(self) -> dict:
        """This shard's durable state, as ``{"engine": bytes, "meta": …}``."""
        return {
            "engine": snapshot(self.engine).dumps(),
            "meta": self._meta(),
        }

    def recover(self, image: Optional[dict] = None) -> None:
        """Rebuild from a durable image and restart the worker.

        With no ``image``, recovers from the one captured by the last
        :meth:`crash` — the fail-stop/restart cycle of the chaos plans.
        """
        if not self.crashed:
            return
        if image is None:
            image = self._durable
        if image is None:
            raise SimulationError(
                f"shard {self.shard_id} crashed with no durable image"
            )
        self.engine = restore_engine(Checkpoint.loads(image["engine"]))
        meta = image["meta"]
        self.accepted = int(meta.get("accepted", 0))
        self.rejected = int(meta.get("rejected", 0))
        self._adaptive_uids = {
            str(k): int(v)
            for k, v in (meta.get("adaptive_uids") or {}).items()
        }
        self._applied = {
            (client, seq): reply
            for client, seq, reply in (meta.get("applied") or [])
        }
        self._durable = None
        self.crashed = False
        self._task = None
        if self._narrator is not None:  # rebuilt engine, fresh fan-out
            self.engine.attach_listener(self._narrator)
        self.start()

    def _do_crash(self) -> None:
        self._count_fault()
        self._durable = self.durable_image()
        self.crashed = True
        self._fail_queue()

    def _fail_queue(self) -> None:
        """Answer everything queued with ``unavailable`` (crash/drain)."""
        while True:
            try:
                job = self.queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            try:
                if job is not _STOP:
                    for req, future, _ in job:
                        self._fail_future(req, future)
            finally:
                self.queue.task_done()

    def _fail_future(self, req: Request, future: asyncio.Future) -> None:
        if not future.done():
            future.set_result(error_reply(
                "unavailable",
                f"shard {self.shard_id} is down — retry after recovery",
                seq=req.seq, shard=self.shard_id,
            ))

    # ------------------------------------------------------------------ #
    # Request execution (synchronous — the kernel is pure computation)
    # ------------------------------------------------------------------ #
    def apply(self, req: Request) -> dict:
        """Execute one request against the kernel; always returns a reply.

        Requests carrying a ``(client, seq)`` idempotency key are applied
        **at most once**: a resend of an already-applied request returns
        the original ok reply verbatim instead of touching the kernel,
        which is what makes client retries after lost acks safe.
        """
        key = req.dedup_key if self.dedup_enabled else None
        if key is not None:
            cached = self._applied.get(key)
            if cached is not None:
                return cached
        try:
            if req.op == "arrive":
                reply = self._arrive(req)
            elif req.op == "depart":
                reply = self._depart(req)
            elif req.op == "advance":
                reply = self._advance(req)
            else:
                raise PackingError(f"op {req.op!r} is not a shard op")
        except Exception as exc:  # a bad request must never kill the worker
            self.rejected += 1
            return error_reply("internal", f"{type(exc).__name__}: {exc}",
                               seq=req.seq, shard=self.shard_id)
        if key is not None and reply.get("ok", False):
            if len(self._applied) >= _DEDUP_CAP:  # FIFO eviction
                self._applied.pop(next(iter(self._applied)))
            self._applied[key] = reply
        return reply

    def _arrive(self, req: Request) -> dict:
        if req.departure is None and req.id in self._adaptive_uids:
            self.rejected += 1
            return error_reply(
                "duplicate-id",
                f"adaptive item id {req.id!r} is still active on this shard",
                seq=req.seq, id=req.id, shard=self.shard_id,
            )
        kernel = self.engine.kernel
        uid = kernel.arrivals  # sequential per shard
        item = req.to_item(uid)
        opened_before = kernel.bins_opened
        t0 = self._now()
        try:
            bin_ = self.engine.feed(item)
        except ClairvoyanceError as exc:
            # an adaptive item needs a non-clairvoyant algorithm — a
            # client mistake, not a server fault
            self.rejected += 1
            return error_reply(
                "bad-item", str(exc),
                seq=req.seq, id=req.id, shard=self.shard_id,
            )
        except SimulationError as exc:
            self.rejected += 1
            return error_reply(
                "out-of-order", str(exc),
                seq=req.seq, id=req.id, shard=self.shard_id,
                clock=self._clock(),
            )
        if req.departure is None:
            self._adaptive_uids[req.id] = uid
        self.accepted += 1
        return ok_reply(
            "arrive",
            seq=req.seq,
            id=req.id,
            uid=uid,  # per-shard apply order — the chaos oracle's key
            bin=bin_.uid,
            opened=kernel.bins_opened != opened_before,
            shard=self.shard_id,
            latency_us=round(1e6 * (self._now() - t0), 3),
        )

    def _depart(self, req: Request) -> dict:
        uid = self._adaptive_uids.get(req.id)
        if uid is None:
            self.rejected += 1
            return error_reply(
                "unknown-item",
                f"no live adaptive item with id {req.id!r} on this shard "
                "(scheduled departures happen automatically)",
                seq=req.seq, id=req.id, shard=self.shard_id,
            )
        try:
            self.engine.depart(uid, req.time)
        except (SimulationError, PackingError) as exc:
            self.rejected += 1
            return error_reply(
                "out-of-order", str(exc),
                seq=req.seq, id=req.id, shard=self.shard_id,
                clock=self._clock(),
            )
        del self._adaptive_uids[req.id]
        return ok_reply("depart", seq=req.seq, id=req.id,
                        shard=self.shard_id)

    def _advance(self, req: Request) -> dict:
        try:
            self.engine.advance_to(req.time)
        except SimulationError as exc:
            self.rejected += 1
            return error_reply(
                "out-of-order", str(exc),
                seq=req.seq, shard=self.shard_id, clock=self._clock(),
            )
        return ok_reply("advance", seq=req.seq, shard=self.shard_id,
                        time=req.time)

    def _clock(self) -> Optional[float]:
        import math

        t = self.engine.time
        return t if math.isfinite(t) else None

    # ------------------------------------------------------------------ #
    # Introspection (safe between event-loop steps: one thread, no locks)
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        kernel = self.engine.kernel
        return {
            "shard": self.shard_id,
            "indexed": self.engine.indexed,
            "items": kernel.arrivals,
            "departures": kernel.departures,
            "open_bins": kernel.open_bin_count,
            "bins_opened": kernel.bins_opened,
            "max_open": kernel.max_open,
            "cost": kernel.cost_so_far,
            "time": self._clock(),
            "accepted": self.accepted,
            "rejected": self.rejected,
            "live_adaptive": len(self._adaptive_uids),
            "queue_depth": self.queue.qsize(),
            "inflight": self.inflight,
            "crashed": self.crashed,
        }

    # ------------------------------------------------------------------ #
    # Checkpoint / restore (v2 engine checkpoint + service sidecar)
    # ------------------------------------------------------------------ #
    def _meta(self) -> dict:
        """Service-level sidecar state (JSON-serializable)."""
        return {
            "shard": self.shard_id,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "adaptive_uids": dict(self._adaptive_uids),
            # dedup cache as [client, seq, reply] triples — JSON objects
            # cannot key on tuples
            "applied": [
                [client, seq, reply]
                for (client, seq), reply in self._applied.items()
            ],
        }

    def checkpoint(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Snapshot this shard to ``path`` (+ ``<path>.meta.json``)."""
        path = pathlib.Path(path)
        save_checkpoint(self.engine, path)
        path.with_suffix(path.suffix + ".meta.json").write_text(
            json.dumps(self._meta(), sort_keys=True) + "\n"
        )
        return path

    @classmethod
    def restore(
        cls,
        shard_id: int,
        path: Union[str, pathlib.Path],
        *,
        max_queue: int = 1024,
        metrics: bool = True,
        indexed: Optional[bool] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> "PlacementShard":
        """Rebuild a shard from :meth:`checkpoint` output.

        The engine (kernel + algorithm, mid-stream) comes from the
        checkpoint (v3, or a pre-columnar v2 file); the adaptive-id map
        and accept/reject counters come from the sidecar.  The restored
        shard's decision stream continues bit-for-bit from where the
        snapshot was taken.  ``indexed`` (when not ``None``) overrides
        the checkpointed run's open-bin index setting — how the server's
        ``--no-index`` flag survives a ``--resume``.
        """
        path = pathlib.Path(path)
        engine = load_checkpoint(path)
        if indexed is not None:
            engine.set_indexed(indexed)
        shard = cls(
            shard_id,
            None,
            engine=engine,
            max_queue=max_queue,
            metrics=metrics,
            clock=clock,
        )
        meta_path = path.with_suffix(path.suffix + ".meta.json")
        if meta_path.exists():
            meta = json.loads(meta_path.read_text())
            shard.accepted = int(meta.get("accepted", 0))
            shard.rejected = int(meta.get("rejected", 0))
            shard._adaptive_uids = {
                str(k): int(v)
                for k, v in (meta.get("adaptive_uids") or {}).items()
            }
            shard._applied = {
                (client, seq): reply
                for client, seq, reply in (meta.get("applied") or [])
            }
        else:
            shard.accepted = engine.kernel.arrivals
        return shard

    def __repr__(self) -> str:
        return (
            f"PlacementShard(id={self.shard_id}, items="
            f"{self.engine.kernel.arrivals}, "
            f"open={self.engine.open_bin_count}, "
            f"queue={self.queue.qsize()})"
        )
