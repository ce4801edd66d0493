"""Worker shards: one placement kernel per shard, consistent-hash routed.

A :class:`PlacementShard` owns one streaming
:class:`~repro.engine.loop.Engine` (a
:class:`~repro.core.kernel.PlacementKernel` with its algorithm instance)
behind a bounded :class:`asyncio.Queue`.  A single worker coroutine
drains the queue, so every shard processes its requests **strictly in
enqueue order** — the property that makes per-shard decision streams
deterministic and lets the parity harness compare a single-shard server
bit-for-bit against batch ``simulate()``.

A job is one micro-batch: ``(requests, contexts, slot)``.  The worker
runs it through :meth:`PlacementShard.apply_batch`, which applies each
run of consecutive ``arrive`` requests with one
:meth:`~repro.core.kernel.PlacementKernel.release_store` call over the
shard's :class:`~repro.core.store.ItemStore` (refilled per run),
encodes the replies from the kernel's decision columns (a canonical
``arrive`` ok reply straight to its wire bytes), and hands the list of
replies to ``slot`` once
(``slot.done()``/``slot.set_result(replies)``, so an
``asyncio.Future`` serves as well).  A run of one is the kernel's
per-item ``release``; ``depart`` and ``advance`` are applied one at a
time.  :meth:`PlacementShard.apply` is the one-request case, with a
dict reply.

Routing uses a **consistent-hash ring** (:class:`HashRing`) over the
request's routing key (tenant, falling back to item id), built on
SHA-256 rather than Python's per-process-salted ``hash()`` so placement
of keys onto shards is stable across runs and machines.  Requests
sharing a key always reach the same shard; a key's sub-stream is
therefore processed in submission order.  Routing is a pure function of
the key, so the ring memoises recent keys in a bounded LRU.

Checkpointing writes the engine's **v4 checkpoint**
(:mod:`repro.engine.checkpoint` — a data-only JSON document of the run
state) plus a small JSON sidecar holding the shard's service-level state
(counters, the live adaptive-item id map and the retry-dedup cache).
:meth:`PlacementShard.restore` rebuilds a shard that continues the
decision stream exactly where the snapshot left off.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import pathlib
import time as _time
from array import array
from bisect import bisect_right
from functools import lru_cache, partial
from itertools import islice
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..core.errors import ClairvoyanceError, PackingError, SimulationError
from ..core.item import item_view
from ..core.store import ItemStore
from ..engine.checkpoint import (
    Checkpoint,
    restore as restore_engine,
    save_checkpoint,
    snapshot,
)
from ..engine.loop import Engine
from ..engine.metrics import EngineMetrics
from ..obs.metrics import LATENCY_EDGES, Histogram
from .protocol import (
    Request,
    encode_arrive_ok,
    encode_arrive_oks,
    error_reply,
    ok_reply,
)

__all__ = ["HashRing", "PlacementShard", "stable_hash", "ROUTE_MEMO_CAP"]

#: sentinel that stops a shard worker (queue-ordered, after pending work)
_STOP = object()

_NAN = float("nan")

#: bound of the ``(client, seq) → reply`` retry-dedup cache, in entries
#: (FIFO eviction; must exceed any client's in-flight × retry window)
_DEDUP_CAP = 65536

#: bound of a :class:`HashRing`'s key → shard memo, in keys (LRU
#: eviction; tenant-less requests route by item id, one key per item)
ROUTE_MEMO_CAP = 4096


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
        # the memo closes over the point lists, not the ring, so it
        # holds no reference cycle
        self._memo = lru_cache(maxsize=ROUTE_MEMO_CAP)(partial(
            _ring_lookup, [h for h, _ in points], [s for _, s in points]
        ))

    def shard_for(self, key: str) -> int:
        """The shard owning ``key``; memoised, a miss is O(log(ring points))."""
        if self.n_shards == 1:
            return 0
        return self._memo(key)


def _ring_lookup(hashes: List[int], shards: List[int], key: str) -> int:
    """The shard owning the first ring point clockwise of ``key``'s hash."""
    i = bisect_right(hashes, stable_hash(key))
    return shards[i if i < len(hashes) else 0]


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
        Attach an :class:`~repro.engine.metrics.EngineMetrics` (the
        packing-metrics registry; mergeable across shards).
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
        if max_queue < 1:
            # asyncio.Queue(0) is unbounded: overload would never be
            # answered and memory would grow without limit
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
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
        #: requests currently outstanding on this shard (incremented by
        #: the server at enqueue, decremented when the reply is
        #: delivered) — surfaced per shard by ``stats``
        self.inflight = 0
        #: telemetry plane hooks (None = telemetry off, zero overhead):
        #: the shard's RED registry and the gated kernel-event narrator
        self.telemetry = None
        self._narrator = None
        self._adaptive_uids: dict[str, int] = {}  # live unknown-departure ids
        #: a run's item columns and decision columns, reused run to run
        self._columns = (ItemStore(), array("q"), bytearray())
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
            self.engine.add_listener(narrator)

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
                reqs, ctxs, slot = job
                if self._stall_until is not None:
                    try:
                        await self._maybe_stall()
                    except asyncio.CancelledError:
                        # fail-stopped while parked: this job is already
                        # out of the queue, so _fail_queue() cannot see
                        # it — it must still be answered or its waiters
                        # (and the connection's drain) hang forever
                        self._fail_job(job)
                        raise
                replies = self.apply_batch(reqs, ctxs)
                if not slot.done():
                    slot.set_result(replies)
                if self.crashed:  # fail-stopped mid-batch (crash_after)
                    self._fail_queue()
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
        self._fail_stop()
        self._fail_queue()
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
        self._load_meta(image["meta"])
        self._durable = None
        self.crashed = False
        self._task = None
        if self._narrator is not None:  # rebuilt engine, fresh fan-out
            self.engine.add_listener(self._narrator)
        self.start()

    def _fail_stop(self) -> None:
        """Keep the durable image and stop answering (queue untouched)."""
        self._count_fault()
        self._durable = self.durable_image()
        self.crashed = True

    def _fail_queue(self) -> None:
        """Answer everything queued with ``unavailable`` (crash/drain)."""
        while True:
            try:
                job = self.queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            try:
                if job is not _STOP:
                    self._fail_job(job)
            finally:
                self.queue.task_done()

    def _fail_job(self, job: tuple) -> None:
        """Answer every request of ``job`` with ``unavailable``."""
        reqs, _, slot = job
        if not slot.done():
            slot.set_result([self._unavailable(req) for req in reqs])

    def _unavailable(self, req: Request) -> dict:
        return error_reply(
            "unavailable",
            f"shard {self.shard_id} is down — retry after recovery",
            seq=req.seq, shard=self.shard_id,
        )

    # ------------------------------------------------------------------ #
    # Request execution (synchronous — the kernel is pure computation)
    # ------------------------------------------------------------------ #
    def apply(self, req: Request) -> dict:
        """Execute one request against the kernel; always returns a reply.

        The one-request case of :meth:`apply_batch`, with a dict reply.
        """
        return self.apply_batch((req,))[0]

    def apply_batch(self, reqs: Sequence[Request], ctxs=None) -> list:
        """Execute ``reqs`` in order; one reply per request, in order.

        ``ctxs`` holds one entry per request saying how it was served
        (``None`` for all: internal calls, such as :meth:`apply` and the
        ``advance`` broadcast):

        - ``None``: a dict reply, nothing recorded;
        - a float, the receive time of an untraced served request: a
          canonical ``arrive`` ok reply (int ``seq``, no dedup key)
          comes back as its wire bytes, ready to write, every other
          reply as a dict with ``shard`` set; the receive → reply
          latency is recorded;
        - a telemetry ``RequestContext``: a dict reply, and the
          request's queue and kernel phases are stamped on the context.

        Each run of consecutive ``arrive`` requests that reach the
        kernel is one kernel call (:meth:`_run`, or :meth:`_one` for a
        run of one); a traced request is a run of one.  Requests
        carrying a ``(client, seq)`` idempotency key are applied **at
        most once**: a resend of an already-applied request returns the
        original ok reply verbatim instead of touching the kernel, which
        is what makes client retries after lost acks safe.
        """
        replies = []
        now = self._now
        n = len(reqs)
        i = 0  # requests applied; once the shard fail-stops, the rest are refused
        while i < n and not self.crashed:
            left = self._crash_after_applies
            stop = n if left is None else min(n, i + left)
            ctx = None if ctxs is None else ctxs[i]
            if ctx is None or type(ctx) is float:
                j, canonical = self._run_end(reqs, ctxs, i, stop)
                if j == i:  # answered without the kernel
                    replies.append(self._apply(reqs[i]))
                    j, canonical = i + 1, False
                elif j == i + 1:
                    replies.append(
                        self._one(reqs[i], ctx is not None, canonical)
                    )
                else:
                    self._run(reqs, ctxs, i, j, canonical, replies)
            else:  # a telemetry RequestContext: a run of one, stamped
                ctx.t_dequeued = now()
                narrator = self._narrator
                if narrator is not None and ctx.sampled:
                    narrator.active = True
                ctx.t_kernel0 = now()
                j = i + 1
                canonical = False
                if self._run_end(reqs, None, i, j)[0] == i:
                    replies.append(self._apply(reqs[i]))
                else:
                    replies.append(self._one(reqs[i], False, False))
                ctx.t_kernel1 = now()
                if narrator is not None:
                    narrator.active = False
            if ctxs is not None and not canonical:
                for reply in islice(replies, i, j):
                    if type(reply) is dict:
                        reply.setdefault("shard", self.shard_id)
            if left is not None:
                left -= j - i
                self._crash_after_applies = left if left > 0 else None
                if left <= 0:
                    self._fail_stop()
            i = j
        if i < n:
            replies += [self._unavailable(req) for req in islice(reqs, i, n)]
        if ctxs is not None and i:
            t_done = now()
            observe = self.request_latency.observe
            for ctx in islice(ctxs, i):
                observe(t_done - (ctx if type(ctx) is float else ctx.t_recv))
        return replies

    def _run(self, reqs, ctxs, i: int, j: int, canonical: bool,
             replies: list) -> None:
        """Apply ``reqs[i:j]``, a run of ``arrive`` requests that reach
        the kernel (:meth:`_run_end`), with one ``release_store`` over
        the shard's columns, and append their replies.

        A row that raises gets its error reply, the rows before it
        stand, and the run resumes after it.  Each reply's
        ``latency_us`` is the run's kernel time divided by its rows.
        """
        run = reqs[i:j]
        m = j - i
        engine = self.engine
        base = engine.arrivals  # uids are sequential per shard
        # the shard's own columns, refilled per run (parse_request
        # already validated the values)
        store, bins, opened = self._columns
        arr, dep, siz, uids = (
            store.arrivals, store.departures, store.sizes, store.uids
        )
        del arr[:], dep[:], siz[:], uids[:], bins[:], opened[:]
        try:
            for req in run:
                arr.append(req.arrival)
                d = req.departure
                dep.append(_NAN if d is None else d)
                siz.append(req.size)
        except (TypeError, ValueError, OverflowError):
            # a hand-built request the columns cannot hold: apply the
            # rows alone, which refuses the culprit
            for r, req in enumerate(run):
                replies.append(self._one(
                    req, ctxs is not None and type(ctxs[i + r]) is float,
                    False,
                ))
            return
        uids.extend(range(base, base + m))
        failed = {}  # run row -> its error reply (the clock as it was)
        now = self._now
        t0 = now()
        k = 0
        while k < m:
            done, placed = len(bins), engine.arrivals
            try:
                engine.release_store(store, k, m, bins, opened)
                break
            except Exception as exc:  # noqa: BLE001 - answered per row
                k += len(bins) - done  # the row that raised
                if engine.arrivals - placed > len(bins) - done:
                    # placed, then a listener raised: its uid is spent
                    failed[k] = self._internal(run[k], exc)
                else:  # untouched: the later rows move up a uid
                    failed[k] = self._rejection(run[k], exc)
                    for r in range(k + 1, m):
                        uids[r] -= 1
                k += 1
        latency = round(1e6 * (now() - t0) / m, 3)
        self.accepted += m - len(failed)
        self.rejected += len(failed)
        if canonical and not failed:  # the served common case
            replies += encode_arrive_oks(
                [req.seq for req in run], [req.id for req in run],
                uids, bins, opened, self.shard_id, latency,
            )
            return
        wire = ctxs is not None
        d = 0  # decision row
        for r, req in enumerate(run):
            if failed and r in failed:
                replies.append(failed[r])
                continue
            replies.append(self._arrive_ok(
                req, uids[r], bins[d], opened[d] == 1, latency,
                wire and type(ctxs[i + r]) is float,
            ))
            d += 1

    def _one(self, req: Request, wire: bool, canonical: bool):
        """Apply one ``arrive`` that reaches the kernel (a run of one)
        with the kernel's per-item ``release``, which costs less than a
        ``release_store`` call for one row.  ``canonical`` as
        :meth:`_run_end` says it."""
        engine = self.engine
        uid = engine.arrivals  # sequential per shard
        opened_before = engine.bins_opened
        now = self._now
        t0 = now()
        try:
            bin_ = engine.release(
                item_view(req.arrival, req.departure, req.size, uid)
            )
        except Exception as exc:  # noqa: BLE001 - never kills the worker
            self.rejected += 1
            if engine.arrivals != uid:  # placed, then a listener raised
                return self._internal(req, exc)
            return self._rejection(req, exc)
        latency = round(1e6 * (now() - t0), 3)
        self.accepted += 1
        opened = engine.bins_opened != opened_before
        if canonical:
            return encode_arrive_ok(req.seq, req.id, uid, bin_.uid, opened,
                                    self.shard_id, latency)
        return self._arrive_ok(req, uid, bin_.uid, opened, latency, wire)

    def _arrive_ok(self, req: Request, uid: int, bin_: int, opened: bool,
                   latency: float, wire: bool):
        """The ok reply of a placed ``arrive``: its wire bytes when
        ``wire`` and canonical, else a dict (cached for resends when the
        request carries a dedup key)."""
        if req.departure is None:
            self._adaptive_uids[req.id] = uid
        seq = req.seq
        keyed = self.dedup_enabled and req.client is not None \
            and seq is not None
        if wire and not keyed and type(seq) is int:
            return encode_arrive_ok(seq, req.id, uid, bin_, opened,
                                    self.shard_id, latency)
        reply = ok_reply(
            "arrive",
            seq=seq,
            id=req.id,
            uid=uid,  # per-shard apply order — the chaos oracle's key
            bin=bin_,
            opened=opened,
            shard=self.shard_id,
            latency_us=latency,
        )
        if keyed:
            self._remember((req.client, seq), reply)
        return reply

    def _run_end(self, reqs, ctxs, i: int, stop: int):
        """Where the kernel run starting at ``reqs[i]`` ends, and whether
        every row of it gets a canonical wire reply (served, int
        ``seq``, no dedup key, a known departure).

        It ends (before ``stop``) at a request that is not an
        ``arrive``, carries a telemetry context, or is answered without
        the kernel: a dedup hit or a live adaptive id, or a dedup key or
        adaptive id an earlier row of the run may make one.
        """
        cache = self._applied if self.dedup_enabled else None
        live = self._adaptive_uids
        keys = ids = None
        canonical = ctxs is not None
        j = i
        while j < stop:
            req = reqs[j]
            if req.op != "arrive":
                break
            if ctxs is not None:
                ctx = ctxs[j]
                if type(ctx) is not float:
                    if ctx is not None:
                        break
                    canonical = False
                if type(req.seq) is not int:
                    canonical = False
            if req.client is not None and req.seq is not None \
                    and cache is not None:
                key = (req.client, req.seq)
                if key in cache or (keys is not None and key in keys):
                    break
                if keys is None:
                    keys = set()
                keys.add(key)
            if req.departure is None:
                if req.id in live or (ids is not None and req.id in ids):
                    break
                if ids is None:
                    ids = set()
                ids.add(req.id)
            j += 1
        return j, canonical and keys is None and ids is None

    def _rejection(self, req: Request, exc: Exception) -> dict:
        """The error reply of an ``arrive`` the kernel refused."""
        if isinstance(exc, ClairvoyanceError):
            # an adaptive item needs a non-clairvoyant algorithm — a
            # client mistake, not a server fault
            return error_reply(
                "bad-item", str(exc),
                seq=req.seq, id=req.id, shard=self.shard_id,
            )
        if isinstance(exc, SimulationError):
            return error_reply(
                "out-of-order", str(exc),
                seq=req.seq, id=req.id, shard=self.shard_id,
                clock=self._clock(),
            )
        return self._internal(req, exc)

    def _internal(self, req: Request, exc: Exception) -> dict:
        return error_reply("internal", f"{type(exc).__name__}: {exc}",
                           seq=req.seq, shard=self.shard_id)

    def _remember(self, key: tuple, reply: dict) -> None:
        """Cache ``reply`` for resends of ``key`` (FIFO eviction)."""
        if len(self._applied) >= _DEDUP_CAP:
            self._applied.pop(next(iter(self._applied)))
        self._applied[key] = reply

    def _apply(self, req: Request) -> dict:
        """Answer one request that is not part of a kernel run."""
        key = req.dedup_key if self.dedup_enabled else None
        if key is not None:
            cached = self._applied.get(key)
            if cached is not None:
                return cached
        try:
            if req.op == "arrive":  # _run declined it: a live adaptive id
                self.rejected += 1
                return error_reply(
                    "duplicate-id",
                    f"adaptive item id {req.id!r} is still active on "
                    "this shard",
                    seq=req.seq, id=req.id, shard=self.shard_id,
                )
            if req.op == "depart":
                reply = self._depart(req)
            elif req.op == "advance":
                reply = self._advance(req)
            else:
                raise PackingError(f"op {req.op!r} is not a shard op")
        except Exception as exc:  # a bad request must never kill the worker
            self.rejected += 1
            return self._internal(req, exc)
        if key is not None and reply.get("ok", False):
            self._remember(key, reply)
        return reply

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
        engine = self.engine
        return {
            "shard": self.shard_id,
            "indexed": engine.indexed,
            "items": engine.arrivals,
            "departures": engine.departures,
            "open_bins": engine.open_bin_count,
            "bins_opened": engine.bins_opened,
            "max_open": engine.max_open,
            "cost": engine.cost_so_far,
            "time": self._clock(),
            "accepted": self.accepted,
            "rejected": self.rejected,
            "live_adaptive": len(self._adaptive_uids),
            "queue_depth": self.queue.qsize(),
            "inflight": self.inflight,
            "crashed": self.crashed,
        }

    # ------------------------------------------------------------------ #
    # Checkpoint / restore (v4 engine checkpoint + service sidecar)
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

    def _load_meta(self, meta: dict) -> None:
        """Adopt a sidecar written by :meth:`_meta` (the one decoder of
        both :meth:`restore` and :meth:`recover`)."""
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

        The engine (kernel + algorithm, mid-stream) comes from the v4
        checkpoint; the adaptive-id map, the dedup cache and the
        accept/reject counters come from the sidecar.  The restored
        shard's decision stream continues bit-for-bit from where the
        snapshot was taken.  ``indexed`` (when not ``None``) overrides
        the checkpointed run's open-bin index setting — how the server's
        ``--no-index`` flag survives a ``--resume``.
        """
        path = pathlib.Path(path)
        ckpt = Checkpoint.load(path)
        if indexed is not None:  # a kernel constructor option, as data
            ckpt.state["kernel"]["indexed"] = indexed
        engine = restore_engine(ckpt)
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
            shard._load_meta(json.loads(meta_path.read_text()))
        else:
            shard.accepted = engine.arrivals
        return shard

    def __repr__(self) -> str:
        return (
            f"PlacementShard(id={self.shard_id}, items="
            f"{self.engine.arrivals}, "
            f"open={self.engine.open_bin_count}, "
            f"queue={self.queue.qsize()})"
        )
