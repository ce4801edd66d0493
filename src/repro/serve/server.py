"""The placement daemon: asyncio JSONL-over-TCP server over sharded kernels.

Request path
------------
``connection reader → parse → consistent-hash route → per-shard
micro-batcher → bounded shard queue → shard worker (kernel) → reply``

The path is paid per micro-batch where it can be.  The reader takes
every byte the stream already holds in one read, keeps a partial last
line for the next, and parses the chunk's whole lines in one pass
(:func:`~repro.serve.protocol.parse_chunk`).  A canonical ``arrive``
line goes straight into its shard's pending item columns (an
:class:`~repro.serve.shard.RequestBatch`), with no
:class:`~repro.serve.protocol.Request`; every other line takes the
per-line path (:func:`~repro.serve.protocol.parse_request`, then
:meth:`PlacementServer._route`).  The reader awaits only where the
route must (a due batcher flush, a ``depart``'s enqueue or an
``advance`` broadcast).  A flushed micro-batch is one shard job: the
worker releases its columns as they are, writes canonical ``arrive`` ok
replies straight to wire bytes, and completes it once through one
:class:`_ReplySlot`, which queues one chunk per connection.

Every stage is explicit about overload and failure:

- a malformed line produces a structured error reply on the same
  connection (the reader never raises out of a bad line); a line
  longer than :data:`MAX_LINE` bytes is answered ``bad-request`` and
  closes the connection;
- a **full shard queue** produces an immediate
  ``{"error": "overloaded", "retry_after": ...}`` reply instead of
  unbounded buffering — the client is told to back off, the server's
  memory stays bounded by ``shards × max_queue × batch_max`` requests;
- a **draining** server refuses new work with ``{"error": "draining"}``
  while still answering ``stats``/``ping``.

Replies are written by one writer coroutine per connection and carry the
request's ``seq``, so pipelined clients see interleaved (cross-shard)
replies and can still correlate them; the writer coalesces every chunk
queued at once into one write.

Lifecycle
---------
:meth:`PlacementServer.run` serves until SIGTERM/SIGINT, then
**drains**: stop accepting, flush every micro-batcher, let each shard
work its queue dry, write one checkpoint per shard (restartable with
``resume=True`` / ``repro-dbp serve --resume``), emit one ledger
:class:`~repro.obs.ledger.RunRecord` for the session, and close
connections.  A drain after ``k`` accepted arrivals loses none of them:
the checkpoints carry the kernels mid-stream, open bins and all.
"""

from __future__ import annotations

import asyncio
import pathlib
import signal
import time as _time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Union

from ..engine.metrics import EngineMetrics
from ..obs.metrics import LATENCY_EDGES, Histogram
from .batcher import MicroBatcher
from .transport import ServerHandle, TcpTransport, Transport
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    encode,
    error_reply,
    ok_reply,
    parse_chunk,
    parse_request,
)
from .shard import HashRing, PlacementShard, RequestBatch

__all__ = ["ServeConfig", "PlacementServer"]

#: the longest line served, in bytes before its newline (asyncio's
#: stream limit); a longer one is answered and closes its connection
MAX_LINE = 1 << 16
#: bytes asked of the stream per read: more than it ever buffers
_READ_SIZE = 1 << 18
#: how long a drain waits for its connections' handlers to finish (a
#: client that stops reading can hold a reply flush forever)
_CLOSE_GRACE_S = 5.0


@dataclass
class ServeConfig:
    """Everything a placement server needs to come up."""

    host: str = "127.0.0.1"
    port: int = 0  #: 0 = pick a free port (read it back from ``.port``)
    shards: int = 1
    algorithm: str = "HybridAlgorithm"
    capacity: float = 1.0
    indexed: bool = True
    max_queue: int = 1024  #: per-shard queue bound, in micro-batches
    batch_max: int = 1  #: micro-batch size (1 = batching off)
    batch_delay: float = 0.0  #: micro-batch age bound, seconds (0 = off)
    checkpoint_dir: Optional[Union[str, pathlib.Path]] = None
    resume: bool = False  #: restore shards from ``checkpoint_dir``
    metrics: bool = True  #: per-shard EngineMetrics (merged in stats)
    ledger_dir: Optional[Union[str, pathlib.Path]] = None  #: None = no ledger
    generator: str = "live"  #: workload identity stamped on ledger records
    telemetry: bool = False  #: request-scoped tracing + RED metrics
    trace_sample: float = 1.0  #: head-sampling rate for span trees
    telemetry_seed: int = 0  #: salt of the deterministic sampling hash
    trace_out: Optional[Union[str, pathlib.Path]] = None  #: JSONL on drain
    sample_hz: float = 0.0  #: continuous stack-sampling rate (0 = off)
    profile_out: Optional[Union[str, pathlib.Path]] = None  #: JSON on drain

    def shard_checkpoint(self, shard_id: int) -> pathlib.Path:
        if self.checkpoint_dir is None:
            raise ValueError("no checkpoint_dir configured")
        return pathlib.Path(self.checkpoint_dir) / f"shard-{shard_id}.ckpt"


@dataclass(eq=False)
class _Connection:
    """Book-keeping for one client connection."""

    writer: asyncio.StreamWriter
    reader: asyncio.StreamReader
    handler: asyncio.Task  #: the task running ``_handle_connection``
    #: encoded replies for the writer: ``bytes`` (one or more lines),
    #: ``(bytes, telemetry contexts)``, or ``None`` to close
    out: asyncio.Queue = field(default_factory=asyncio.Queue)
    pending: int = 0  #: shard requests not yet answered
    #: set when ``pending`` reaches 0 (created only when a close waits)
    idle: Optional[asyncio.Event] = None

    def send(self, reply: dict) -> None:
        """Queue one reply for the writer."""
        self.out.put_nowait(encode(reply))

    def answered(self, n: int) -> None:
        """``n`` shard requests got their replies."""
        self.pending -= n
        if not self.pending and self.idle is not None:
            self.idle.set()


class _ReplySlot:
    """Where a shard delivers one job's replies, in place of a Future.

    A job is one micro-batch (or one ``depart``).  The shard calls only
    ``done()`` and ``set_result(replies)``, once per job, so this stands
    in for an ``asyncio.Future`` and does the server's reply bookkeeping
    inside ``set_result`` itself: the replies that are not wire bytes
    yet are encoded, errors are counted, and each connection gets one
    chunk on its writer queue — no Future, callback or queue entry per
    request.
    """

    __slots__ = ("server", "shard", "conns", "ctxs", "_done")

    def __init__(self, server, shard, conns, ctxs) -> None:
        self.server = server
        self.shard = shard
        self.conns = conns  #: each request's connection
        self.ctxs = ctxs  #: each request's t_recv or telemetry context
        self._done = False

    def done(self) -> bool:
        return self._done

    def set_result(self, replies: list) -> None:
        self._done = True
        server = self.server
        self.shard.inflight -= len(replies)
        conns = self.conns
        conn = conns[0]
        if server.telemetry is None and conns.count(conn) == len(conns):
            try:  # the common case: every reply is already wire bytes
                data = b"".join(replies)
            except TypeError:  # some are dicts (errors, other ops)
                data = b"".join([
                    r if type(r) is bytes else server._wire(r)
                    for r in replies
                ])
            conn.out.put_nowait(data)
            conn.answered(len(replies))
            return
        chunks: Dict[_Connection, tuple] = {}
        for reply, conn, ctx in zip(replies, conns, self.ctxs):
            chunk = chunks.get(conn)
            if chunk is None:
                chunk = chunks[conn] = ([], [])
            if type(reply) is not bytes:
                if type(ctx) is not float:  # a telemetry context
                    ctx.t_done = server._now()
                    ctx.status = (
                        "ok" if reply.get("ok")
                        else reply.get("error", "internal")
                    )
                    reply["trace"] = ctx.trace
                    chunk[1].append(ctx)
                reply = server._wire(reply)
            chunk[0].append(reply)
        for conn, (parts, finished) in chunks.items():
            data = b"".join(parts)
            conn.out.put_nowait((data, finished) if finished else data)
            conn.answered(len(parts))


class PlacementServer:
    """The asyncio placement service (see module docstring).

    Construct with a :class:`ServeConfig`, then either ``await start()``
    and drive it from tests (``await drain()`` when done), or call
    :meth:`run` to serve until a termination signal.

    ``transport`` and ``clock`` are the simulation seams: the default
    (:class:`~repro.serve.transport.TcpTransport`,
    :func:`time.perf_counter`) is production behaviour; the chaos
    harness substitutes an in-process fault-injecting network and the
    virtual loop clock so whole failure schedules replay byte-for-byte.
    """

    def __init__(
        self,
        config: ServeConfig,
        *,
        registry=None,
        transport: Optional[Transport] = None,
        clock: Optional[Callable[[], float]] = None,
        telemetry=None,
        sampler=None,
    ) -> None:
        self.config = config
        self.transport = transport if transport is not None else TcpTransport()
        self._now = clock if clock is not None else _time.perf_counter
        self._shard_clock = clock
        # the telemetry plane: an injected ServiceTelemetry (the chaos
        # harness shares one across graceful restarts so RED counters
        # survive the crash cycle), one built from config, or None —
        # and None keeps every hot-path hook a single attribute check
        if telemetry is not None:
            self.telemetry = telemetry
        elif config.telemetry:
            from .telemetry import ServiceTelemetry

            self.telemetry = ServiceTelemetry(
                config.shards,
                clock=self._now,
                sample=config.trace_sample,
                seed=config.telemetry_seed,
                trace_path=config.trace_out,
            )
        else:
            self.telemetry = None
        # the profiling plane mirrors the telemetry injection contract:
        # an injected StackSampler (the chaos harness shares one across
        # graceful restarts, so the aggregate spans crash cycles and the
        # harness owns start/stop), one built from config.sample_hz, or
        # None.  Only an owned sampler is stopped and flushed at drain.
        if sampler is not None:
            self.sampler = sampler
            self._sampler_owned = False
        elif config.sample_hz > 0:
            from ..obs.prof import StackSampler

            self.sampler = StackSampler(config.sample_hz)
            self._sampler_owned = True
        else:
            self.sampler = None
            self._sampler_owned = False
        self.profile_path: Optional[pathlib.Path] = None
        if registry is None:
            from ..parallel import _registry

            registry = _registry()
        if config.algorithm not in registry:
            raise ValueError(
                f"unknown algorithm {config.algorithm!r}; options: "
                + ", ".join(sorted(registry))
            )
        self._algorithm_factory = registry[config.algorithm]
        self.shards: List[PlacementShard] = []
        self.ring = HashRing(config.shards)
        self.batchers: List[MicroBatcher] = []
        self.requests = 0  #: wire lines parsed into requests
        self.errors = 0  #: error replies sent (any code)
        self.error_codes: Dict[str, int] = {}
        self.draining = False
        self.drained = asyncio.Event()
        self.started_at: Optional[float] = None
        self._server: Optional[ServerHandle] = None
        self._connections: set[_Connection] = set()
        self._drain_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _build_shards(self) -> None:
        cfg = self.config
        for k in range(cfg.shards):
            ckpt = (
                cfg.shard_checkpoint(k)
                if cfg.resume and cfg.checkpoint_dir is not None
                else None
            )
            if ckpt is not None and ckpt.exists():
                shard = PlacementShard.restore(
                    k,
                    ckpt,
                    max_queue=cfg.max_queue,
                    metrics=cfg.metrics,
                    indexed=cfg.indexed,
                    clock=self._shard_clock,
                )
            else:
                shard = PlacementShard(
                    k,
                    self._algorithm_factory(),
                    capacity=cfg.capacity,
                    indexed=cfg.indexed,
                    max_queue=cfg.max_queue,
                    metrics=cfg.metrics,
                    clock=self._shard_clock,
                )
            self.shards.append(shard)
            observer = None
            if self.telemetry is not None:
                from .telemetry import GatedNarrator

                shard.attach_telemetry(
                    self.telemetry.shards[k],
                    GatedNarrator(self.telemetry.tracer),
                )
                observer = self._make_batch_observer(k)
            self.batchers.append(
                MicroBatcher(
                    self._make_sink(shard),
                    max_batch=cfg.batch_max,
                    max_delay=cfg.batch_delay,
                    observer=observer,
                )
            )

    def _make_batch_observer(self, shard_id: int):
        telemetry = self.telemetry

        def observer(size: int, cause: str) -> None:
            telemetry.batch_flushed(shard_id, size, cause)

        return observer

    def _make_sink(self, shard: PlacementShard):
        telemetry = self.telemetry

        async def sink(batch: RequestBatch) -> None:
            # simultaneous arrivals: stable sort by arrival inside the
            # micro-batch mirrors Instance order (ties keep submit order)
            batch.sort()
            job = (batch, batch.ctxs,
                   _ReplySlot(self, shard, batch.conns, batch.ctxs))
            if shard.crashed:
                # the shard fail-stopped while this batch aged in the
                # batcher: nobody will drain the queue, so answer here
                shard._fail_job(job)
                return
            if telemetry is not None:
                t_queued = self._now()
                for ctx in batch.ctxs:
                    ctx.t_queued = t_queued
            await shard.queue.put(job)

        return sink

    async def start(self) -> None:
        """Bind the listening socket and start the shard workers."""
        if not self.shards:
            self._build_shards()
        for shard in self.shards:
            shard.start()
        if self.sampler is not None and self._sampler_owned:
            self.sampler.start()
        self._server = await self.transport.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.started_at = self._now()

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.port

    async def run(self) -> None:
        """Serve until SIGTERM/SIGINT, then drain — the CLI entry point."""
        await self.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self._request_drain)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await self.drained.wait()

    def _request_drain(self) -> None:
        if self._drain_task is None:
            self._drain_task = asyncio.get_running_loop().create_task(
                self.drain()
            )

    async def drain(self) -> None:
        """Graceful shutdown: flush, work queues dry, checkpoint, ledger."""
        if self.draining:
            await self.drained.wait()
            return
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for batcher in self.batchers:
            await batcher.aclose()
        for shard in self.shards:
            if shard.crashed:
                # no worker to drain this queue — fail it so join() and
                # in-flight futures resolve instead of hanging the drain
                shard._fail_queue()
        for shard in self.shards:
            await shard.queue.join()
        for shard in self.shards:
            await shard.stop()
        if self.config.checkpoint_dir is not None:
            pathlib.Path(self.config.checkpoint_dir).mkdir(
                parents=True, exist_ok=True
            )
            for shard in self.shards:
                shard.checkpoint(
                    self.config.shard_checkpoint(shard.shard_id)
                )
        # stop the owned sampler before the ledger record is written so
        # the record can point at the flushed profile artifact; a shared
        # (injected) sampler keeps running — its owner flushes it
        if self.sampler is not None and self._sampler_owned:
            profile = self.sampler.stop()
            if self.config.profile_out is not None:
                self.profile_path = profile.write(self.config.profile_out)
        if self.config.ledger_dir is not None:
            self._write_ledger()
        if (
            self.telemetry is not None
            and self.telemetry.trace_path is not None
        ):
            self.telemetry.write_trace()
        # close each connection once its replies are flushed: the writer
        # sentinel flushes and closes, EOF ends the handler's read, and
        # the handlers return before the loop ends (a handler cancelled
        # at loop teardown makes asyncio print a traceback)
        handlers = []
        for conn in list(self._connections):
            conn.out.put_nowait(None)
            conn.reader.feed_eof()
            handlers.append(conn.handler)
        if handlers:
            await asyncio.wait(handlers, timeout=_CLOSE_GRACE_S)
        self.drained.set()

    def _write_ledger(self) -> None:
        from ..obs.ledger import LedgerSink

        cfg = self.config
        wall = (
            self._now() - self.started_at
            if self.started_at is not None
            else None
        )
        sink = LedgerSink(
            kind="serve",
            algorithm=cfg.algorithm,
            generator=cfg.generator,
            config={
                "shards": cfg.shards,
                "capacity": cfg.capacity,
                "indexed": cfg.indexed,
                "batch_max": cfg.batch_max,
                "batch_delay": cfg.batch_delay,
                "max_queue": cfg.max_queue,
                "resumed": cfg.resume,
            },
            ledger_dir=cfg.ledger_dir,
            wall_s=wall,
            profile_info=self._profile_info(),
        )
        sink.emit(self._metrics_snapshot())
        self.ledger_path = sink.last_path

    def _profile_info(self) -> Optional[dict]:
        """Sampler stats + artifact pointer for the ledger (never gated)."""
        if self.sampler is None:
            return None
        profile = (
            self.sampler.profile
            if self.sampler.profile is not None
            else self.sampler.snapshot()
        )
        info = {"sampler": profile.stats()}
        if self.profile_path is not None:
            info["artifact"] = str(self.profile_path)
        return info

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(
            writer=writer, reader=reader, handler=asyncio.current_task()
        )
        self._connections.add(conn)
        writer_task = asyncio.get_running_loop().create_task(
            self._write_replies(conn)
        )
        cancelled = False
        try:
            tail = b""  # a partial last line, completed by the next read
            while True:
                try:
                    data = await reader.read(_READ_SIZE)
                except ConnectionError:
                    break  # reset: nobody is left to answer
                if not data:
                    if tail:  # a last line without its newline
                        await self._serve_lines(tail, len(tail), conn)
                    break
                if tail:
                    data = tail + data
                stop = data.rfind(b"\n") + 1
                tail = data[stop:]
                if stop and not await self._serve_lines(data, stop, conn):
                    break
                if len(tail) > MAX_LINE:
                    conn.send(error_reply("bad-request", "line too long"))
                    break
        except asyncio.CancelledError:
            cancelled = True
            raise
        finally:
            try:
                if not cancelled:  # the peer is done: answer what it sent
                    if conn.pending:
                        conn.idle = asyncio.Event()
                        await conn.idle.wait()
                    conn.out.put_nowait(None)
                    await writer_task
            finally:
                if not writer_task.done():
                    # cancelled (e.g. loop teardown): the shards owing
                    # replies may never answer, so close without waiting
                    writer_task.cancel()
                    writer.close()
                self._connections.discard(conn)

    async def _write_replies(self, conn: _Connection) -> None:
        writer = conn.writer
        done = False
        try:
            while not done:
                # coalesce: everything queued right now goes out in one
                # write + one drain, not one syscall round-trip per chunk
                chunk = await conn.out.get()
                chunks = []
                finished = None  # telemetry contexts riding with replies
                while chunk is not None:
                    if type(chunk) is tuple:
                        chunk, ctxs = chunk
                        if finished is None:
                            finished = []
                        finished += ctxs
                    chunks.append(chunk)
                    try:
                        chunk = conn.out.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                else:
                    done = True
                if chunks:
                    writer.write(b"".join(chunks))
                    await writer.drain()
                    if finished is not None:
                        # one timestamp for the coalesced chunk: the
                        # write phase ends when the bytes are flushed
                        t_written = self._now()
                        for ctx in finished:
                            self.telemetry.finish(ctx, t_written)
        except (ConnectionError, RuntimeError):
            pass  # peer went away mid-write; nothing left to tell it
        finally:
            try:
                writer.close()
            except RuntimeError:  # pragma: no cover - loop shutdown race
                pass

    async def _serve_lines(
        self, data: bytes, stop: int, conn: _Connection
    ) -> bool:
        """Parse and route the lines of ``data[:stop]``, in order;
        ``False`` when one is too long and the connection must close.

        A canonical ``arrive`` line joins its shard's pending columns
        here, when the shard would take it: no shard that is down, no
        full queue, no drain.  Those states change only while this
        coroutine awaits, so they are read once per shard between
        awaits.  Every other line, and a canonical one a shard would
        refuse, takes the per-line path (:meth:`_dispatch`), which
        answers it as it answers any line.
        """
        shards, batchers = self.shards, self.batchers
        shard_for = self.ring.shard_for
        t_recv = self._now()
        may_join = [None] * len(shards)  # per shard, until the next await
        joined = 0  # rows joined since the counters were last brought up
        for (line, arrival, departure, size, seq, id_,
             key) in parse_chunk(data, stop, self.telemetry is None):
            if arrival is not None:
                shard_id = shard_for(key)
                ok = may_join[shard_id]
                if ok is None:
                    shard = shards[shard_id]
                    ok = may_join[shard_id] = not (
                        self.draining or shard.crashed or shard.queue.full()
                    )
                if ok:
                    shards[shard_id].inflight += 1
                    batcher = batchers[shard_id]
                    batch = batcher.pending
                    batch.arrivals.append(arrival)
                    batch.departures.append(departure)
                    batch.sizes.append(size)
                    batch.seqs.append(seq)
                    batch.ids.append(id_)
                    batch.conns.append(conn)
                    batch.ctxs.append(t_recv)
                    joined += 1
                    rows = len(batch.seqs)
                    if rows >= batcher.due:
                        self.requests += joined
                        conn.pending += joined
                        joined = 0
                        await batcher.flush(cause="size")
                        may_join = [None] * len(shards)
                    elif rows == 1:  # starts the batch's age timer
                        batcher.added()
                    continue
            if joined:
                self.requests += joined
                conn.pending += joined
                joined = 0
            if len(line) > MAX_LINE + 1:  # longer than MAX_LINE + "\n"
                conn.send(error_reply("bad-request", "line too long"))
                return False
            wait = self._dispatch(line, conn)
            if wait is not None:
                await wait
                may_join = [None] * len(shards)
        self.requests += joined
        conn.pending += joined
        return True

    def _dispatch(
        self, line: bytes, conn: _Connection
    ) -> Optional[Awaitable[None]]:
        """Parse and route one line; returns what :meth:`_route` must
        have awaited before the next line, else ``None``."""
        telemetry = self.telemetry
        t_recv = self._now()
        try:
            req = parse_request(line)
        except ProtocolError as exc:
            if line.strip():  # blank lines are skipped, not answered
                self._count_error(exc.code)
                if telemetry is not None:
                    telemetry.parse_error(exc.code)
                conn.send(exc.reply())
            return None
        self.requests += 1
        return self._route(req, conn, t_recv)

    def _route(
        self, req: Request, conn: _Connection, t_recv: float
    ) -> Optional[Awaitable[None]]:
        """Answer or enqueue one parsed request.

        Returns what the caller must await before the next request (a
        due batcher flush, a ``depart``'s enqueue or an ``advance``
        broadcast), else ``None``.
        """
        telemetry = self.telemetry
        op = req.op
        if op == "ping":
            conn.send(ok_reply("ping", seq=req.seq, v=PROTOCOL_VERSION))
            return None
        if op == "stats":
            conn.send(self._stats_reply(req))
            return None
        if op == "telemetry":
            # admin plane — answered even while draining, like stats
            conn.send(self._telemetry_reply(req))
            return None
        if op == "profile":
            conn.send(self._profile_reply(req))
            return None
        if self.draining:
            self._count_error("draining")
            if telemetry is not None:
                telemetry.refused(None, "draining")
            conn.send(
                error_reply(
                    "draining", "server is draining; no new work",
                    seq=req.seq,
                )
            )
            return None
        if op == "advance":
            return self._broadcast_advance(req, conn)
        shard_id = self.ring.shard_for(req.routing_key)
        shard = self.shards[shard_id]
        if shard.crashed:
            self._count_error("unavailable")
            if telemetry is not None:
                telemetry.refused(shard_id, "unavailable")
            conn.send(
                error_reply(
                    "unavailable",
                    f"shard {shard_id} is down — retry after recovery",
                    seq=req.seq,
                    retry_after=self._retry_after(shard),
                )
            )
            return None
        if shard.queue.full():
            self._count_error("overloaded")
            if telemetry is not None:
                telemetry.refused(shard_id, "overloaded")
            conn.send(
                error_reply(
                    "overloaded",
                    f"shard {shard_id} queue is full",
                    seq=req.seq,
                    retry_after=self._retry_after(shard),
                )
            )
            return None
        # with telemetry off a request's context is the bare t_recv
        # float (zero extra allocation); with it on, a RequestContext
        # carrying the same t_recv
        ctx = t_recv
        if telemetry is not None:
            ctx = telemetry.begin(req, shard_id, t_recv)
            telemetry.shards[shard_id].queue_depth.set(shard.queue.qsize())
        shard.inflight += 1
        conn.pending += 1
        if op == "depart":
            return self._enqueue_depart(shard, req, conn, ctx)
        if telemetry is not None:
            ctx.t_enqueued = self._now()
        batcher = self.batchers[shard_id]
        batcher.pending.add_request(req, conn, ctx)
        if batcher.added():
            return batcher.flush(cause="size")
        return None

    async def _enqueue_depart(
        self, shard: PlacementShard, req: Request, conn: _Connection, ctx
    ) -> None:
        # ordering: a depart must see every arrival submitted before
        # it, so the shard's pending micro-batch flushes first
        await self.batchers[shard.shard_id].flush()
        if self.telemetry is not None:
            ctx.t_enqueued = ctx.t_queued = self._now()
        ctxs = (ctx,)
        await shard.queue.put(
            ((req,), ctxs, _ReplySlot(self, shard, (conn,), ctxs))
        )

    async def _broadcast_advance(
        self, req: Request, conn: _Connection
    ) -> None:
        """Advance every shard's clock; reply once all have moved."""
        down = [s.shard_id for s in self.shards if s.crashed]
        if down:
            # advance is all-or-nothing: with a shard down the broadcast
            # cannot complete, so tell the client to retry after recovery
            # (advance_to is idempotent at equal time, so resends are safe)
            self._count_error("unavailable")
            conn.send(
                error_reply(
                    "unavailable",
                    f"shards {down} are down — retry after recovery",
                    seq=req.seq,
                )
            )
            return
        futures = []
        for shard_id, shard in enumerate(self.shards):
            await self.batchers[shard_id].flush()
            advance = Request(op="advance", seq=req.seq, time=req.time)
            fut = asyncio.get_running_loop().create_future()
            futures.append(fut)
            shard.inflight += 1

            def _untrack(f, s=shard) -> None:
                s.inflight -= 1

            fut.add_done_callback(_untrack)
            job = ((advance,), None, fut)
            if shard.crashed:  # fail-stopped while we awaited the flush
                shard._fail_job(job)
            else:
                await shard.queue.put(job)
        replies = [r for (r,) in await asyncio.gather(*futures)]
        bad = next((r for r in replies if not r.get("ok")), None)
        if bad is not None:
            self._count_error(bad.get("error", "internal"))
            conn.send(bad)
        else:
            conn.send(
                ok_reply("advance", seq=req.seq, time=req.time,
                         shards=len(self.shards))
            )

    def _retry_after(self, shard: PlacementShard) -> float:
        # one batch window plus a pessimistic per-queued-batch estimate
        return round(
            self.config.batch_delay + 0.002 * (shard.queue.qsize() + 1), 4
        )

    def _count_error(self, code: str) -> None:
        self.errors += 1
        self.error_codes[code] = self.error_codes.get(code, 0) + 1

    def _wire(self, reply: dict) -> bytes:
        """A shard's dict reply as wire bytes, its error counted."""
        if reply.get("ok") is False:
            self._count_error(reply.get("error", "internal"))
        return encode(reply)

    # ------------------------------------------------------------------ #
    # Stats / metrics
    # ------------------------------------------------------------------ #
    def merged_metrics(self) -> Optional[EngineMetrics]:
        """One fleet-wide :class:`EngineMetrics` (None when disabled)."""
        registries = [
            s.engine.metrics for s in self.shards
            if s.engine.metrics is not None
        ]
        if not registries:
            return None
        merged = EngineMetrics()
        for registry in registries:
            merged.merge(registry)
        return merged

    def merged_request_latency(self) -> Histogram:
        merged = Histogram(LATENCY_EDGES)
        for shard in self.shards:
            merged.merge(shard.request_latency)
        return merged

    def totals(self) -> dict:
        per_shard = [s.stats() for s in self.shards]
        times = [s["time"] for s in per_shard if s["time"] is not None]
        return {
            "requests": self.requests,
            "errors": self.errors,
            "error_codes": dict(sorted(self.error_codes.items())),
            "accepted": sum(s["accepted"] for s in per_shard),
            "rejected": sum(s["rejected"] for s in per_shard),
            "items": sum(s["items"] for s in per_shard),
            "departures": sum(s["departures"] for s in per_shard),
            "open_bins": sum(s["open_bins"] for s in per_shard),
            "bins_opened": sum(s["bins_opened"] for s in per_shard),
            "max_open": sum(s["max_open"] for s in per_shard),
            "cost": sum(s["cost"] for s in per_shard),
            "queue_depth": sum(s["queue_depth"] for s in per_shard),
            "inflight": sum(s["inflight"] for s in per_shard),
            "time": max(times) if times else None,
        }

    def _stats_reply(self, req: Request) -> dict:
        return ok_reply(
            "stats",
            seq=req.seq,
            v=PROTOCOL_VERSION,
            algorithm=self.config.algorithm,
            shards=len(self.shards),
            draining=self.draining,
            totals=self.totals(),
            per_shard=[s.stats() for s in self.shards],
            request_latency=self.merged_request_latency().to_dict(),
        )

    def _telemetry_reply(self, req: Request) -> dict:
        if self.telemetry is None:
            return ok_reply(
                "telemetry", seq=req.seq, v=PROTOCOL_VERSION, enabled=False
            )
        return ok_reply(
            "telemetry",
            seq=req.seq,
            v=PROTOCOL_VERSION,
            enabled=True,
            snapshot=self.telemetry.snapshot(self.shards),
        )

    def _profile_reply(self, req: Request) -> dict:
        if self.sampler is None:
            return ok_reply(
                "profile", seq=req.seq, v=PROTOCOL_VERSION, enabled=False
            )
        from ..obs.prof import top_functions

        profile = self.sampler.snapshot()
        total = profile.total_weight
        top = [
            {
                "name": frame.name,
                "file": frame.file,
                "line": frame.line,
                "self": self_w,
                "cum": cum_w,
            }
            for frame, self_w, cum_w in top_functions(profile, 15)
        ]
        return ok_reply(
            "profile",
            seq=req.seq,
            v=PROTOCOL_VERSION,
            enabled=True,
            running=self.sampler.running,
            stats=profile.stats(),
            total_weight=total,
            top=top,
        )

    def _metrics_snapshot(self) -> dict:
        merged = self.merged_metrics()
        snap = merged.snapshot() if merged is not None else {}
        snap.setdefault("timings", {})["request_latency"] = (
            self.merged_request_latency().to_dict()
        )
        snap["service"] = self.totals()
        if self.telemetry is not None:
            # excluded from sentinel gating via NONDETERMINISTIC_PREFIXES
            # ("metrics.telemetry"): durations are wall-clock noise
            snap["telemetry"] = self.telemetry.snapshot(self.shards)
        return snap

    def __repr__(self) -> str:
        state = (
            "draining" if self.draining
            else "serving" if self._server is not None
            else "new"
        )
        return (
            f"PlacementServer({self.config.algorithm!r}, "
            f"shards={self.config.shards}, {state}, "
            f"requests={self.requests})"
        )
