"""SimNet: an in-process, fault-injecting, deterministic network.

Implements the :class:`repro.serve.transport.Transport` seam with **no
sockets at all**: a "connection" is a pair of one-way pipes, each
feeding a real :class:`asyncio.StreamReader` through the event loop's
timer queue.  Because delivery happens via ``call_later`` on a
:class:`~repro.testkit.clock.SimLoop`, the entire network — latency,
loss, reordering, resets — lives on the virtual clock and is a pure
function of the seed.

Faults are injected **per write** (the service writes one JSONL frame
per ``write()`` on the client side, and coalesced frame runs on the
server side), drawn from one seeded :class:`random.Random`:

``drop``
    the frame silently vanishes (the classic lost ack);
``delay``
    the frame arrives up to ``delay_s`` later; FIFO order is preserved
    (like TCP) unless ``reorder`` fires;
``reorder``
    the frame is held back so frames written *after* it arrive first;
``truncate``
    a prefix of the frame arrives, then the connection dies mid-line
    (what a crashed peer looks like on the wire);
``disconnect``
    the connection is reset without delivering the frame.

The active :class:`SimNetPolicy` can be swapped at any virtual time
(:meth:`SimNet.set_policy`), which is how a :class:`FaultPlan` opens
and closes network-degradation windows.
"""

from __future__ import annotations

import asyncio
import random
from collections import deque
from dataclasses import asdict, dataclass
from typing import Deque, Dict, List, Optional, Tuple, Union

from ..serve.transport import ConnectionHandler

__all__ = ["SimNet", "SimNetPolicy"]

#: where SimNet's port allocator starts when asked for port 0
_BASE_PORT = 40000


@dataclass(frozen=True)
class SimNetPolicy:
    """Per-frame fault probabilities (all default to a perfect network)."""

    drop: float = 0.0
    delay: float = 0.0  #: probability a frame is delayed at all
    delay_s: float = 0.05  #: max added latency when ``delay`` fires
    reorder: float = 0.0
    truncate: float = 0.0
    disconnect: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "SimNetPolicy":
        return cls(**{k: float(obj.get(k, 0.0)) for k in (
            "drop", "delay", "delay_s", "reorder", "truncate", "disconnect"
        )})


#: the no-fault policy frames are delivered under between windows
PERFECT = SimNetPolicy()


class _SimConnection:
    """One bidirectional connection: two pipes sharing a fate."""

    def __init__(self, net: "SimNet") -> None:
        self.net = net
        self.alive = True
        self.pipes: List["_SimPipe"] = []

    def kill(self) -> None:
        """Abrupt reset: both directions fail with ConnectionResetError."""
        if not self.alive:
            return
        self.alive = False
        for pipe in self.pipes:
            pipe.reset()


class _Eof:
    """Queue sentinel: graceful end-of-stream for one pipe."""


class _Reset:
    """Queue sentinel: the connection dies when this reaches the head."""


_EOF = _Eof()
_RESET = _Reset()


class _SimPipe:
    """One direction of a connection: writer bytes → peer's reader.

    In-order delivery is **structural**, not timer-based: frames (and
    EOF/reset markers) join a FIFO queue at write time, and each
    scheduled callback pops the queue's head.  ``call_at`` ties at equal
    virtual times therefore cannot swap frames — the event loop's timer
    heap is not stable for equal deadlines, so ordering must never
    depend on it.  Only the ``reorder`` fault bypasses the queue.
    """

    def __init__(self, conn: _SimConnection) -> None:
        self.conn = conn
        self.reader = asyncio.StreamReader()
        self._last_when = 0.0  # FIFO floor for in-order delivery
        self._eof_sent = False
        self._eof_fed = False
        self._pending: Deque[Union[bytes, _Eof, _Reset]] = deque()

    # ------------------------------------------------------------------ #
    # Write path (fault injection lives here)
    # ------------------------------------------------------------------ #
    def write(self, data: bytes) -> None:
        if not data or self._eof_sent or not self.conn.alive:
            return
        net = self.conn.net
        rng = net.rng
        policy = net.policy
        loop = asyncio.get_event_loop()
        now = loop.time()
        if policy.drop and rng.random() < policy.drop:
            net.frames_dropped += 1
            return
        if policy.disconnect and rng.random() < policy.disconnect:
            net.connections_reset += 1
            self.conn.kill()
            return
        if policy.truncate and rng.random() < policy.truncate:
            # deliver a strict prefix, then die mid-line
            cut = rng.randrange(1, len(data)) if len(data) > 1 else 1
            net.frames_truncated += 1
            self._schedule(loop, now, data[:cut])
            # the reset must arrive *after* the prefix
            self._schedule(loop, now, _RESET)
            return
        delay = 0.0
        if policy.delay and rng.random() < policy.delay:
            delay = rng.uniform(0.0, policy.delay_s)
            net.frames_delayed += 1
        if policy.reorder and rng.random() < policy.reorder:
            # hold this frame back *without* raising the FIFO floor, so
            # frames written later may overtake it
            extra = rng.uniform(0.0, policy.delay_s or 0.01)
            net.frames_reordered += 1
            when = now + delay + extra
            loop.call_at(when, self._deliver, data)
            return
        self._schedule(loop, now, data, delay)

    def _schedule(self, loop, now: float, item,
                  delay: float = 0.0) -> None:
        when = max(now + delay, self._last_when)  # TCP never reorders
        self._last_when = when
        self._pending.append(item)
        loop.call_at(when, self._pump)

    def _pump(self) -> None:
        if not self._pending:  # pragma: no cover - defensive
            return
        item = self._pending.popleft()
        if isinstance(item, _Reset):
            self.conn.kill()
        elif isinstance(item, _Eof):
            self._feed_eof()
        else:
            self._deliver(item)

    def _deliver(self, data: bytes) -> None:
        if self.conn.alive and not self._eof_fed:
            self.reader.feed_data(data)

    # ------------------------------------------------------------------ #
    # Teardown
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Graceful close of this direction (peer sees EOF)."""
        if not self._eof_sent and self.conn.alive:
            self._eof_sent = True
            loop = asyncio.get_event_loop()
            self._schedule(loop, loop.time(), _EOF)

    def _feed_eof(self) -> None:
        if self.conn.alive and not self._eof_fed:
            self._eof_fed = True
            try:
                self.reader.feed_eof()
            except AssertionError:  # pragma: no cover - already reset
                pass

    def reset(self) -> None:
        self._eof_fed = True  # no further feed_data after the reset
        self.reader.set_exception(
            ConnectionResetError("simulated connection reset")
        )
        # Subtle: a reader task that feed_data() already made runnable
        # re-enters its wait *without* re-checking the exception
        # (StreamReader.readuntil only checks on entry), so it would
        # block forever.  Feeding EOF too makes that path raise
        # IncompleteReadError instead; the next read sees the exception.
        try:
            self.reader.feed_eof()
        except (AssertionError, RuntimeError):  # pragma: no cover
            pass


class _SimWriter:
    """The stream-writer subset the service uses, over a :class:`_SimPipe`."""

    def __init__(self, pipe: _SimPipe) -> None:
        self._pipe = pipe

    def write(self, data: bytes) -> None:
        self._pipe.write(data)

    async def drain(self) -> None:
        if not self._pipe.conn.alive:
            raise ConnectionResetError("simulated connection reset")
        await asyncio.sleep(0)  # a real drain yields to the loop

    def close(self) -> None:
        self._pipe.close()

    def is_closing(self) -> bool:
        return self._pipe._eof_sent or not self._pipe.conn.alive

    async def wait_closed(self) -> None:
        await asyncio.sleep(0)

    def get_extra_info(self, name: str, default=None):  # pragma: no cover
        return default


class _SimServerHandle:
    """A SimNet listener (the transport's ``ServerHandle``)."""

    def __init__(self, net: "SimNet", port: int) -> None:
        self._net = net
        self._port = port

    @property
    def port(self) -> int:
        return self._port

    def close(self) -> None:
        self._net._listeners.pop(self._port, None)

    async def wait_closed(self) -> None:
        await asyncio.sleep(0)


class SimNet:
    """The simulated network (a :class:`~repro.serve.transport.Transport`).

    One instance is one "universe": a seeded RNG, a mutable fault
    policy, a port namespace, and counters of every fault actually
    injected (so a chaos report can say *what happened*, not just what
    was configured).
    """

    def __init__(
        self, *, seed: int = 0, policy: Optional[SimNetPolicy] = None
    ) -> None:
        self.rng = random.Random(seed)
        self.policy = policy if policy is not None else PERFECT
        self._listeners: Dict[int, ConnectionHandler] = {}
        self._next_port = _BASE_PORT
        self._connections: List[_SimConnection] = []
        self._handler_tasks: List[asyncio.Task] = []
        self.frames_dropped = 0
        self.frames_delayed = 0
        self.frames_reordered = 0
        self.frames_truncated = 0
        self.connections_reset = 0

    # ------------------------------------------------------------------ #
    # Fault-window control (driven by the FaultPlan at virtual times)
    # ------------------------------------------------------------------ #
    def set_policy(self, policy: SimNetPolicy) -> None:
        self.policy = policy

    def clear_policy(self) -> None:
        self.policy = PERFECT

    def fault_counts(self) -> dict:
        return {
            "frames_dropped": self.frames_dropped,
            "frames_delayed": self.frames_delayed,
            "frames_reordered": self.frames_reordered,
            "frames_truncated": self.frames_truncated,
            "connections_reset": self.connections_reset,
        }

    # ------------------------------------------------------------------ #
    # Transport protocol
    # ------------------------------------------------------------------ #
    async def start_server(
        self, handler: ConnectionHandler, host: str, port: int
    ) -> _SimServerHandle:
        if port == 0:
            port = self._next_port
            self._next_port += 1
        if port in self._listeners:
            raise OSError(f"simulated port {port} already in use")
        self._listeners[port] = handler
        return _SimServerHandle(self, port)

    async def open_connection(
        self, host: str, port: int
    ) -> Tuple[asyncio.StreamReader, _SimWriter]:
        handler = self._listeners.get(port)
        if handler is None:
            raise ConnectionRefusedError(
                f"no simulated listener on port {port}"
            )
        conn = _SimConnection(self)
        c2s = _SimPipe(conn)  # client writes → server reads
        s2c = _SimPipe(conn)  # server writes → client reads
        conn.pipes = [c2s, s2c]
        self._connections.append(conn)
        task = asyncio.get_event_loop().create_task(
            handler(c2s.reader, _SimWriter(s2c)),
            name=f"simnet-conn-{len(self._connections)}",
        )
        self._handler_tasks.append(task)
        return s2c.reader, _SimWriter(c2s)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SimNet(listeners={sorted(self._listeners)}, "
            f"conns={len(self._connections)}, faults={self.fault_counts()})"
        )
