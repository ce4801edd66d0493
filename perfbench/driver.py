"""The load driver: one pipelined JSONL connection, closed or open loop.

Requests are written as pre-formatted wire lines (``seq`` = item index)
and replies are matched back by ``seq`` in the connection's reader
task, which stamps each completion with ``perf_counter()``.  Two ways
to offer load:

- :meth:`Driver.closed_loop` keeps ``window`` arrivals in flight and
  sends the next one from the reply callback (saturation throughput);
- :meth:`Driver.open_loop` sends item ``j`` of a phase when it is due,
  at ``t0 + j/rate``, whatever the server is doing.  Latency is timed
  from the *due* time, so a stall also charges the requests queued
  behind it, and the driver records how late it sent each request.

Every phase consumes the next items of one arrival-ordered stream, so
the server's kernels see one continuous trace and every decision can be
checked against batch ``simulate()`` afterwards.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import selectors
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

_now = time.perf_counter


@dataclass
class Phase:
    """What one phase of load did (indices ``[start, stop)``)."""

    start: int
    stop: int
    t0: float
    elapsed: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    lag_ms: List[float] = field(default_factory=list)
    errors: int = 0

    @property
    def n(self) -> int:
        return self.stop - self.start


def new_loop() -> asyncio.AbstractEventLoop:
    """An event loop whose timers have microsecond resolution.

    ``select()`` takes its timeout in microseconds where ``epoll`` takes
    milliseconds, so the open-loop sender can sleep until each request
    is due instead of spinning a core the server under test may need.
    """
    return asyncio.SelectorEventLoop(selectors.SelectSelector())


def arrive_line(i: int, tenant: str, arrival: float, departure: float,
                size: float) -> bytes:
    """Item ``i``'s ``arrive`` request (``seq`` = ``i``) as a wire line."""
    return (f'{{"op":"arrive","id":{i},"tenant":"{tenant}",'
            f'"arrival":{arrival!r},"departure":{departure!r},'
            f'"size":{size!r},"seq":{i}}}\n').encode()


def advance_line(i: int, time: float) -> bytes:
    """The ``advance`` broadcast sent after item ``i`` (``seq`` "a<i>")."""
    return f'{{"op":"advance","time":{time!r},"seq":"a{i}"}}\n'.encode()


class Driver:
    """Drives one connection with one workload's item stream."""

    def __init__(self, reader, writer, arrivals, departures, sizes,
                 tenants: List[str], advance_every: int = 0) -> None:
        self.reader = reader
        self.writer = writer
        self.arr = arrivals
        self.dep = departures
        self.siz = sizes
        self.tenants = tenants
        self.advance_every = advance_every
        n = len(arrivals)
        self.sent = 0  #: next item index to send
        self.bins: List[Optional[int]] = [None] * n
        self.opened: List[Optional[bool]] = [None] * n
        self.done = [math.nan] * n
        self.error_codes: Dict[str, int] = {}
        self._inflight = 0
        self._refill = None  # closed-loop: called after each item reply
        self._idle: Optional[asyncio.Event] = None
        self._admin: Dict[str, asyncio.Future] = {}
        self._admin_seq = 0
        self._advance_sent: Dict[str, float] = {}
        self.advance_us: List[float] = []
        self._task = asyncio.get_running_loop().create_task(self._read())

    @classmethod
    async def connect(cls, port: int, *, transport=None, **kw) -> "Driver":
        if transport is None:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
        else:
            reader, writer = await transport.open_connection(
                "127.0.0.1", port)
        return cls(reader, writer, **kw)

    # -------------------------------------------------------------- #
    # Wire
    # -------------------------------------------------------------- #
    def _send_item(self) -> None:
        i = self.sent
        self.sent = i + 1
        self._inflight += 1
        self.writer.write(arrive_line(
            i, self.tenants[i % len(self.tenants)], self.arr[i],
            self.dep[i], self.siz[i]))
        k = self.advance_every
        if k and (i + 1) % k == 0:
            self._advance_sent[f"a{i}"] = _now()
            self.writer.write(advance_line(i, self.arr[i]))

    async def _read(self) -> None:
        reader = self.reader
        loads = json.loads
        while True:
            line = await reader.readline()
            if not line:
                break
            t = _now()
            reply = loads(line)
            seq = reply.get("seq")
            if type(seq) is int:
                self._inflight -= 1
                self.done[seq] = t
                if reply.get("ok"):
                    self.bins[seq] = reply["bin"]
                    self.opened[seq] = reply["opened"]
                else:
                    code = reply.get("error", "internal")
                    self.error_codes[code] = self.error_codes.get(code, 0) + 1
                if self._refill is not None:
                    self._refill()
                if self._inflight == 0 and self._idle is not None:
                    self._idle.set()
            elif seq in self._advance_sent:
                self.advance_us.append(1e6 * (t - self._advance_sent.pop(seq)))
                if not reply.get("ok"):
                    code = reply.get("error", "internal")
                    self.error_codes[code] = self.error_codes.get(code, 0) + 1
            else:
                fut = self._admin.pop(seq, None)
                if fut is not None and not fut.done():
                    fut.set_result(reply)
        for fut in self._admin.values():
            if not fut.done():
                fut.set_exception(ConnectionError("server closed"))

    async def request(self, obj: dict, timeout: float = 60.0) -> dict:
        """One admin/advance request, awaited (not part of any phase)."""
        self._admin_seq += 1
        seq = f"r{self._admin_seq}"
        fut = asyncio.get_running_loop().create_future()
        self._admin[seq] = fut
        self.writer.write((json.dumps(dict(obj, seq=seq)) + "\n").encode())
        return await asyncio.wait_for(fut, timeout)

    async def _wait_idle(self, timeout: float = 60.0) -> None:
        if self._inflight:
            self._idle = asyncio.Event()
            try:
                await asyncio.wait_for(self._idle.wait(), timeout)
            finally:
                self._idle = None

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass
        await self._task

    def _buffered(self) -> int:
        transport = getattr(self.writer, "transport", None)
        return 0 if transport is None else transport.get_write_buffer_size()

    @property
    def remaining(self) -> int:
        return len(self.arr) - self.sent

    # -------------------------------------------------------------- #
    # Phases
    # -------------------------------------------------------------- #
    def _finish(self, phase: Phase, dues: Optional[List[float]]) -> Phase:
        errors = 0
        lat = phase.latencies_ms
        for j, i in enumerate(range(phase.start, phase.stop)):
            if self.bins[i] is None:
                errors += 1
                # a refused request misses any limit: charge it the
                # whole phase, longer than any reply inside it took
                lat.append(1e3 * max(phase.elapsed, 1.0))
            elif dues is not None:
                lat.append(1e3 * (self.done[i] - dues[j]))
        phase.errors = errors
        return phase

    async def closed_loop(self, *, seconds: float = 0.0, items: int = 0,
                          window: int = 32) -> Phase:
        """Keep ``window`` arrivals in flight for ``seconds`` or ``items``."""
        budget = items or self.remaining
        stop_at = self.sent + min(budget, self.remaining)
        phase = Phase(self.sent, self.sent, _now())
        deadline = phase.t0 + seconds if seconds else math.inf

        def refill() -> None:
            if self.sent < stop_at and _now() < deadline:
                self._send_item()

        gc.disable()
        try:
            self._refill = refill
            for _ in range(min(window, stop_at - self.sent)):
                self._send_item()
            await self._wait_idle()
        finally:
            self._refill = None
            gc.enable()
        phase.stop = self.sent
        phase.elapsed = _now() - phase.t0
        return self._finish(phase, None)

    async def open_loop(self, rate: float, seconds: float) -> Phase:
        """Offer ``rate`` arrivals/s for ``seconds``; time from due time."""
        n = min(int(rate * seconds), self.remaining)
        start = self.sent
        gc.collect()
        gc.disable()
        t0 = _now() + 0.002
        dues = [t0 + j / rate for j in range(n)]
        lag = []
        try:
            j = 0
            while j < n:
                now = _now()
                if now < dues[j]:
                    # needs the select()-based loop (see ``new_loop``):
                    # epoll would round this sleep up to a millisecond
                    await asyncio.sleep(dues[j] - now)
                    continue
                while j < n and dues[j] <= now:
                    lag.append(1e3 * (now - dues[j]))
                    self._send_item()
                    j += 1
                if self._buffered() > 1 << 16:
                    await self.writer.drain()
            await self._wait_idle()
        finally:
            gc.enable()
        phase = Phase(start, self.sent, t0, elapsed=_now() - t0)
        phase.lag_ms = lag
        return self._finish(phase, dues)
