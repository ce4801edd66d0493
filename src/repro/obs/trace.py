"""Lightweight span/event tracing with a bounded ring buffer.

A :class:`Tracer` records two kinds of entries, timestamped off a
monotonic ``perf_counter_ns`` epoch fixed at construction (or an
injected ``clock_ns`` — the serve telemetry plane passes the service
clock through so traces recorded under the chaos harness's virtual
clock are a pure function of the fault plan):

- **events** — instantaneous points (``dur_ns == 0``);
- **spans** — nested regions opened with the :meth:`Tracer.span` context
  manager.  A span is appended when it *closes* (standard exit-ordered
  tracing), carrying the depth it ran at, so children precede their
  parent in the buffer and nesting is reconstructible from
  ``(t_ns, dur_ns, depth)`` alone.

The buffer is a fixed-capacity ring: once full, the oldest entries are
evicted and counted in :attr:`Tracer.dropped` — tracing a 10⁸-event
replay can never exhaust memory.  Export is JSONL, one entry per line,
the same convention as the engine's trace streams; ``repro-dbp obs
summarize`` aggregates such files back into a terminal report.

:class:`TracingListener` adapts a tracer to the kernel's
:class:`~repro.core.kernel.KernelListener` protocol, so every
open/place/depart/close/advance of a
:class:`~repro.core.kernel.PlacementKernel` becomes a trace event
without touching kernel semantics.  Attach it via the kernel's listener
fan-out (``Engine(tracer=...)`` or ``simulate(listener=...)``).  Its
callbacks early-return while the tracer is disabled; the engine
additionally skips attaching the listener altogether when handed a
tracer that is disabled at construction time, which is what keeps the
tracing-off overhead under the benchmarked 5% bar — treat
:attr:`Tracer.enabled` as a construct-time switch, not a mid-run toggle.
"""

from __future__ import annotations

import json
import pathlib
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Union

from ..core.bins import Bin
from ..core.item import Item
from ..core.kernel import KernelListener

__all__ = ["TraceEvent", "Tracer", "TracingListener", "read_trace"]

#: default ring capacity — enough for a 32k-event window, ~a few MB
DEFAULT_CAPACITY = 1 << 15


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One recorded entry: an instantaneous event or a closed span."""

    name: str
    kind: str  #: ``"event"`` or ``"span"``
    t_ns: int  #: start, nanoseconds since the tracer's epoch
    dur_ns: int  #: 0 for instantaneous events
    depth: int  #: span-nesting depth the entry was recorded at
    fields: dict = field(default_factory=dict)

    @property
    def end_ns(self) -> int:
        return self.t_ns + self.dur_ns

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "kind": self.kind,
            "t_ns": self.t_ns,
            "dur_ns": self.dur_ns,
            "depth": self.depth,
        }
        if self.fields:
            d["fields"] = self.fields
        return d


class Tracer:
    """Bounded-memory recorder of spans and events.

    Parameters
    ----------
    capacity:
        Ring-buffer size; the oldest entries are evicted (and counted in
        :attr:`dropped`) once it fills.
    enabled:
        When false every recording call is a cheap no-op.  Decide this
        before attaching the tracer to an engine/kernel: frontends may
        skip wiring a disabled tracer entirely.
    clock_ns:
        Nanosecond clock used for the epoch and every timestamp;
        defaults to ``time.perf_counter_ns``.  Inject a deterministic
        clock (e.g. the :class:`~repro.testkit.clock.SimLoop` time) to
        make recorded traces replayable bit-for-bit.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        *,
        enabled: bool = True,
        clock_ns=None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.enabled = enabled
        self._buf: deque[TraceEvent] = deque(maxlen=capacity)
        self._stack: List[str] = []
        self._clock_ns = clock_ns if clock_ns is not None else time.perf_counter_ns
        self._epoch = self._clock_ns()
        self.total = 0  #: entries ever recorded (including evicted ones)

    # ------------------------------------------------------------------ #
    @property
    def epoch_ns(self) -> int:
        """The clock reading all timestamps are relative to."""
        return self._epoch

    @property
    def depth(self) -> int:
        """Current span-nesting depth."""
        return len(self._stack)

    @property
    def dropped(self) -> int:
        """Entries evicted from the ring so far."""
        return self.total - len(self._buf)

    def __len__(self) -> int:
        return len(self._buf)

    def events(self) -> List[TraceEvent]:
        """The retained entries, oldest first."""
        return list(self._buf)

    def clear(self) -> None:
        self._buf.clear()
        self.total = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def event(self, name: str, **fields) -> None:
        """Record an instantaneous event at the current depth."""
        if not self.enabled:
            return
        self._buf.append(
            TraceEvent(
                name,
                "event",
                self._clock_ns() - self._epoch,
                0,
                len(self._stack),
                fields,
            )
        )
        self.total += 1

    def record(
        self,
        name: str,
        *,
        t_ns: int,
        dur_ns: int = 0,
        depth: int = 0,
        **fields,
    ) -> None:
        """Append a pre-timed span measured outside the tracer.

        The context-manager :meth:`span` only works for regions confined
        to one call stack; request phases that hop across coroutines
        (queue wait, batch residency) are timed by their owners and
        recorded here after the fact.  ``t_ns`` is relative to the
        tracer's epoch — callers timing with the same injected clock can
        pass ``t - epoch_ns`` directly.
        """
        if not self.enabled:
            return
        self._buf.append(
            TraceEvent(name, "span", t_ns, dur_ns, depth, fields)
        )
        self.total += 1

    @contextmanager
    def span(self, name: str, **fields) -> Iterator[None]:
        """A nested timed region; the entry is appended when it closes."""
        if not self.enabled:
            yield
            return
        self._stack.append(name)
        start = self._clock_ns()
        try:
            yield
        finally:
            dur = self._clock_ns() - start
            self._stack.pop()
            self._buf.append(
                TraceEvent(
                    name,
                    "span",
                    start - self._epoch,
                    dur,
                    len(self._stack),
                    fields,
                )
            )
            self.total += 1

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def write_jsonl(self, path: Union[str, pathlib.Path]) -> int:
        """Write the retained entries as JSONL; returns the line count."""
        buf = self._buf
        with pathlib.Path(path).open("w", encoding="utf-8") as fh:
            for ev in buf:
                fh.write(json.dumps(ev.to_dict(), sort_keys=True) + "\n")
        return len(buf)

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (
            f"Tracer({state}, {len(self._buf)}/{self.capacity} buffered, "
            f"{self.dropped} dropped)"
        )


def read_trace(path: Union[str, pathlib.Path]) -> List[TraceEvent]:
    """Load a JSONL trace file back into :class:`TraceEvent` objects."""
    out: List[TraceEvent] = []
    with pathlib.Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            out.append(
                TraceEvent(
                    name=rec["name"],
                    kind=rec.get("kind", "event"),
                    t_ns=rec.get("t_ns", 0),
                    dur_ns=rec.get("dur_ns", 0),
                    depth=rec.get("depth", 0),
                    fields=rec.get("fields", {}),
                )
            )
    return out


class TracingListener(KernelListener):
    """Narrate every kernel event into a :class:`Tracer`.

    Pure observation: no kernel state is touched and nothing here can
    change placement decisions.  The emitted names (``kernel.advance``,
    ``kernel.open``, ``kernel.place``, ``kernel.depart``,
    ``kernel.close``) are part of the obs contract documented in
    ``docs/observability.md``; the ``kernel.open``/``kernel.close``
    subsequence reproduces the kernel's ``ON_t`` event log exactly
    (pinned by the obs test suite).
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def on_advance(self, t: float) -> None:
        if self.tracer.enabled:
            self.tracer.event("kernel.advance", time=t)

    def on_open(self, bin_: Bin) -> None:
        if self.tracer.enabled:
            self.tracer.event(
                "kernel.open", bin=bin_.uid, time=bin_.opened_at
            )

    def on_arrival(self, item: Item, bin_: Bin, opened: bool) -> None:
        if self.tracer.enabled:
            self.tracer.event(
                "kernel.place",
                item=item.uid,
                bin=bin_.uid,
                size=item.size,
                opened=opened,
            )

    def on_departure(
        self,
        uid: int,
        removed: Item,
        bin_: Bin,
        t: float,
        closed: bool,
    ) -> None:
        if self.tracer.enabled:
            self.tracer.event(
                "kernel.depart", item=uid, bin=bin_.uid, time=t, closed=closed
            )

    def on_close(
        self, bin_: Bin, t: float, usage: float, peak: float, n_items: int
    ) -> None:
        if self.tracer.enabled:
            self.tracer.event(
                "kernel.close", bin=bin_.uid, time=t, usage=usage
            )

