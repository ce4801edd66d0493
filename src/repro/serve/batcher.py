"""Micro-batching: group near-simultaneous arrivals before the kernel.

The batch frontend's semantics let many items share one arrival instant
(ties processed in release order); a network service sees those same
simultaneous arrivals as a burst of separate requests.  The
:class:`MicroBatcher` sits between a connection and a shard queue and
re-creates the batch: it holds incoming work until either

- ``max_batch`` pieces are pending (**flush on size**), or
- ``max_delay`` seconds have passed since the oldest pending piece
  arrived (**flush on age**),

then hands the whole batch to its ``sink`` in arrival order.  One queue
slot then carries the whole burst, so a shard pays one scheduling
round-trip per batch instead of per request.

The pending batch is a :class:`~repro.serve.shard.RequestBatch` of
item columns: the caller appends rows to :attr:`~MicroBatcher.pending`
itself and then calls :meth:`~MicroBatcher.added`, so the batcher keeps
no entry of its own per row.  Degenerate configurations short-circuit:
``max_batch=1`` or ``max_delay=0`` means every
:meth:`~MicroBatcher.added` reports the batch due at once (batching
off — the default, and what the parity harness uses).

The batcher never reorders or drops work, and :meth:`aclose` flushes the
remainder — the server's drain path calls it so a SIGTERM cannot strand
accepted-but-unflushed requests.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Optional

from .shard import RequestBatch

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Flush-on-size / flush-on-age buffering in front of an async sink.

    Parameters
    ----------
    sink:
        ``async def sink(batch) -> None`` receiving each flushed batch
        (in submission order, never empty).
    max_batch:
        Flush as soon as this many pieces are pending (≥ 1).
    max_delay:
        Flush this many seconds after the *first* pending piece arrived,
        even if the batch is not full.  ``0`` disables batching.
    observer:
        Optional ``observer(size, cause)`` called synchronously on every
        flush with the batch size and what triggered it (``"size"``,
        ``"age"``, or ``"forced"`` for explicit :meth:`flush`/
        :meth:`aclose` calls).  The telemetry plane uses this for its
        batch-size histogram and flush-cause counters; ``None`` (the
        default) costs nothing.
    """

    def __init__(
        self,
        sink: Callable[..., Awaitable[None]],
        *,
        max_batch: int = 1,
        max_delay: float = 0.0,
        observer: Optional[Callable[[int, str], None]] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        self.sink = sink
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.observer = observer
        self.batches_flushed = 0
        self.pieces = 0  #: rows flushed
        #: the batch rows are appended to until it flushes
        self.pending = RequestBatch()
        #: the size at which a batch is due (1 with batching off)
        self.due = max_batch if max_delay else 1
        self._timer: Optional[asyncio.TimerHandle] = None
        self._flush_task: Optional[asyncio.Task] = None
        self._closed = False

    def __len__(self) -> int:
        return len(self.pending)

    def added(self) -> bool:
        """Note rows just appended to :attr:`pending`, without awaiting.

        Returns ``True`` when the batch is due (full, or batching off):
        the caller then awaits ``flush(cause="size")`` itself.  A caller
        with many rows at hand adds them all this way and awaits only on
        the flushes.  Otherwise the first row of a batch starts its age
        timer, so a caller that knows the batch's size need call this
        only for its first row and when it reaches :attr:`due`.
        """
        if self._closed:
            raise RuntimeError("batcher is closed")
        if len(self.pending) >= self.due:
            return True
        if self._timer is None:
            loop = asyncio.get_running_loop()
            self._timer = loop.call_later(self.max_delay, self._fire)
        return False

    def _fire(self) -> None:
        """Timer callback: flush from a task (timers can't await)."""
        self._timer = None
        if len(self.pending) and self._flush_task is None:
            self._flush_task = asyncio.get_running_loop().create_task(
                self._timed_flush()
            )

    async def _timed_flush(self) -> None:
        try:
            await self.flush(cause="age")
        finally:
            self._flush_task = None

    async def flush(self, *, cause: str = "forced") -> None:
        """Hand everything pending to the sink now (no-op when empty)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        batch = self.pending
        size = len(batch)
        if not size:
            return
        self.pending = RequestBatch()
        self.batches_flushed += 1
        self.pieces += size
        if self.observer is not None:
            self.observer(size, cause)
        await self.sink(batch)

    async def aclose(self) -> None:
        """Flush the remainder and refuse further work."""
        self._closed = True
        if self._flush_task is not None:
            await self._flush_task
        await self.flush()
