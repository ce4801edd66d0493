"""Micro-batcher: flush-on-size, flush-on-age, ordered, lossless."""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.batcher import MicroBatcher


def collector():
    batches = []

    async def sink(batch):
        batches.append(list(batch))

    return batches, sink


async def add(batcher, work):
    """Buffer one piece and flush when it makes the batch due, as the
    server's connection loop does."""
    if batcher.add_nowait(work):
        await batcher.flush(cause="size")


def test_default_flushes_every_add():
    async def main():
        batches, sink = collector()
        batcher = MicroBatcher(sink)
        await add(batcher, 1)
        await add(batcher, 2)
        return batches, batcher

    batches, batcher = asyncio.run(main())
    assert batches == [[1], [2]]
    assert batcher.batches_flushed == 2
    assert batcher.pieces == 2


def test_flush_on_size():
    async def main():
        batches, sink = collector()
        batcher = MicroBatcher(sink, max_batch=3, max_delay=60.0)
        for piece in "abc":
            await add(batcher, piece)
        return batches

    assert asyncio.run(main()) == [["a", "b", "c"]]


def test_flush_on_age():
    async def main():
        batches, sink = collector()
        batcher = MicroBatcher(sink, max_batch=1000, max_delay=0.01)
        await add(batcher, "x")
        await add(batcher, "y")
        assert batches == []  # below size bound, timer not fired yet
        await asyncio.sleep(0.05)
        return batches

    assert asyncio.run(main()) == [["x", "y"]]


def test_age_timer_restarts_after_flush():
    async def main():
        batches, sink = collector()
        batcher = MicroBatcher(sink, max_batch=1000, max_delay=0.01)
        await add(batcher, 1)
        await asyncio.sleep(0.05)
        await add(batcher, 2)
        await asyncio.sleep(0.05)
        return batches

    assert asyncio.run(main()) == [[1], [2]]


def test_manual_flush_cancels_timer_and_preserves_order():
    async def main():
        batches, sink = collector()
        batcher = MicroBatcher(sink, max_batch=1000, max_delay=60.0)
        for k in range(5):
            await add(batcher, k)
        assert len(batcher) == 5
        await batcher.flush()
        assert len(batcher) == 0
        await asyncio.sleep(0)  # a stale timer would double-flush
        return batches

    assert asyncio.run(main()) == [[0, 1, 2, 3, 4]]


def test_aclose_flushes_remainder_and_refuses_more():
    async def main():
        batches, sink = collector()
        batcher = MicroBatcher(sink, max_batch=1000, max_delay=60.0)
        await add(batcher, "tail")
        await batcher.aclose()
        assert batches == [["tail"]]
        with pytest.raises(RuntimeError):
            batcher.add_nowait("late")

    asyncio.run(main())


def test_no_work_is_dropped_across_mixed_flushes():
    async def main():
        batches, sink = collector()
        batcher = MicroBatcher(sink, max_batch=4, max_delay=0.005)
        for k in range(11):
            await add(batcher, k)
            if k == 5:
                await asyncio.sleep(0.02)  # let the age timer fire mid-run
        await batcher.aclose()
        return batches

    batches = asyncio.run(main())
    assert [x for batch in batches for x in batch] == list(range(11))


@pytest.mark.parametrize(
    "kwargs", [{"max_batch": 0}, {"max_delay": -1.0}]
)
def test_invalid_parameters(kwargs):
    with pytest.raises(ValueError):
        MicroBatcher(lambda batch: None, **kwargs)
