"""Trace sources: constant-memory item streams for the engine.

A *source* is an iterable of :class:`~repro.core.item.Item` in
non-decreasing arrival order, or of :class:`~repro.core.store.ItemStore`
chunks (what :meth:`Engine.run <repro.engine.loop.Engine.run>` drains
columnwise).  In-memory :class:`~repro.core.instance.Instance` objects
qualify directly; the helpers here add the file-backed source
(:func:`open_trace`, one chunked columnar reader per format), an
order-validating wrapper, a k-way merge for recombining shards, and
format auto-detection for the CLI.

None of these materialise the trace: a 10⁶-item JSONL file streams
through :func:`open_trace` with at most one chunk of rows resident,
which is what lets ``repro-dbp replay`` keep peak RSS independent of
trace length.
"""

from __future__ import annotations

import heapq
import pathlib
from typing import Iterable, Iterator, Tuple, Union

from ..core.errors import InvalidInstanceError, SimulationError
from ..core.item import Item
from ..core.store import ItemStore
from ..workloads.io import CHUNK_ROWS, iter_csv_stores, iter_jsonl_stores

__all__ = [
    "ItemSource",
    "iter_tuples",
    "ordered",
    "merge",
    "open_trace",
    "trace_format",
]

#: Anything the engine can drain: items in non-decreasing arrival order.
ItemSource = Iterable[Item]


def iter_tuples(
    triples: Iterable[Tuple[float, float, float]]
) -> Iterator[Item]:
    """Lazily adapt ``(arrival, departure, size)`` triples into items.

    Unlike :meth:`Instance.from_tuples` this never sorts or stores the
    input — the triples must already be arrival-ordered.
    """
    for uid, (a, d, s) in enumerate(triples):
        yield Item(a, d, s, uid=uid)


def ordered(source: ItemSource) -> Iterator[Item]:
    """Pass items through, raising on any arrival-order regression.

    The engine performs the same check itself; this wrapper is for
    validating a source *before* feeding it somewhere less forgiving.
    """
    last = None
    for item in source:
        if last is not None and item.arrival < last:
            raise SimulationError(
                f"trace is not arrival-ordered: {item} after t={last:g}"
            )
        last = item.arrival
        yield item


def merge(*sources: ItemSource) -> Iterator[Item]:
    """K-way merge of arrival-ordered sources into one ordered stream.

    Uids are reassigned sequentially in merged order (sources typically
    carry clashing uids).  Ties keep source priority (earlier argument
    first), matching the stable-sort convention of :class:`Instance`.
    """
    def _keyed(k: int, src: ItemSource):
        for n, item in enumerate(src):
            yield (item.arrival, k, n), item

    streams = [_keyed(k, src) for k, src in enumerate(sources)]
    for uid, (_, item) in enumerate(heapq.merge(*streams)):
        yield Item(item.arrival, item.departure, item.size, uid=uid)


def trace_format(path: Union[str, pathlib.Path]) -> str:
    """Guess ``'jsonl'`` or ``'csv'`` from the file extension."""
    suffix = pathlib.Path(path).suffix.lower()
    if suffix in (".jsonl", ".ndjson", ".json"):
        return "jsonl"
    if suffix in (".csv", ".tsv"):
        return "csv"
    raise InvalidInstanceError(
        f"cannot infer trace format from {path!r}; "
        "pass --format jsonl|csv explicitly"
    )


def open_trace(
    path: Union[str, pathlib.Path],
    *,
    format: str = "auto",
    chunk_rows: int = CHUNK_ROWS,
) -> Iterator[ItemStore]:
    """A trace file (JSONL or CSV) as lazy, bounded columnar chunks.

    Yields root :class:`~repro.core.store.ItemStore` chunks of at most
    ``chunk_rows`` rows, in file order, with sequential uids — decoded
    straight into columns, so :meth:`Engine.run
    <repro.engine.loop.Engine.run>` drains them via
    :meth:`~repro.engine.loop.Engine.feed_store` without boxing one
    :class:`Item` per arrival.  Iterate a chunk for its boxed items.
    """
    fmt = trace_format(path) if format == "auto" else format
    if fmt == "jsonl":
        return iter_jsonl_stores(path, chunk_rows=chunk_rows)
    if fmt == "csv":
        return iter_csv_stores(path, chunk_rows=chunk_rows)
    raise InvalidInstanceError(f"unknown trace format {format!r}")
