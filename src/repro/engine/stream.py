"""Trace sources: constant-memory item streams for the engine.

A *source* is an iterable of :class:`~repro.core.item.Item` in
non-decreasing arrival order, or of :class:`~repro.core.store.ItemStore`
chunks (what :meth:`Engine.run <repro.engine.loop.Engine.run>` drains
columnwise).  In-memory :class:`~repro.core.instance.Instance` objects
qualify directly; this module adds the file-backed source
(:func:`open_trace`, one chunked columnar reader per format) and format
auto-detection for the CLI.

Nothing here materialises the trace: a 10⁶-item JSONL file streams
through :func:`open_trace` with at most one chunk of rows resident,
which is what lets ``repro-dbp replay`` keep peak RSS independent of
trace length.
"""

from __future__ import annotations

import pathlib
from typing import Iterable, Iterator, Union

from ..core.errors import InvalidInstanceError
from ..core.item import Item
from ..core.store import ItemStore
from ..workloads.io import CHUNK_ROWS, iter_csv_stores, iter_jsonl_stores

__all__ = ["ItemSource", "open_trace", "trace_format"]

#: Anything the engine can drain: items in non-decreasing arrival order.
ItemSource = Iterable[Item]


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
