"""Instance serialisation: CSV and JSONL save/load, plus trace streaming.

A downstream user's traces arrive as files; this module round-trips
instances through two formats:

- CSV with a fixed header::

      arrival,departure,size
      0.0,4.0,0.5

- JSON Lines, one object per item (the streaming engine's native
  format — :func:`iter_jsonl_stores` replays these files in constant
  memory)::

      {"arrival": 0.0, "departure": 4.0, "size": 0.5}

Rows are re-sorted by arrival on (whole-file) load — stable, preserving
file order for ties, since the simultaneous-arrival order is part of the
input's semantics.  The streaming readers do **not** sort: they yield
rows in file order so that traces never need to fit in RAM; writers are
expected to emit arrival-ordered lines (both :func:`dump_jsonl` and the
generators do).

All loaders decode straight into :class:`~repro.core.store.ItemStore`
columns — no per-line :class:`Item` dataclass is materialized, which is
where whole-file loading gets its speed and its flat memory profile.
Validation happens on the store append, so a bad row still raises
:class:`InvalidInstanceError` carrying the 1-based line number with the
same message a line-at-a-time decoder would give.
:func:`iter_jsonl_stores` and :func:`iter_csv_stores` — the one
streaming reader per format — yield a large trace as bounded column
chunks, the engine's constant-memory sources.
"""

from __future__ import annotations

import csv
import io
import json
import pathlib
import sys
from itertools import islice
from typing import Iterator, Union

from ..core.errors import InvalidInstanceError, InvalidItemError
from ..core.instance import Instance
from ..core.item import Item
from ..core.store import ItemStore

__all__ = [
    "save_csv",
    "load_csv",
    "dumps_csv",
    "loads_csv",
    "dump_jsonl",
    "load_jsonl",
    "dumps_jsonl",
    "loads_jsonl",
    "iter_jsonl_stores",
    "iter_csv_stores",
]

_HEADER = ["arrival", "departure", "size"]

#: default rows per chunk for the ``iter_*_stores`` streaming readers
CHUNK_ROWS = 4096


def dumps_csv(instance: Instance) -> str:
    """The instance as CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_HEADER)
    for it in instance:
        writer.writerow([repr(it.arrival), repr(it.departure), repr(it.size)])
    return buf.getvalue()


def loads_csv(text: str) -> Instance:
    """Parse CSV text into an :class:`Instance` (re-sorted, stable)."""
    # an unbounded chunk: at most one store
    stores = list(_csv_stores(io.StringIO(text), sys.maxsize, 0))
    if not stores:
        return Instance([])
    store = stores[0]
    store.sort_by_arrival()
    return Instance.from_store(store)


def save_csv(instance: Instance, path: Union[str, pathlib.Path]) -> None:
    """Write the instance to ``path`` as CSV."""
    pathlib.Path(path).write_text(dumps_csv(instance))


def load_csv(path: Union[str, pathlib.Path]) -> Instance:
    """Read an instance from a CSV file."""
    return loads_csv(pathlib.Path(path).read_text())


# ---------------------------------------------------------------------- #
# JSON Lines
# ---------------------------------------------------------------------- #
def _item_to_obj(it: Item) -> dict:
    return {"arrival": it.arrival, "departure": it.departure, "size": it.size}


def _decode_obj(obj: dict, lineno: int):
    """One parsed JSONL object as an ``(arrival, departure, size)`` triple."""
    if not isinstance(obj, dict):
        raise InvalidInstanceError(
            f"line {lineno}: expected a JSON object, got {type(obj).__name__}"
        )
    try:
        arrival = float(obj["arrival"])
        departure = obj["departure"]
        if departure is not None:
            departure = float(departure)
        size = float(obj["size"])
    except KeyError as exc:
        raise InvalidInstanceError(
            f"line {lineno}: missing field {exc.args[0]!r}"
        ) from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInstanceError(f"line {lineno}: {exc}") from exc
    return arrival, departure, size


def _parse_jsonl_batch(batch):
    """Parse non-blank ``(lineno, text)`` JSONL lines into objects.

    The careful path's parse: one ``json.loads`` over the lines joined
    as a JSON array, which a block with blank lines still takes.  Any
    failure (or an element-count mismatch, which catches lines holding
    several comma-separated values that the array join would silently
    flatten) falls back to per-line parsing so errors carry the exact
    offending line number and message.
    """
    try:
        objs = json.loads("[" + ",".join(text for _, text in batch) + "]")
        if len(objs) == len(batch):
            return objs
    except ValueError:
        pass
    objs = []
    for lineno, text in batch:
        try:
            objs.append(json.loads(text))
        except ValueError as exc:  # JSONDecodeError, or an int too long
            raise InvalidInstanceError(f"line {lineno}: {exc}") from exc
    return objs


def _append_objs(objs, batch, append, uid=None):
    """Decode and append parsed JSONL objects one row at a time.

    The error path of :func:`_extend_objs`: rows go through
    :func:`_decode_obj` and ``append`` in file order, so the first bad
    row — undecodable or invalid — raises :class:`InvalidInstanceError`
    naming its line, with the line-at-a-time loaders' message.  Returns
    the next uid when ``uid`` is given.
    """
    for (lineno, _), obj in zip(batch, objs):
        row = _decode_obj(obj, lineno)
        try:
            if uid is None:
                append(*row)
            else:
                append(*row, uid)
                uid += 1
        except InvalidItemError as exc:  # append-time validation
            raise InvalidInstanceError(f"line {lineno}: {exc}") from exc
    return uid


def _obj_columns(objs):
    """Parsed JSONL objects as ``(arrivals, departures, sizes)`` lists;
    raises ``KeyError``/``TypeError``/``ValueError``/``OverflowError``
    on a row that does not decode."""
    arrivals = [float(o["arrival"]) for o in objs]
    departures = [d if (d := o["departure"]) is None else float(d) for o in objs]
    sizes = [float(o["size"]) for o in objs]
    return arrivals, departures, sizes


def _extend_objs(objs, batch, store: ItemStore, uid=None):
    """Bulk-decode parsed JSONL objects into store columns.

    The careful path's fast path: :func:`_obj_columns` plus one
    :meth:`ItemStore.extend_columns` call per batch.  Any decode
    failure falls back to the row-at-a-time :func:`_append_objs` so the
    error carries the exact line number and message; a validation
    failure maps the store's ``row`` tag back to its source line.
    Returns the next uid when ``uid`` is given.
    """
    try:
        columns = _obj_columns(objs)
    except (KeyError, TypeError, ValueError, OverflowError):
        return _append_objs(objs, batch, store.append, uid)
    try:
        store.extend_columns(*columns, uid_start=uid)
    except InvalidItemError as exc:
        lineno = batch[getattr(exc, "row", 0)][0]
        raise InvalidInstanceError(f"line {lineno}: {exc}") from exc
    return None if uid is None else uid + len(objs)


def _decode_block(lines, first: int, store: ItemStore, uid=None):
    """Decode a block of raw JSONL ``lines`` into ``store``; ``lines[0]``
    is line ``first`` of the source.  Returns the next uid when ``uid``
    is given.

    Fast path: one C-level ``json.loads`` over the lines joined as a
    JSON array (a line's ``\\n`` is JSON whitespace, so nothing is
    stripped; the brackets ride on the end lines, so the block is
    copied into one string, not three), :func:`_obj_columns` and one
    :meth:`ItemStore.extend_columns` call, which validates the whole
    block before any column grows.  Anything else -- a blank line, a
    line holding several comma-separated values (the element count then
    differs from the line count), a bad row -- falls back to the careful
    path, which numbers the non-blank lines, so the error names the
    offending line with the line-at-a-time loaders' message.
    """
    edges = lines[0], lines[-1]
    lines[0] = "[" + lines[0]
    lines[-1] += "]"
    text = ",".join(lines)
    lines[0], lines[-1] = edges
    try:
        objs = json.loads(text)
        del text  # free the block's copy before the columns are built
        if len(objs) == len(lines):
            store.extend_columns(*_obj_columns(objs), uid_start=uid)
            return None if uid is None else uid + len(objs)
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    batch = [
        (lineno, stripped)
        for lineno, line in enumerate(lines, start=first)
        if (stripped := line.strip())
    ]
    return _extend_objs(_parse_jsonl_batch(batch), batch, store, uid)


def dumps_jsonl(instance: Instance) -> str:
    """The instance as JSON Lines text (one object per item)."""
    return "".join(json.dumps(_item_to_obj(it)) + "\n" for it in instance)


def loads_jsonl(text: str) -> Instance:
    """Parse JSON Lines text into an :class:`Instance` (re-sorted, stable)."""
    store = ItemStore()
    lines = text.splitlines()
    for start in range(0, len(lines), CHUNK_ROWS):
        _decode_block(lines[start:start + CHUNK_ROWS], start + 1, store)
    store.sort_by_arrival()
    return Instance.from_store(store)


def dump_jsonl(instance: Instance, path: Union[str, pathlib.Path]) -> None:
    """Write the instance to ``path`` as JSON Lines."""
    with pathlib.Path(path).open("w") as fh:
        for it in instance:
            fh.write(json.dumps(_item_to_obj(it)) + "\n")


def load_jsonl(path: Union[str, pathlib.Path]) -> Instance:
    """Read an instance from a JSON Lines file."""
    return loads_jsonl(pathlib.Path(path).read_text())


def iter_jsonl_stores(
    path: Union[str, pathlib.Path],
    *,
    chunk_rows: int = CHUNK_ROWS,
    uid_start: int = 0,
) -> Iterator[ItemStore]:
    """Stream a JSONL trace as bounded :class:`ItemStore` chunks.

    File order, sequential uids (starting at ``uid_start``), constant
    memory — a chunk holds the rows of ``chunk_rows`` lines (fewer when
    some are blank), decoded as one block.
    Feeding every chunk to
    :meth:`Engine.feed_store <repro.engine.loop.Engine.feed_store>`
    replays the trace with the exact decisions of ``simulate()`` on the
    loaded instance (for an arrival-sorted file).
    """
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
    uid = uid_start
    first = 1  # the line number of the block's first line
    with pathlib.Path(path).open() as fh:
        while lines := list(islice(fh, chunk_rows)):
            store = ItemStore()
            uid = _decode_block(lines, first, store, uid)
            first += len(lines)
            if len(store):  # an all-blank block gives no chunk
                yield store


def iter_csv_stores(
    path: Union[str, pathlib.Path],
    *,
    chunk_rows: int = CHUNK_ROWS,
    uid_start: int = 0,
) -> Iterator[ItemStore]:
    """Stream a CSV trace as bounded :class:`ItemStore` chunks (file order)."""
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
    with pathlib.Path(path).open(newline="") as fh:
        yield from _csv_stores(fh, chunk_rows, uid_start)


def _csv_stores(lines, chunk_rows: int, uid: int) -> Iterator[ItemStore]:
    """CSV ``lines`` (a header, then rows) as stores of at most
    ``chunk_rows`` rows; errors name the 1-based physical line."""
    store = ItemStore()
    append = store.append
    header_seen = False
    for lineno, row in enumerate(csv.reader(lines), start=1):
        if not row:
            continue
        if not header_seen:
            header = [h.strip().lower() for h in row]
            if header != _HEADER:
                raise InvalidInstanceError(
                    f"expected header {_HEADER!r}, got {row!r}"
                )
            header_seen = True
            continue
        if len(row) != 3:
            raise InvalidInstanceError(
                f"line {lineno}: expected 3 columns, got {len(row)}"
            )
        try:
            append(float(row[0]), float(row[1]), float(row[2]), uid)
        except ValueError as exc:  # includes InvalidItemError
            raise InvalidInstanceError(f"line {lineno}: {exc}") from exc
        uid += 1
        if len(store) >= chunk_rows:
            yield store
            store = ItemStore()
            append = store.append
    if len(store):
        yield store
