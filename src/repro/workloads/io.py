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
from typing import Iterator, Optional, Union

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
    """Parse CSV text into an :class:`Instance`."""
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows:
        return Instance([])
    header = [h.strip().lower() for h in rows[0]]
    if header != _HEADER:
        raise InvalidInstanceError(
            f"expected header {_HEADER!r}, got {rows[0]!r}"
        )
    store = ItemStore()
    append = store.append
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise InvalidInstanceError(
                f"line {lineno}: expected 3 columns, got {len(row)}"
            )
        try:
            append(float(row[0]), float(row[1]), float(row[2]))
        except ValueError as exc:  # includes InvalidItemError
            raise InvalidInstanceError(f"line {lineno}: {exc}") from exc
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
        size = float(obj["size"])
    except KeyError as exc:
        raise InvalidInstanceError(
            f"line {lineno}: missing field {exc.args[0]!r}"
        ) from exc
    except (TypeError, ValueError) as exc:
        raise InvalidInstanceError(f"line {lineno}: {exc}") from exc
    if departure is not None:
        departure = float(departure)
    return arrival, departure, size


def _parse_jsonl_batch(batch):
    """Parse non-blank ``(lineno, text)`` JSONL lines into objects.

    Fast path: one C-level ``json.loads`` over the lines joined as a
    JSON array — an order of magnitude fewer interpreter round-trips
    than line-at-a-time decoding.  Any failure (or an element-count
    mismatch, which catches lines holding several comma-separated
    values that the array join would silently flatten) falls back to
    per-line parsing so errors carry the exact offending line number
    and message.
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
        except json.JSONDecodeError as exc:
            raise InvalidInstanceError(f"line {lineno}: {exc}") from exc
    return objs


def _append_objs(objs, batch, append, uid=None):
    """Decode parsed JSONL objects into store rows via ``append``.

    The happy path inlines the field extraction; on any failure the row
    is re-decoded through :func:`_decode_obj`/``append`` so the raised
    :class:`InvalidInstanceError` carries the same line number and
    message as the line-at-a-time loaders.  Returns the next uid when
    ``uid`` is given.
    """
    for i, obj in enumerate(objs):
        try:
            arrival = float(obj["arrival"])
            departure = obj["departure"]
            if departure is not None:
                departure = float(departure)
            size = float(obj["size"])
            if uid is None:
                append(arrival, departure, size)
            else:
                append(arrival, departure, size, uid)
                uid += 1
        except InvalidItemError as exc:  # append-time validation
            raise InvalidInstanceError(
                f"line {batch[i][0]}: {exc}"
            ) from exc
        except (KeyError, TypeError, ValueError):
            _decode_obj(obj, batch[i][0])  # raises with the line number
            raise  # pragma: no cover - _decode_obj always raises here
    return uid


def _extend_objs(objs, batch, store: ItemStore, uid=None):
    """Bulk-decode parsed JSONL objects into store columns.

    The fast path: three list comprehensions plus one
    :meth:`ItemStore.extend_columns` call per batch.  Any decode
    failure falls back to the row-at-a-time :func:`_append_objs` so the
    error carries the exact line number and message; a validation
    failure maps the store's ``row`` tag back to its source line.
    Returns the next uid when ``uid`` is given.
    """
    try:
        arrivals = [float(o["arrival"]) for o in objs]
        departures = [
            d if (d := o["departure"]) is None else float(d) for o in objs
        ]
        sizes = [float(o["size"]) for o in objs]
    except (KeyError, TypeError, ValueError):
        return _append_objs(objs, batch, store.append, uid)
    try:
        store.extend_columns(arrivals, departures, sizes, uid_start=uid)
    except InvalidItemError as exc:
        lineno = batch[getattr(exc, "row", 0)][0]
        raise InvalidInstanceError(f"line {lineno}: {exc}") from exc
    return None if uid is None else uid + len(objs)


def dumps_jsonl(instance: Instance) -> str:
    """The instance as JSON Lines text (one object per item)."""
    return "".join(json.dumps(_item_to_obj(it)) + "\n" for it in instance)


def loads_jsonl(text: str) -> Instance:
    """Parse JSON Lines text into an :class:`Instance` (re-sorted, stable)."""
    store = ItemStore()
    append = store.append
    batch = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line:
            batch.append((lineno, line))
            if len(batch) >= CHUNK_ROWS:
                _extend_objs(_parse_jsonl_batch(batch), batch, store)
                batch.clear()
    if batch:
        _extend_objs(_parse_jsonl_batch(batch), batch, store)
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
    memory — at most ``chunk_rows`` rows are resident per chunk.
    Feeding every chunk to
    :meth:`Engine.feed_store <repro.engine.loop.Engine.feed_store>`
    replays the trace with the exact decisions of ``simulate()`` on the
    loaded instance (for an arrival-sorted file).
    """
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
    uid = uid_start
    batch = []
    with pathlib.Path(path).open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                batch.append((lineno, line))
                if len(batch) >= chunk_rows:
                    store = ItemStore()
                    uid = _extend_objs(
                        _parse_jsonl_batch(batch), batch, store, uid
                    )
                    batch.clear()
                    yield store
    if batch:
        store = ItemStore()
        _extend_objs(_parse_jsonl_batch(batch), batch, store, uid)
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
    store = ItemStore()
    append = store.append
    uid = uid_start
    with pathlib.Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header_seen = False
        for lineno, row in enumerate(reader, start=1):
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
