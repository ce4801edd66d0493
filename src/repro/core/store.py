"""Struct-of-arrays item storage: the columnar data plane.

An :class:`ItemStore` keeps items as four parallel columns — C-double
``array('d')`` columns for arrival/departure/size plus an ``array('q')``
uid column — instead of a tuple of boxed :class:`~repro.core.item.Item`
dataclasses.  One stored item costs 28 bytes of column space instead of
a ~150-byte Python object, loaders can fill columns straight from parsed
text without materializing (and re-materializing) dataclasses, and the
hot simulation loop reads plain C doubles.

Unknown departures (:data:`~repro.core.item.UNKNOWN_DEPARTURE`) are
stored as NaN — NaN never validates as a real departure, so the sentinel
cannot collide with data — and surface as ``None`` again on any boxed
view.

Layering (who holds columns, who holds views)
---------------------------------------------
- **Stores hold columns.**  :class:`~repro.core.instance.Instance`, the
  trace loaders in :mod:`repro.workloads.io` and the streaming
  engine's chunked sources all keep their items in an
  :class:`ItemStore`.
- **Views are transient.**  Algorithm code keeps receiving real
  :class:`Item` objects — :meth:`ItemStore.item` materializes a lazy,
  already-validated view via :func:`item_view` (which skips
  ``__post_init__`` re-validation; rows were validated on
  :meth:`append`).  Nothing downstream of the kernel can tell columns
  from boxed storage, which is what keeps the refactor
  decision-for-decision invisible.

Slices are **zero-copy**: :meth:`ItemStore.slice` shares the parent's
column arrays and narrows a ``(start, stop)`` window, so slicing a
million-item instance allocates four references, not four copies.
Windowed (sliced) stores are read-only; only a root store accepts
:meth:`append`/:meth:`extend_columns`/:meth:`sort_by_arrival`.

Validation mirrors :class:`Item` exactly — same checks, same error
messages — so loaders report identical diagnostics whichever plane they
fill, and :meth:`validate_release_order` reuses the wording of
``Instance._validate``.
"""

from __future__ import annotations

import math
from array import array
from typing import Iterable, Iterator, Optional, Tuple

from .errors import InvalidInstanceError, InvalidItemError
from .item import Item, item_view

__all__ = ["ItemStore", "validate_item_values"]

_INF = math.inf
_NAN = math.nan


def validate_item_values(
    arrival: float, departure: Optional[float], size: float
) -> None:
    """Validate an item triple without building an :class:`Item`.

    Raises :class:`InvalidItemError` with byte-identical messages to
    ``Item.__post_init__`` — the shared validation site for columnar
    decoders (loaders, the serve protocol, :meth:`ItemStore.append`).
    """
    if not (-_INF < arrival < _INF):  # False for NaN and both infinities
        raise InvalidItemError(f"arrival must be finite, got {arrival!r}")
    if departure is not None:
        if not (-_INF < departure < _INF):
            raise InvalidItemError(
                f"departure must be finite or None, got {departure!r}"
            )
        if departure <= arrival:
            raise InvalidItemError(
                "departure must be strictly after arrival "
                f"(got [{arrival}, {departure}))"
            )
    if not (0.0 < size <= 1.0):
        raise InvalidItemError(f"size must lie in (0, 1], got {size!r}")


class ItemStore:
    """A growable struct-of-arrays table of items.

    A *root* store owns its columns and may be appended to; a *windowed*
    store (from :meth:`slice`) shares the root's column arrays with a
    ``[start, stop)`` window and is read-only.  Rows are validated on
    :meth:`append` (same rules and messages as :class:`Item`), so views
    materialized later never re-validate.
    """

    __slots__ = (
        "arrivals",
        "departures",
        "sizes",
        "uids",
        "_start",
        "_stop",
        "_uid_rows",
    )

    def __init__(self) -> None:
        self.arrivals = array("d")
        self.departures = array("d")  # NaN encodes an unknown departure
        self.sizes = array("d")
        self.uids = array("q")
        self._start = 0
        self._stop: Optional[int] = None  # None: window tracks the columns
        self._uid_rows: Optional[dict[int, int]] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_items(cls, items: Iterable[Item]) -> "ItemStore":
        """A root store holding a copy of ``items`` (uids preserved)."""
        store = cls()
        append = store.append
        for it in items:
            append(it.arrival, it.departure, it.size, it.uid)
        return store

    @classmethod
    def from_tuples(
        cls, triples: Iterable[Tuple[float, float, float]]
    ) -> "ItemStore":
        """A root store from ``(arrival, departure, size)`` triples."""
        store = cls()
        append = store.append
        for a, d, s in triples:
            append(a, d, s)
        return store

    def append(
        self,
        arrival: float,
        departure: Optional[float],
        size: float,
        uid: int = -1,
    ) -> int:
        """Validate and add one row; returns its row index.

        Only root stores accept appends — a windowed store shares its
        parent's arrays, and growing them would silently change every
        sibling window.
        """
        if self._stop is not None or self._start:
            raise InvalidInstanceError("cannot append to a sliced ItemStore")
        if not (-_INF < arrival < _INF):
            raise InvalidItemError(f"arrival must be finite, got {arrival!r}")
        if departure is None:
            departure = _NAN
        elif not (-_INF < departure < _INF):
            raise InvalidItemError(
                f"departure must be finite or None, got {departure!r}"
            )
        elif departure <= arrival:
            raise InvalidItemError(
                "departure must be strictly after arrival "
                f"(got [{arrival}, {departure}))"
            )
        if not (0.0 < size <= 1.0):
            raise InvalidItemError(f"size must lie in (0, 1], got {size!r}")
        row = len(self.arrivals)
        self.arrivals.append(arrival)
        self.departures.append(departure)
        self.sizes.append(size)
        self.uids.append(uid)
        self._uid_rows = None
        return row

    def extend_columns(
        self,
        arrivals,
        departures,
        sizes,
        uid_start: Optional[int] = None,
    ) -> int:
        """Validate and bulk-append parallel rows (root stores only).

        ``departures`` entries may be ``None`` for unknown departures;
        an explicit NaN is rejected exactly like :meth:`append` rejects
        it.  The whole batch is validated **before** any column grows,
        so a bad row leaves the store unchanged; the raised
        :class:`InvalidItemError` carries the same message as
        :meth:`append` plus a ``row`` attribute with the offending
        batch index.  uids are filled sequentially from ``uid_start``
        (or -1, matching :meth:`append`'s default).  Returns the index
        of the first appended row.

        This is the loaders' fast path: three C-level ``array.extend``
        calls plus one tight validation loop, instead of one
        :meth:`append` call per row.
        """
        if self._stop is not None or self._start:
            raise InvalidInstanceError("cannot append to a sliced ItemStore")
        n = len(arrivals)
        if len(departures) != n or len(sizes) != n:
            raise InvalidInstanceError(
                "column lengths differ: "
                f"{n} arrivals, {len(departures)} departures, "
                f"{len(sizes)} sizes"
            )
        for i in range(n):
            a = arrivals[i]
            d = departures[i]
            s = sizes[i]
            if d is None:
                if -_INF < a < _INF and 0.0 < s <= 1.0:
                    continue
            elif -_INF < a < _INF and 0.0 < s <= 1.0 and a < d < _INF:
                continue
            try:  # exact append()/Item message for the offending row
                validate_item_values(a, d, s)
            except InvalidItemError as exc:
                exc.row = i
                raise
        row = len(self.arrivals)
        self.arrivals.extend(arrivals)
        self.departures.extend(
            _NAN if d is None else d for d in departures
        )
        self.sizes.extend(sizes)
        start = -1 if uid_start is None else uid_start
        self.uids.extend(
            range(start, start + n) if uid_start is not None
            else (-1 for _ in range(n))
        )
        self._uid_rows = None
        return row

    # ------------------------------------------------------------------ #
    # Shape and access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        stop = len(self.arrivals) if self._stop is None else self._stop
        return stop - self._start

    def columns(self):
        """The raw shared columns plus this store's window.

        Returns ``(arrivals, departures, sizes, uids, start, stop)``.
        The arrays are the live backing storage (shared with every
        sibling window) — callers must treat them as read-only and index
        only within ``[start, stop)``.  This is the hot-path accessor the
        kernel and engine loop over.
        """
        stop = len(self.arrivals) if self._stop is None else self._stop
        return (
            self.arrivals,
            self.departures,
            self.sizes,
            self.uids,
            self._start,
            stop,
        )

    def row(self, i: int) -> Tuple[float, Optional[float], float, int]:
        """Row ``i`` (window-relative) as an ``(a, d, s, uid)`` tuple."""
        j = self._index(i)
        d = self.departures[j]
        return (
            self.arrivals[j],
            None if d != d else d,
            self.sizes[j],
            self.uids[j],
        )

    def item(self, i: int) -> Item:
        """Row ``i`` (window-relative) as a lazy :class:`Item` view."""
        j = self._index(i)
        d = self.departures[j]
        return item_view(
            self.arrivals[j],
            None if d != d else d,
            self.sizes[j],
            self.uids[j],
        )

    def __getitem__(self, i):
        if isinstance(i, slice):
            start, stop, step = i.indices(len(self))
            if step != 1:
                out = ItemStore()
                for k in range(start, stop, step):
                    a, d, s, u = self.row(k)
                    out.append(a, d, s, u)
                return out
            return self.slice(start, stop)
        return self.item(i)

    def __iter__(self) -> Iterator[Item]:
        arr, dep, siz, uids, start, stop = self.columns()
        for j in range(start, stop):
            d = dep[j]
            yield item_view(arr[j], None if d != d else d, siz[j], uids[j])

    def _index(self, i: int) -> int:
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"row {i} out of range for {n} items")
        return self._start + i

    # ------------------------------------------------------------------ #
    # Zero-copy slicing
    # ------------------------------------------------------------------ #
    def slice(self, start: int, stop: int) -> "ItemStore":
        """A read-only window ``[start, stop)`` sharing these columns.

        O(1) and allocation-free in the row count: the child aliases the
        parent's array objects.  Appending to the root after slicing is
        allowed (the window's bounds are fixed, so it never sees the new
        rows).
        """
        child = object.__new__(ItemStore)
        (child.arrivals, child.departures, child.sizes, child.uids,
         child._start, child._stop) = self.window(start, stop)
        child._uid_rows = None
        return child

    def window(self, start: int, stop: int):
        """:meth:`columns` narrowed to the window-relative rows
        ``[start, stop)``, range-checked as :meth:`slice` checks them,
        without building the sliced store."""
        lo = self._start
        n = (len(self.arrivals) if self._stop is None else self._stop) - lo
        if not (0 <= start <= stop <= n):
            raise InvalidInstanceError(
                f"slice [{start}, {stop}) out of range for {n} items"
            )
        return (
            self.arrivals,
            self.departures,
            self.sizes,
            self.uids,
            lo + start,
            lo + stop,
        )

    @property
    def is_view(self) -> bool:
        """Whether this store is a read-only window over shared columns."""
        return self._stop is not None or self._start != 0

    # ------------------------------------------------------------------ #
    # uid index
    # ------------------------------------------------------------------ #
    def row_of_uid(self, uid: int) -> int:
        """The window-relative row holding ``uid`` (lazy O(n) index build).

        Raises ``KeyError`` when absent.  Later duplicates win, matching
        dict-update semantics; stores built by :class:`Instance` have
        unique uids by validation.
        """
        index = self._uid_rows
        if index is None:
            uids, start = self.uids, self._start
            index = {
                uids[j]: j - start for j in range(start, start + len(self))
            }
            self._uid_rows = index
        return index[uid]

    def assign_sequential_uids(self) -> None:
        """Renumber uids to the window order ``0 .. n-1`` (root only)."""
        if self._stop is not None or self._start:
            raise InvalidInstanceError("cannot renumber a sliced ItemStore")
        uids = self.uids
        for i in range(len(uids)):
            uids[i] = i
        self._uid_rows = None

    # ------------------------------------------------------------------ #
    # Ordering
    # ------------------------------------------------------------------ #
    def is_sorted(self) -> bool:
        """Whether arrivals are non-decreasing over the window."""
        arr, _, _, _, start, stop = self.columns()
        last = -_INF
        for j in range(start, stop):
            a = arr[j]
            if a < last:
                return False
            last = a
        return True

    def sort_by_arrival(self) -> None:
        """Stable in-place sort of all columns by arrival (root only).

        Ties keep their current (file/insertion) order — the
        simultaneous-arrival order is part of the input's semantics.
        No-op (and O(n)) when already sorted, the common case for
        generator output and ``dump_jsonl`` traces.
        """
        if self._stop is not None or self._start:
            raise InvalidInstanceError("cannot sort a sliced ItemStore")
        if self.is_sorted():
            return
        arr = self.arrivals
        order = sorted(range(len(arr)), key=arr.__getitem__)
        for name in ("arrivals", "departures", "sizes", "uids"):
            col = getattr(self, name)
            setattr(self, name, array(col.typecode, map(col.__getitem__, order)))
        self._uid_rows = None

    # ------------------------------------------------------------------ #
    # Instance-level validation (shared with Instance._validate)
    # ------------------------------------------------------------------ #
    def validate_release_order(
        self, *, require_departures: bool = True, check_uids: bool = True
    ) -> None:
        """Check the instance invariants over this window.

        Raises :class:`InvalidInstanceError` with the exact messages
        historically produced by ``Instance._validate``: known
        departures (optional), non-decreasing arrivals, unique uids
        (optional — skipped by callers that just assigned sequential
        uids, which are unique by construction).
        """
        arr, dep, _, uids, start, stop = self.columns()
        last = -_INF
        seen: Optional[set] = set() if check_uids else None
        for j in range(start, stop):
            if require_departures:
                d = dep[j]
                if d != d:
                    raise InvalidInstanceError(
                        "instance items must have known departures, "
                        f"got {self.item(j - start)}"
                    )
            a = arr[j]
            if a < last:
                raise InvalidInstanceError(
                    "items must be in non-decreasing arrival order "
                    f"({self.item(j - start)} arrives before {last:g})"
                )
            last = a
            if seen is not None:
                u = uids[j]
                if u in seen:
                    raise InvalidInstanceError(f"duplicate item uid {u}")
                seen.add(u)

    def __repr__(self) -> str:
        kind = "view" if self.is_view else "root"
        return f"ItemStore(n={len(self)}, {kind})"
