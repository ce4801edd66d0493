"""Bins and their usage-time accounting.

A bin has unit capacity (configurable) and is *open* from the moment its
first item is packed until the moment it becomes empty, at which point it is
closed and never reused (the paper notes this is w.l.o.g. for MinUsageTime).
Its usage time is therefore ``closed_at - opened_at``.

Bins carry an opaque ``tag`` so algorithms can mark them (HA tags bins
``("GN",)`` or ``("CD", type)``; CDFF tags them with their row index).  The
simulator owns all mutation; algorithms only read bins and return one from
``place``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, Optional

from .errors import CapacityExceededError, PackingError
from .item import Item

__all__ = ["Bin", "BinRecord", "LOAD_EPS", "first_fit_choice"]

#: Tolerance for floating-point load comparisons.  Sizes like 1/3 must allow
#: exactly three per bin.
LOAD_EPS = 1e-9


class Bin:
    """A live bin inside a running simulation."""

    __slots__ = ("uid", "capacity", "tag", "opened_at", "_contents", "_load",
                 "peak_load", "items_held")

    def __init__(
        self,
        uid: int,
        capacity: float,
        opened_at: float,
        tag: Hashable = None,
    ) -> None:
        self.uid = uid
        self.capacity = capacity
        self.tag = tag
        self.opened_at = opened_at
        self._contents: Dict[int, Item] = {}
        self._load = 0.0
        self.peak_load = 0.0  #: highest load reached so far
        self.items_held = 0  #: items ever packed into this bin

    # -- read API (what algorithms may use) ----------------------------- #
    @property
    def load(self) -> float:
        return self._load

    @property
    def contents(self) -> tuple[Item, ...]:
        """The items currently in the bin (views, in insertion order)."""
        return tuple(self._contents.values())

    @property
    def n_items(self) -> int:
        return len(self._contents)

    def residual(self) -> float:
        """Free capacity left in the bin."""
        return self.capacity - self._load

    def fits(self, item: Item) -> bool:
        """Whether ``item`` fits right now (momentary load check).

        :func:`first_fit_choice` inlines this test; change both together.
        """
        return self._load + item.size <= self.capacity + LOAD_EPS

    def __contains__(self, uid: int) -> bool:
        return uid in self._contents

    def __repr__(self) -> str:
        return (
            f"Bin(uid={self.uid}, tag={self.tag!r}, load={self._load:.4g}, "
            f"n={len(self._contents)})"
        )

    # -- mutation (simulator only) --------------------------------------- #
    def _add(self, item: Item) -> None:
        if item.uid in self._contents:
            raise PackingError(f"item {item.uid} already in bin {self.uid}")
        if not self.fits(item):
            raise CapacityExceededError(
                f"item {item} (size {item.size}) does not fit in bin "
                f"{self.uid} (load {self._load:.6g}/{self.capacity})"
            )
        self._contents[item.uid] = item
        load = self._load + item.size
        self._load = load
        if load > self.peak_load:
            self.peak_load = load
        self.items_held += 1

    def _remove(self, uid: int) -> Item:
        try:
            item = self._contents.pop(uid)
        except KeyError:
            raise PackingError(f"item {uid} not in bin {self.uid}") from None
        self._load -= item.size
        if not self._contents:
            self._load = 0.0  # kill floating residue on empty
        return item


def first_fit_choice(bins: Iterable[Bin], item: Item) -> Optional[Bin]:
    """The first bin of ``bins`` that fits ``item``, else ``None``.

    First- and last-fit (a lane walked forward or backward, a CDFF row)
    run this on every placement, so :meth:`Bin.fits` is inlined here: a
    method call per bin made the walk up to 1.6x slower
    (docs/performance.md, "Placement lanes").
    """
    size = item.size
    for b in bins:
        if b._load + size <= b.capacity + LOAD_EPS:
            return b
    return None


@dataclass(frozen=True, slots=True)
class BinRecord:
    """The immutable post-mortem of one bin after a simulation."""

    uid: int
    tag: Any
    opened_at: float
    closed_at: float
    item_uids: tuple[int, ...]
    peak_load: float = field(default=0.0)

    @property
    def usage(self) -> float:
        """The MinUsageTime contribution of this bin."""
        return self.closed_at - self.opened_at
