"""Instances: ordered collections of items with validated model invariants.

An :class:`Instance` is the paper's ``σ``.  Items are kept in *release
order*: non-decreasing arrival time, with ties preserved in construction
order (the paper lets simultaneous items arrive "with some arbitrary order";
the instance order **is** that order, and the simulator honours it).

Since the columnar refactor an instance is a thin validated view over an
:class:`~repro.core.store.ItemStore`: the items live as struct-of-arrays
columns, ``Instance[i]`` materializes a lazy boxed :class:`Item` view on
demand, and contiguous slices are zero-copy windows over the parent's
columns.  The sequence protocol, equality, hashing and every statistic
are unchanged — only the storage moved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .item import Item, item_view
from .store import ItemStore

__all__ = ["Instance", "InstanceStats"]


@dataclass(frozen=True, slots=True)
class InstanceStats:
    """Summary statistics of an instance (see Section 2 of the paper)."""

    n_items: int
    mu: float  #: max/min interval-length ratio
    min_length: float
    max_length: float
    demand: float  #: d(σ) = Σ s·l
    span: float  #: span(σ) = |∪ I(r)|
    max_load: float  #: max_t S_t(σ)
    total_size: float


class Instance(Sequence[Item]):
    """An immutable, validated sequence of items in release order."""

    __slots__ = ("_store", "_stats", "_items_cache")

    def __init__(self, items: Iterable[Item], *, reassign_uids: bool = True):
        store = ItemStore.from_items(items)
        if reassign_uids:
            store.assign_sequential_uids()
        # sequential uids are unique by construction — the duplicate scan
        # (an O(n) set build) only runs for caller-supplied uids
        store.validate_release_order(check_uids=not reassign_uids)
        self._store = store
        self._stats: InstanceStats | None = None
        self._items_cache: tuple[Item, ...] | None = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_tuples(
        cls, triples: Iterable[tuple[float, float, float]]
    ) -> "Instance":
        """Build from ``(arrival, departure, size)`` triples, sorting by arrival.

        Ties in arrival keep the input order (stable sort), matching the
        paper's "arbitrary but fixed" simultaneous-arrival order.
        """
        store = ItemStore.from_tuples(triples)
        store.sort_by_arrival()
        return cls.from_store(store)

    @classmethod
    def from_store(
        cls, store: ItemStore, *, reassign_uids: bool = True
    ) -> "Instance":
        """Adopt ``store`` as an instance's backing columns (no copy).

        The store is validated (release order; known departures) and —
        by default — renumbered with sequential uids, exactly like
        ``Instance(items)``.  The caller must not mutate the store
        afterwards; loaders hand over ownership here.
        """
        if store.is_view:
            store = _copy_store(store)
        if reassign_uids:
            store.assign_sequential_uids()
        store.validate_release_order(check_uids=not reassign_uids)
        return cls._wrap(store)

    @classmethod
    def _wrap(cls, store: ItemStore) -> "Instance":
        """Trusted constructor: adopt an already-validated store as-is."""
        inst = object.__new__(cls)
        inst._store = store
        inst._stats = None
        inst._items_cache = None
        return inst

    def map(self, fn: Callable[[Item], Item]) -> "Instance":
        """A new instance with ``fn`` applied to every item (re-sorted, uids kept)."""
        items = sorted((fn(it) for it in self), key=lambda it: it.arrival)
        return Instance(items, reassign_uids=False)

    def shifted(self, delta: float) -> "Instance":
        return self.map(lambda it: it.shifted(delta))

    def scaled(self, factor: float) -> "Instance":
        return self.map(lambda it: it.scaled(factor))

    def normalized(self) -> "Instance":
        """Scaled so the minimum interval length is exactly 1.

        The paper's Section 3 assumes the shortest item has length ≥ 1; this
        helper makes any instance conform without changing μ or competitive
        ratios (MinUsageTime is homogeneous under time scaling).
        """
        if not len(self._store):
            return self
        m = min(it.length for it in self)
        return self.scaled(1.0 / m)

    # ------------------------------------------------------------------ #
    # Sequence protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._store)

    def __getitem__(self, idx):  # type: ignore[override]
        if isinstance(idx, slice):
            sliced = self._store[idx]
            # a sub-window of a valid instance is itself valid (order and
            # uid uniqueness are hereditary) — adopt it unvalidated
            return Instance._wrap(sliced)
        return self._store.item(idx)

    def __iter__(self) -> Iterator[Item]:
        return iter(self._store)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        a = self._store.columns()
        b = other._store.columns()
        if a[5] - a[4] != b[5] - b[4]:
            return False
        # Item equality excludes uid (compare=False), so instances match
        # on their (arrival, departure, size) columns alone
        for col in (0, 1, 2):
            ca, cb = a[col], b[col]
            oa, ob = a[4], b[4]
            for k in range(a[5] - a[4]):
                if ca[oa + k] != cb[ob + k]:
                    return False
        return True

    def __hash__(self) -> int:
        return hash(self.items)

    def __repr__(self) -> str:
        st = self.stats
        return (
            f"Instance(n={st.n_items}, mu={st.mu:g}, span={st.span:g}, "
            f"demand={st.demand:g})"
        )

    # ------------------------------------------------------------------ #
    # Statistics (paper Section 2)
    # ------------------------------------------------------------------ #
    @property
    def store(self) -> ItemStore:
        """The backing :class:`ItemStore` (treat as read-only)."""
        return self._store

    @property
    def items(self) -> tuple[Item, ...]:
        if self._items_cache is None:
            object.__setattr__(self, "_items_cache", tuple(self._store))
        assert self._items_cache is not None
        return self._items_cache

    @property
    def stats(self) -> InstanceStats:
        if self._stats is None:
            object.__setattr__(self, "_stats", self._compute_stats())
        assert self._stats is not None
        return self._stats

    def _compute_stats(self) -> InstanceStats:
        arr, dep, siz, _, start, stop = self._store.columns()
        if start == stop:
            return InstanceStats(0, 1.0, math.inf, 0.0, 0.0, 0.0, 0.0, 0.0)
        from .intervals import union_measure

        # one columnwise pass; accumulation order matches the historical
        # per-item loops bit for bit (same values, same float op order)
        min_len = math.inf
        max_len = -math.inf
        demand = 0.0
        total_size = 0.0
        events: list[tuple[float, float]] = []
        push = events.append
        for j in range(start, stop):
            a = arr[j]
            d = dep[j]
            s = siz[j]
            length = d - a
            if length < min_len:
                min_len = length
            if length > max_len:
                max_len = length
            demand += s * length
            total_size += s
            push((a, s))
            push((d, -s))
        span = union_measure(
            (arr[j], dep[j]) for j in range(start, stop)
        )
        # max load via a sweep over ±size events (departures first on ties)
        events.sort()
        load = 0.0
        max_load = 0.0
        for _, ds in events:
            load += ds
            max_load = max(max_load, load)
        return InstanceStats(
            n_items=stop - start,
            mu=max_len / min_len,
            min_length=min_len,
            max_length=max_len,
            demand=demand,
            span=span,
            max_load=max_load,
            total_size=total_size,
        )

    @property
    def mu(self) -> float:
        """μ — the max/min interval-length ratio."""
        return self.stats.mu

    @property
    def demand(self) -> float:
        """d(σ) — total space–time demand."""
        return self.stats.demand

    @property
    def span(self) -> float:
        """span(σ) — measure of time during which some item is active."""
        return self.stats.span

    def active_at(self, t: float) -> list[Item]:
        """The items active at time ``t`` (half-open semantics)."""
        arr, dep, siz, uids, start, stop = self._store.columns()
        out = []
        for j in range(start, stop):
            a = arr[j]
            if t < a:
                continue
            d = dep[j]
            if d != d or t < d:
                out.append(
                    item_view(a, None if d != d else d, siz[j], uids[j])
                )
        return out

    def load_at(self, t: float) -> float:
        """S_t(σ) — total size of items active at time ``t``."""
        return sum(it.size for it in self.active_at(t))

    def concat(self, other: "Instance") -> "Instance":
        """Merge two instances (items re-sorted by arrival, uids reassigned)."""
        merged = sorted(
            list(self) + list(other), key=lambda it: it.arrival
        )
        return Instance(merged)


def _copy_store(view: ItemStore) -> ItemStore:
    """Materialize a windowed store as a fresh root store."""
    out = ItemStore()
    arr, dep, siz, uids, start, stop = view.columns()
    out.arrivals = arr[start:stop]
    out.departures = dep[start:stop]
    out.sizes = siz[start:stop]
    out.uids = uids[start:stop]
    return out
