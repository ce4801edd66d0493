"""OPT oracles: exact OPT_R, exact OPT_NR for tiny inputs, and sandwiches.

- :func:`opt_repacking` exploits the factorisation
  ``OPT_R(σ) = ∫ BP(active at t) dt``: between consecutive event points the
  active multiset is constant, so OPT_R is a finite sum of
  exact-bin-packing values times segment durations.  When a segment has too
  many active items for the exact solver, the segment contributes a
  certified (L2, FFD) sandwich instead, and the overall result is an
  :class:`~repro.offline.bounds.OptSandwich`.
- :func:`opt_nonrepacking` enumerates partitions of the items into feasible
  co-location groups (cost of a group = measure of the union of its
  intervals) with branch-and-bound — exact but exponential, guarded by
  ``max_items``.
"""

from __future__ import annotations

from typing import Sequence

from ..core.bins import LOAD_EPS
from ..core.errors import InvalidInstanceError
from ..core.instance import Instance
from ..core.item import Item
from .bounds import OptSandwich, opt_sandwich
from .binpack import min_bins_bounded

__all__ = ["opt_repacking", "opt_nonrepacking", "opt_reference"]


def opt_repacking(
    instance: Instance, *, capacity: float = 1.0, max_exact: int = 26
) -> OptSandwich:
    """``OPT_R(σ)`` as a certified sandwich (exact when segments are small).

    A single event sweep maintains the active size multiset; segments whose
    active multiset repeats reuse the cached bin-packing value, so highly
    periodic inputs (σ_μ, adversary schedules) cost almost nothing beyond
    the sweep itself.
    """
    if len(instance) == 0:
        return OptSandwich(0.0, 0.0)
    events: list[tuple[float, int, int]] = []  # (time, kind 0=dep 1=arr, idx)
    for k, it in enumerate(instance):
        events.append((it.arrival, 1, k))
        events.append((it.departure, 0, k))  # type: ignore[arg-type]
    events.sort()
    sizes = [it.size for it in instance]
    active: dict[int, float] = {}
    cache: dict[tuple[float, ...], tuple[int, int]] = {}
    lower = upper = 0.0
    pos, n_ev = 0, len(events)
    while pos < n_ev:
        t = events[pos][0]
        while pos < n_ev and events[pos][0] == t:
            _, kind, idx = events[pos]
            pos += 1
            if kind == 0:
                active.pop(idx, None)
            else:
                active[idx] = sizes[idx]
        if pos >= n_ev or not active:
            continue
        duration = events[pos][0] - t
        key = tuple(sorted(active.values()))
        if key not in cache:
            cache[key] = min_bins_bounded(key, capacity, max_exact=max_exact)
        lo, hi = cache[key]
        lower += lo * duration
        upper += hi * duration
    return OptSandwich(lower, upper)


def _group_cost(items: Sequence[Item]) -> float:
    """Measure of the union of the group's intervals (its bin's usage)."""
    from ..core.intervals import union_measure

    return union_measure((it.arrival, it.departure) for it in items)  # type: ignore[misc]


def _fits_group(group: list[Item], item: Item, capacity: float) -> bool:
    """Whether ``item`` can join ``group`` without exceeding ``capacity``.

    Load is checked at every arrival point inside the candidate's interval
    (the load profile is right-continuous, so arrivals are the only places a
    maximum can appear).
    """
    overl = [g for g in group if g.overlaps(item)]
    if not overl:
        return True
    checkpoints = {item.arrival}
    checkpoints.update(
        g.arrival for g in overl if item.arrival <= g.arrival < item.departure  # type: ignore[operator]
    )
    for t in checkpoints:
        load = item.size + sum(
            g.size for g in overl if g.arrival <= t < g.departure  # type: ignore[operator]
        )
        if load > capacity + LOAD_EPS:
            return False
    return True


def opt_nonrepacking(
    instance: Instance, *, capacity: float = 1.0, max_items: int = 12
) -> float:
    """Exact ``OPT_NR(σ)`` by branch-and-bound over co-location partitions."""
    n = len(instance)
    if n == 0:
        return 0.0
    if n > max_items:
        raise InvalidInstanceError(
            f"opt_nonrepacking is exponential; {n} items exceeds "
            f"max_items={max_items}"
        )
    items = list(instance)
    # seed: everything alone (always feasible)
    best = sum(it.length for it in items)
    lower_seed = opt_sandwich(instance).lower

    groups: list[list[Item]] = []

    def current_cost() -> float:
        return sum(_group_cost(g) for g in groups)

    def dfs(idx: int) -> None:
        nonlocal best
        if idx == n:
            best = min(best, current_cost())
            return
        it = items[idx]
        # optimistic completion: remaining items cost at least 0 extra
        if current_cost() >= best - 1e-12:
            return
        for g in groups:
            if _fits_group(g, it, capacity):
                g.append(it)
                dfs(idx + 1)
                g.pop()
        groups.append([it])
        dfs(idx + 1)
        groups.pop()
        if best <= lower_seed + 1e-12:
            return

    dfs(0)
    return best


def opt_reference(
    instance: Instance, *, capacity: float = 1.0, max_exact: int = 26
) -> OptSandwich:
    """The best available OPT_R sandwich: closed-form bounds ∩ exact oracle.

    The closed-form bounds assume unit capacity; for other capacities only
    the oracle is used.
    """
    oracle = opt_repacking(instance, capacity=capacity, max_exact=max_exact)
    if capacity != 1.0:
        return oracle
    closed = opt_sandwich(instance)
    return OptSandwich(
        max(closed.lower, oracle.lower), min(closed.upper, oracle.upper)
    )
