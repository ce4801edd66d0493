"""Offline non-repacking constant-factor packer — the Dual Coloring stand-in.

The paper invokes Ren & Tang's *Dual Coloring* algorithm only through its
guarantee (Theorem 4.2: ``DC(σ) ≤ 4·OPT_R(σ)``, non-repacking), using it to
transfer the Theorem 4.3 lower bound from OPT_R to OPT_NR.  The SPAA'16
construction itself is not reproduced in the paper; per DESIGN.md §4 we
substitute an offline non-repacking packer in the busy-time-scheduling
style that plays the same role:

1. *big* items (size > 1/2) each occupy a private bin — their total usage
   is ``Σ len ≤ 2 Σ size·len ≤ 2·d(σ) ≤ 2·OPT_R``;
2. *small* items (size ≤ 1/2) are packed first-fit in non-increasing order
   of interval length, with full interval-load feasibility checks.

The 4×OPT_R factor of the stand-in is verified empirically by experiment
THM4.2 over the workload families used in the lower-bound experiments; the
lower-bound experiment additionally reports ratios against the *exact*
OPT_R oracle so its conclusion does not hinge on this constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..core.bins import LOAD_EPS
from ..core.errors import PackingError
from ..core.instance import Instance
from ..core.item import Item
from ..core.profile import load_profile

__all__ = ["OfflineAssignment", "dual_coloring", "first_fit_decreasing_length"]


@dataclass(frozen=True)
class OfflineAssignment:
    """An offline packing: a partition of the items into co-located groups."""

    groups: tuple[tuple[Item, ...], ...]
    capacity: float = 1.0

    @property
    def cost(self) -> float:
        """Total usage time: Σ over groups of the span of the group."""
        return sum(self._group_span(g) for g in self.groups)

    @property
    def n_bins(self) -> int:
        return len(self.groups)

    @staticmethod
    def _group_span(group: Sequence[Item]) -> float:
        from ..core.intervals import union_measure

        return union_measure((it.arrival, it.departure) for it in group)  # type: ignore[misc]

    def audit(self) -> None:
        """Verify every group respects capacity at all times."""
        for k, g in enumerate(self.groups):
            peak = load_profile(g).max()
            if peak > self.capacity + LOAD_EPS:
                raise PackingError(
                    f"offline group {k} overloaded: peak {peak:.9f}"
                )
        uids = [it.uid for g in self.groups for it in g]
        if len(uids) != len(set(uids)):
            raise PackingError("an item appears in two offline groups")


def _fits(group: List[Item], item: Item, capacity: float) -> bool:
    checkpoints = {item.arrival}
    checkpoints.update(
        g.arrival
        for g in group
        if item.arrival <= g.arrival < item.departure  # type: ignore[operator]
    )
    for t in checkpoints:
        load = item.size + sum(
            g.size for g in group if g.arrival <= t < g.departure  # type: ignore[operator]
        )
        if load > capacity + LOAD_EPS:
            return False
    return True


def first_fit_decreasing_length(
    items: Sequence[Item], *, capacity: float = 1.0
) -> OfflineAssignment:
    """Offline first-fit in non-increasing interval-length order."""
    order = sorted(
        items, key=lambda it: (-(it.departure - it.arrival), it.arrival, it.uid)  # type: ignore[operator]
    )
    groups: List[List[Item]] = []
    for it in order:
        for g in groups:
            if _fits(g, it, capacity):
                g.append(it)
                break
        else:
            groups.append([it])
    return OfflineAssignment(tuple(tuple(g) for g in groups), capacity)


def dual_coloring(instance: Instance, *, capacity: float = 1.0) -> OfflineAssignment:
    """The Dual-Coloring stand-in: private bins for big items, FFD-by-length
    for the rest (see module docstring and DESIGN.md §4)."""
    big = [it for it in instance if it.size > capacity / 2 + LOAD_EPS]
    small = [it for it in instance if it.size <= capacity / 2 + LOAD_EPS]
    small_assignment = first_fit_decreasing_length(small, capacity=capacity)
    groups = tuple((it,) for it in big) + small_assignment.groups
    return OfflineAssignment(groups, capacity)
