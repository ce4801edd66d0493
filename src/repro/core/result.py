"""Results of a packing simulation and derived accounting.

:class:`PackingResult` is the immutable outcome of one run: the true items,
the item→bin assignment, and one :class:`~repro.core.bins.BinRecord` per bin.
The MinUsageTime objective (the paper's ``ON(σ)``) is the sum of per-bin
usages.  The result also exposes the open-bin-count step function
``ON_t(σ)`` (the paper's ``HA_t`` / ``CDFF_{t^+}``), whose integral equals
the cost — an identity the test-suite checks on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Mapping

from .bins import BinRecord
from .errors import PackingError
from .item import Item

if TYPE_CHECKING:
    from .profile import LoadProfile

__all__ = ["PackingResult"]


@dataclass(frozen=True)
class PackingResult:
    """The audited outcome of simulating one algorithm on one input."""

    algorithm: str
    items: tuple[Item, ...]
    assignment: Dict[int, int]  #: item uid -> bin uid
    bins: tuple[BinRecord, ...]
    departed_at: Dict[int, float]  #: actual departure time per item uid
    capacity: float = 1.0

    # ------------------------------------------------------------------ #
    @property
    def cost(self) -> float:
        """Total usage time ``ON(σ) = Σ_bins span(items in bin)``."""
        return sum(rec.usage for rec in self.bins)

    @property
    def n_bins(self) -> int:
        """Total number of (busy periods of) bins ever opened."""
        return len(self.bins)

    @property
    def max_open(self) -> int:
        """The classical DBP objective: max simultaneous open bins."""
        prof = self.open_bins_profile()
        return int(prof.max())

    def bin_of(self, uid: int) -> BinRecord:
        """The record of the bin that held item ``uid``."""
        target = self.assignment.get(uid)
        if target is None:
            raise PackingError(f"item {uid} was never packed")
        for rec in self.bins:
            if rec.uid == target:
                return rec
        raise PackingError(f"bin {target} has no record")

    def items_of(self, bin_uid: int) -> tuple[Item, ...]:
        """The (true) items that were packed into bin ``bin_uid``."""
        return tuple(
            it for it in self.items if self.assignment.get(it.uid) == bin_uid
        )

    def true_interval(self, uid: int) -> tuple[float, float]:
        """The realised ``[arrival, departure)`` of item ``uid``.

        For adaptive items the departure comes from the recorded actual
        departure, not the (absent) scheduled one.
        """
        item = next(it for it in self.items if it.uid == uid)
        dep = self.departed_at.get(uid, item.departure)
        if dep is None:
            raise PackingError(f"item {uid} never departed")
        return item.arrival, dep

    # ------------------------------------------------------------------ #
    def open_bins_profile(self) -> LoadProfile:
        """``ON_t`` — number of open bins as a step function of time."""
        import numpy as np

        from .profile import open_count_profile

        n = len(self.bins)
        times = np.concatenate(
            [
                np.asarray([rec.opened_at for rec in self.bins]),
                np.asarray([rec.closed_at for rec in self.bins]),
            ]
        )
        deltas = np.concatenate([np.ones(n), -np.ones(n)])
        return open_count_profile(np.column_stack([times, deltas]))

    def open_bins_at(self, t: float) -> int:
        """Number of bins open at time ``t`` (right-continuous)."""
        return int(self.open_bins_profile()(t))

    def bins_with_tag(self, predicate) -> tuple[BinRecord, ...]:
        """Bin records whose tag satisfies ``predicate``."""
        return tuple(rec for rec in self.bins if predicate(rec.tag))

    def cost_of_tag(self, predicate) -> float:
        """Usage time restricted to bins whose tag satisfies ``predicate``."""
        return sum(rec.usage for rec in self.bins_with_tag(predicate))

    def summary(self) -> Mapping[str, Any]:
        """A small dict for tables and logging."""
        return {
            "algorithm": self.algorithm,
            "n_items": len(self.items),
            "n_bins": self.n_bins,
            "cost": self.cost,
            "max_open": self.max_open,
        }
