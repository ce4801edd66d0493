"""The Any-Fit family: First/Best/Worst/Next/Last/Random-Fit.

These are the classical baselines.  First-Fit is special in two ways:

- in the **non-clairvoyant** setting it is near-optimal — ``μ + 4``
  competitive (Tang et al. [13]), matching the ``μ`` lower bound of
  Li et al. [7] up to an additive constant (Table 1, row 3);
- in the **clairvoyant** setting it is still ``Ω(μ)``-competitive (the
  "Techniques" overview), which is why the paper's HA only uses First-Fit
  as one ingredient.

Each algorithm is expressed as an :class:`AnyFit` with a pluggable *fit
rule* choosing among the open bins that can accommodate the item; this same
rule object is reused inside HA (footnote 1 of the paper: "any Any-Fit
approach ... will work just as well").
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional, Sequence

from ..core.bins import Bin
from ..core.item import Item
from .base import OnlineAlgorithm

__all__ = [
    "FitRule",
    "FIRST_FIT",
    "BEST_FIT",
    "WORST_FIT",
    "LAST_FIT",
    "lane_fit",
    "AnyFit",
    "FirstFit",
    "BestFit",
    "WorstFit",
    "LastFit",
    "NextFit",
    "RandomFit",
]

#: A fit rule maps (candidate bins that fit, item) -> chosen bin.
FitRule = Callable[[Sequence[Bin], Item], Bin]


def FIRST_FIT(candidates: Sequence[Bin], item: Item) -> Bin:
    """Earliest-opened bin."""
    return candidates[0]


def BEST_FIT(candidates: Sequence[Bin], item: Item) -> Bin:
    """Fullest bin (smallest residual); ties to the earliest-opened."""
    return min(candidates, key=lambda b: (b.residual(), b.uid))


def WORST_FIT(candidates: Sequence[Bin], item: Item) -> Bin:
    """Emptiest bin (largest residual); ties to the earliest-opened."""
    return max(candidates, key=lambda b: (b.residual(), -b.uid))


def LAST_FIT(candidates: Sequence[Bin], item: Item) -> Bin:
    """Most recently opened bin."""
    return candidates[-1]


# The four classical rules are kernel candidate queries of the same name
# (O(log n) over the whole open-bin table, a walk over one lane); AnyFit
# and lane_fit dispatch to them through this attribute.
FIRST_FIT.indexed_query = "first_fit"
BEST_FIT.indexed_query = "best_fit"
WORST_FIT.indexed_query = "worst_fit"
LAST_FIT.indexed_query = "last_fit"


def lane_fit(rule: FitRule, item: Item, sim, lane: Hashable) -> Optional[Bin]:
    """``rule``'s choice among the open bins of ``lane`` that fit ``item``,
    else ``None``.

    A classical rule runs as the kernel's lane query it names; a custom
    rule is applied to ``sim.fitting_bins(item, lane=lane)``.  Either way
    the choice is the rule's over the lane's fitting bins in opening
    order.
    """
    query = getattr(rule, "indexed_query", None)
    if query is not None:
        return getattr(sim, query)(item, lane=lane)
    candidates = sim.fitting_bins(item, lane=lane)
    return rule(candidates, item) if candidates else None


class AnyFit(OnlineAlgorithm):
    """Place each item by ``rule`` over all open bins that fit it.

    Opens a new bin only when no open bin fits — the defining Any-Fit
    property.

    The four classical rules carry an ``indexed_query`` attribute naming
    the equivalent :class:`~repro.algorithms.base.SimulationView`
    candidate query, which the placement kernel answers from its
    open-bin index in O(log n); custom rules fall back to the linear
    candidate scan.
    """

    def __init__(
        self,
        rule: FitRule = FIRST_FIT,
        *,
        name: Optional[str] = None,
        clairvoyant: bool = True,
    ) -> None:
        self.rule = rule
        self.name = name or f"AnyFit[{getattr(rule, '__name__', 'custom')}]"
        self.clairvoyant = clairvoyant
        self._query = getattr(rule, "indexed_query", None)

    def place(self, item: Item, sim) -> Bin:
        # the whole-table query, resolved once: going through lane_fit
        # cost replay-bestfit 1.6% (docs/performance.md, "Placement lanes")
        query = self._query
        found = (
            getattr(sim, query)(item)
            if query is not None
            else lane_fit(self.rule, item, sim, None)
        )
        return found or sim.open_bin(tag="anyfit")


class FirstFit(AnyFit):
    """Classical First-Fit (paper Section 2's definition).

    With ``clairvoyant=False`` this is exactly the ``μ + 4``-competitive
    algorithm of Table 1's non-clairvoyant row — FF never reads departure
    times, so the flag only controls what the simulator lets it *see*.
    """

    def __init__(self, *, clairvoyant: bool = True) -> None:
        super().__init__(FIRST_FIT, name="FirstFit", clairvoyant=clairvoyant)


class BestFit(AnyFit):
    def __init__(self, *, clairvoyant: bool = True) -> None:
        super().__init__(BEST_FIT, name="BestFit", clairvoyant=clairvoyant)


class WorstFit(AnyFit):
    def __init__(self, *, clairvoyant: bool = True) -> None:
        super().__init__(WORST_FIT, name="WorstFit", clairvoyant=clairvoyant)


class LastFit(AnyFit):
    def __init__(self, *, clairvoyant: bool = True) -> None:
        super().__init__(LAST_FIT, name="LastFit", clairvoyant=clairvoyant)


class NextFit(OnlineAlgorithm):
    """Keep a single active bin; open a new one when the item doesn't fit.

    Not an Any-Fit algorithm (it ignores older bins), included as the
    weakest classical baseline.
    """

    name = "NextFit"

    def __init__(self) -> None:
        self._active: Optional[Bin] = None

    def reset(self) -> None:
        self._active = None

    def place(self, item: Item, sim) -> Bin:
        active = self._active
        if active is not None and active.fits(item):
            is_open = getattr(sim, "is_open", None)
            if (
                is_open(active.uid)
                if is_open is not None
                else active.uid in {b.uid for b in sim.open_bins}
            ):
                return active
        self._active = sim.open_bin(tag="nextfit")
        return self._active

    def notify_close(self, bin_: Bin, sim) -> None:
        if self._active is bin_:
            self._active = None


class RandomFit(OnlineAlgorithm):
    """Uniformly random choice among fitting bins (seeded baseline)."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.name = f"RandomFit(seed={seed})"
        self.reset()

    def reset(self) -> None:
        import numpy as np

        self._rng = np.random.default_rng(self.seed)

    def place(self, item: Item, sim) -> Bin:
        candidates = sim.fitting_bins(item)
        if candidates:
            return candidates[int(self._rng.integers(len(candidates)))]
        return sim.open_bin(tag="randomfit")
