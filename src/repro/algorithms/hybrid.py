"""The Hybrid Algorithm (HA) — the paper's O(√log μ) contribution.

Algorithm 1 of the paper.  HA classifies each arriving item ``r`` by its
type ``T = (i, c)`` — duration class ``i`` with ``length ∈ (2^{i-1}, 2^i]``
and arrival window ``c`` with ``arrival ∈ ((c-1)·2^i, c·2^i]`` — and keeps
two kinds of bins:

- **GN** (general) bins shared by all types, packed Any-Fit; and
- **CD** (classify-by-duration) bins, each dedicated to a single type.

Upon arrival of ``r`` of type ``T``:

1. if an open CD bin for ``T`` exists, pack ``r`` Any-Fit among the CD bins
   of type ``T`` (opening a new CD bin if none fits);
2. otherwise, if the total load of *active* type-``T`` items (including
   ``r``) is at most the threshold ``1/(2√i)``, pack ``r`` Any-Fit among the
   GN bins (opening a new GN bin if none fits);
3. otherwise open the first CD bin for type ``T`` and put ``r`` in it.

HA needs no advance knowledge of μ — the classification adapts as longer
items arrive.  Lemma 3.3 guarantees the number of open GN bins never
exceeds ``2 + 4√log μ``; the CD bins are charged to OPT through the
departure-alignment reduction (Lemma 3.5), giving Theorem 3.2's
``O(√log μ)`` competitive ratio.

The ``threshold`` and ``rule`` parameters exist for the ablation
experiments (ABL.THRESH, ABL.ANYFIT): the paper's footnote 1 notes any
Any-Fit rule works, and the threshold shape ``1/(2√i)`` is exactly what
balances the GN load sum ``Σ 1/√i ≈ 2√log μ`` against the CD-bin charging
argument.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional

from ..core.bins import Bin
from ..core.item import Item
from .anyfit import FIRST_FIT, FitRule, lane_fit
from .base import OnlineAlgorithm, item_type

__all__ = ["HybridAlgorithm", "sqrt_threshold", "GN_TAG", "CD_TAG", "GN_LANE"]

GN_TAG = "GN"
CD_TAG = "CD"
#: the tag (and kernel lane) of every GN bin; a type-``T`` CD bin is
#: tagged ``(CD_TAG, T)``
GN_LANE = (GN_TAG,)

#: threshold(i) -> max total active type load that may still go to GN bins.
ThresholdFn = Callable[[int], float]


def sqrt_threshold(i: int) -> float:
    """The paper's threshold ``1/(2√i)``."""
    return 1.0 / (2.0 * math.sqrt(i))


class HybridAlgorithm(OnlineAlgorithm):
    """Azar & Vainstein's Hybrid Algorithm (Algorithm 1).

    The GN bins and each type's CD bins are kernel lanes, tagged
    :data:`GN_LANE` and ``(CD_TAG, T)``: HA keeps no bin lists, only the
    per-type active loads and the peak GN count.

    Parameters
    ----------
    threshold:
        Per-class GN admission threshold; defaults to ``1/(2√i)``.
    rule:
        Any-Fit rule used both over GN bins and over a type's CD bins
        (footnote 1 of the paper).
    """

    def __init__(
        self,
        *,
        threshold: ThresholdFn = sqrt_threshold,
        rule: FitRule = FIRST_FIT,
        name: Optional[str] = None,
    ) -> None:
        self.threshold = threshold
        self.rule = rule
        self.name = name or "HybridAlgorithm"
        self.reset()

    def reset(self) -> None:
        self._type_load: Dict[tuple[int, int], float] = {}
        self._type_of: Dict[int, tuple[int, int]] = {}
        self._max_gn_open = 0

    # ------------------------------------------------------------------ #
    @property
    def max_gn_open(self) -> int:
        """Peak simultaneous GN bins — Lemma 3.3 bounds this by 2+4√log μ."""
        return self._max_gn_open

    def gn_open(self, sim) -> int:
        """Open GN bins right now in ``sim``, the simulation HA runs in."""
        return sim.lane_count(GN_LANE)

    def cd_open(self, sim) -> int:
        """k_t — total open CD bins right now in ``sim`` (Lemma 3.5's
        quantity)."""
        return sim.open_bin_count - sim.lane_count(GN_LANE)

    def active_type_load(self, T: tuple[int, int]) -> float:
        return self._type_load.get(T, 0.0)

    # ------------------------------------------------------------------ #
    def place(self, item: Item, sim) -> Bin:
        T = item_type(item)
        self._type_of[item.uid] = T
        d = self._type_load.get(T, 0.0) + item.size
        self._type_load[T] = d

        cd = (CD_TAG, T)
        if sim.lane_count(cd):  # an open CD bin for T exists → Any-Fit there
            return lane_fit(self.rule, item, sim, cd) or sim.open_bin(tag=cd)

        i, _ = T
        if d <= self.threshold(i) + 1e-12:
            b = lane_fit(self.rule, item, sim, GN_LANE)
            if b is None:
                b = sim.open_bin(tag=GN_LANE)
                n_gn = sim.lane_count(GN_LANE) + 1  # b is not committed yet
                if n_gn > self._max_gn_open:
                    self._max_gn_open = n_gn
            return b

        # threshold crossed: open the first CD bin for this type
        return sim.open_bin(tag=cd)

    # ------------------------------------------------------------------ #
    def notify_departure(self, item: Item, bin_: Bin, sim) -> None:
        T = self._type_of.pop(item.uid, None)
        if T is not None:
            self._type_load[T] = self._type_load.get(T, 0.0) - item.size
            if self._type_load[T] <= 1e-12:
                self._type_load.pop(T, None)
