"""Classify-by-duration algorithms — the prior state of the art.

Two variants:

- :class:`ClassifyByDuration` — items whose length falls in
  ``(base^{k-1}, base^k]`` are packed first-fit among bins dedicated to
  class ``k`` (the kernel lane tagged ``("class", k)``).  With
  ``base=2`` this is the classical ``O(log μ)`` approach the paper's
  "Techniques" section mentions; no knowledge of μ is needed.
- :class:`RenTang` — the ``μ^{1/n} + n + 3``-competitive algorithm of
  Ren & Tang [10] (optimised over ``n`` this is ``O(log μ / log log μ)``,
  the best upper bound prior to this paper).  It partitions lengths into
  ``n`` geometric classes of ratio ``μ^{1/n}`` and runs first-fit per
  class (lane ``("rt-class", k)``); it needs μ in advance.

Both serve as baselines for experiment T1.GEN.UB: the paper's HA should
beat them, and their measured growth (``~log μ`` vs ``~log μ/log log μ`` vs
``~√log μ``) is part of Table 1's reproducible shape.
"""

from __future__ import annotations

import math
from typing import Optional

from ..core.bins import Bin
from ..core.errors import InvalidItemError
from ..core.item import Item
from .anyfit import FIRST_FIT, FitRule, lane_fit
from .base import OnlineAlgorithm

__all__ = ["ClassifyByDuration", "RenTang", "optimal_rentang_n"]


class ClassifyByDuration(OnlineAlgorithm):
    """First-fit within geometric duration classes of ratio ``base``."""

    def __init__(self, base: float = 2.0, *, rule: FitRule = FIRST_FIT) -> None:
        if base <= 1.0:
            raise InvalidItemError(f"base must exceed 1, got {base}")
        self.base = base
        self.rule = rule
        self.name = f"ClassifyByDuration(base={base:g})"

    def _class_of(self, item: Item) -> int:
        return math.ceil(math.log(item.length, self.base) - 1e-12)

    def place(self, item: Item, sim) -> Bin:
        lane = ("class", self._class_of(item))  # the class's kernel lane
        return lane_fit(self.rule, item, sim, lane) or sim.open_bin(tag=lane)


def optimal_rentang_n(mu: float) -> int:
    """The integer ``n ≥ 1`` minimising ``μ^{1/n} + n + 3`` (Ren & Tang)."""
    if mu <= 1.0:
        return 1
    best_n, best_val = 1, mu + 4.0
    # the minimiser is ≈ ln μ / ln ln μ; scanning a safe window is cheap
    upper = max(2, int(4 * math.log2(mu)) + 2)
    for n in range(1, upper + 1):
        val = mu ** (1.0 / n) + n + 3.0
        if val < best_val:
            best_n, best_val = n, val
    return best_n


class RenTang(OnlineAlgorithm):
    """Ren & Tang's classify-by-duration algorithm with ``n`` classes.

    Lengths are assumed in ``[min_length, min_length·μ]``; class ``k``
    covers ``[min_length·ρ^k, min_length·ρ^{k+1})`` with ``ρ = μ^{1/n}``.

    Parameters
    ----------
    mu:
        The (known in advance) max/min length ratio.
    n:
        Number of geometric classes; defaults to the minimiser of
        ``μ^{1/n} + n + 3``.
    min_length:
        Smallest possible item length (1 after normalisation).
    """

    def __init__(
        self,
        mu: float,
        n: Optional[int] = None,
        *,
        min_length: float = 1.0,
        rule: FitRule = FIRST_FIT,
    ) -> None:
        if mu < 1.0:
            raise InvalidItemError(f"mu must be ≥ 1, got {mu}")
        self.mu = mu
        self.n = n if n is not None else optimal_rentang_n(mu)
        if self.n < 1:
            raise InvalidItemError(f"n must be ≥ 1, got {self.n}")
        self.min_length = min_length
        self.rho = mu ** (1.0 / self.n) if mu > 1 else 2.0
        self.rule = rule
        self.name = f"RenTang(mu={mu:g}, n={self.n})"

    def _class_of(self, item: Item) -> int:
        ratio = item.length / self.min_length
        if ratio < 1.0 - 1e-9 or ratio > self.mu * (1 + 1e-9):
            raise InvalidItemError(
                f"item length {item.length} outside the declared "
                f"[{self.min_length}, {self.min_length * self.mu}] range"
            )
        if self.rho <= 1.0:
            return 0
        k = int(math.floor(math.log(max(ratio, 1.0), self.rho) + 1e-12))
        return min(k, self.n - 1)

    def place(self, item: Item, sim) -> Bin:
        lane = ("rt-class", self._class_of(item))  # the class's kernel lane
        return lane_fit(self.rule, item, sim, lane) or sim.open_bin(tag=lane)
