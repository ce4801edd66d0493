"""The online-algorithm protocol and shared classification helpers.

An online algorithm receives items one at a time through
:meth:`OnlineAlgorithm.place` and must return the bin the item goes into —
either an already-open bin taken from ``sim.open_bins`` or a fresh one
obtained from ``sim.open_bin(tag)``.  The simulator owns all bin state and
enforces capacity, and groups open bins into per-tag lanes the algorithms
query; algorithms keep only whatever private bookkeeping they need (HA
tracks per-type loads, CDFF tracks its rows).

The duration/arrival *type* ``T = (i, c)`` of Section 3 — ``length ∈
(2^{i-1}, 2^i]`` and ``arrival ∈ ((c-1)·2^i, c·2^i]`` — is implemented here
because both HA and the alignment reduction use it.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Hashable, Optional, Protocol, runtime_checkable

from ..core.bins import Bin, first_fit_choice
from ..core.errors import InvalidItemError
from ..core.item import Item

__all__ = [
    "OnlineAlgorithm",
    "SimulationView",
    "duration_class",
    "item_type",
    "type_departure_deadline",
    "first_fit_choice",
]


@runtime_checkable
class SimulationView(Protocol):
    """The ``sim`` every frontend hands to ``place()`` and the notify hooks.

    This is the formal contract between algorithms/adversaries and the
    simulation they run inside.  One class implements it — the
    :class:`~repro.core.kernel.PlacementKernel`, which hands itself to
    the algorithm under ``simulate()``, the streaming
    :class:`~repro.engine.loop.Engine` and the adversaries'
    :class:`~repro.core.simulation.IncrementalSimulation` (a recording
    kernel subclass) — so every method has exactly one implementation of
    its semantics.

    The candidate queries (:meth:`first_fit` … :meth:`fitting_bins`)
    mirror the classical Any-Fit rules.  Without ``lane`` they range over
    every open bin and run in O(log n) via the kernel's open-bin index.
    With ``lane=tag`` they range over one **lane** — the open bins whose
    ``tag`` is ``tag``, in opening order — which is how a
    class-partitioned algorithm (HA's GN and CD bins, the duration
    classes of ClassifyByDuration and Ren–Tang) packs Any-Fit inside a
    class without a bin list of its own: first/last-fit stop at the
    first fitting bin, best/worst-fit make one pass, and
    :meth:`lane_count` counts a lane in O(1).  Algorithms with bespoke
    selection logic can still scan :attr:`open_bins` directly.
    """

    @property
    def time(self) -> float:
        """The simulation clock (``-inf`` before the first event)."""
        ...

    @property
    def capacity(self) -> float:
        """Bin capacity (1.0 in the paper)."""
        ...

    @property
    def algorithm(self):
        """The online algorithm this simulation is driving."""
        ...

    @property
    def open_bins(self) -> tuple[Bin, ...]:
        """Currently open bins, oldest first (first-fit order)."""
        ...

    @property
    def open_bin_count(self) -> int:
        """Number of currently open bins (O(1))."""
        ...

    @property
    def cost_so_far(self) -> float:
        """Accumulated usage time up to the current clock (O(1))."""
        ...

    def open_bin(self, tag: Hashable = None) -> Bin:
        """Open a fresh bin (inside ``place()`` only; one per placement)."""
        ...

    def is_open(self, uid: int) -> bool:
        """Whether bin ``uid`` is currently open (O(1))."""
        ...

    def first_fit(self, item: Item, lane: Hashable = None) -> Optional[Bin]:
        """Earliest-opened open bin (of ``lane``) that fits ``item``."""
        ...

    def best_fit(self, item: Item, lane: Hashable = None) -> Optional[Bin]:
        """Fullest fitting bin (of ``lane``; ties earliest-opened)."""
        ...

    def worst_fit(self, item: Item, lane: Hashable = None) -> Optional[Bin]:
        """Emptiest fitting bin (of ``lane``; ties earliest-opened)."""
        ...

    def last_fit(self, item: Item, lane: Hashable = None) -> Optional[Bin]:
        """Latest-opened open bin (of ``lane``) that fits ``item``."""
        ...

    def fitting_bins(self, item: Item, lane: Hashable = None) -> list[Bin]:
        """All open bins (of ``lane``) that fit ``item``, oldest first."""
        ...

    def lane_count(self, lane: Hashable = None) -> int:
        """Number of open bins tagged ``lane`` (all for ``None``; O(1))."""
        ...


def duration_class(length: float, *, min_class: int = 1) -> int:
    """The duration class ``i`` with ``length ∈ (2^{i-1}, 2^i]``.

    ``min_class=1`` folds lengths in ``[1, 2]`` into ``i = 1`` (DESIGN.md §5):
    the paper assumes lengths ≥ 1 and ``i ≥ 1`` so the HA threshold
    ``1/(2√i)`` is well defined.  Pass ``min_class=0`` for the raw class
    (used by CDFF, whose smallest interval is ``(1/2, 1]``).
    """
    if length <= 0 or not math.isfinite(length):
        raise InvalidItemError(f"length must be positive and finite, got {length}")
    i = math.ceil(math.log2(length) - 1e-12)
    return max(min_class, i)


def item_type(item: Item, *, min_class: int = 1) -> tuple[int, int]:
    """The paper's type ``T = (i, c)`` of an item (Section 3)."""
    i = duration_class(item.length, min_class=min_class)
    width = 2.0**i
    # c with arrival ∈ ((c-1)·2^i, c·2^i]; arrivals at exactly c·2^i get c.
    c = math.ceil(item.arrival / width - 1e-12)
    return (i, c)


def type_departure_deadline(T: tuple[int, int]) -> float:
    """Departure time ``(c+1)·2^i`` the reduction assigns to type ``T`` items."""
    i, c = T
    return (c + 1) * 2.0**i


def algorithm_name(algorithm) -> str:
    """``algorithm``'s :attr:`~OnlineAlgorithm.name`, or its class name
    when it has none (an object that only duck-types the protocol)."""
    return getattr(algorithm, "name", type(algorithm).__name__)


class OnlineAlgorithm(ABC):
    """Protocol for online MinUsageTime packing algorithms.

    Attributes
    ----------
    name:
        Human-readable identifier used in result tables.
    clairvoyant:
        When ``False``, the simulator masks departure times from every item
        the algorithm sees.
    """

    name: str = "online"
    clairvoyant: bool = True

    def reset(self) -> None:
        """Clear private state; called once before a simulation starts."""

    @abstractmethod
    def place(self, item: Item, sim: "SimulationView") -> Bin:
        """Choose the bin for ``item``.

        ``sim`` satisfies the :class:`SimulationView` protocol (the
        placement kernel or one of its frontends); use ``sim.open_bins``
        (or the indexed ``sim.first_fit``/``best_fit``/… queries) to
        inspect open bins and ``sim.open_bin(tag)`` to open a new one.
        Must return the chosen bin.
        """

    def notify_departure(self, item: Item, bin_: Bin, sim) -> None:
        """Hook: ``item`` just left ``bin_`` (bin may now be empty)."""

    def notify_close(self, bin_: Bin, sim) -> None:
        """Hook: ``bin_`` just became empty and was closed."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
