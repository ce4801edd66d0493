"""A kernel-independent reference simulator: the oracle's second opinion.

``simulate()``, the engine and the served shards all run one placement
kernel, so comparing them only shows that their feed paths agree.  This
module re-implements the paper's model from scratch — plain lists, one
``(departure, seq, item, bin)`` heap, a scan per query, and no import
from ``core.kernel``, ``core.bins``, ``core.simulation`` or
``repro.engine`` — so :func:`repro.engine.parity.check_against_batch`
can hold the kernel itself to account.  The model: intervals are
half-open ``[t, f)``, so at equal times departures come before arrivals,
and ties keep release order; a bin closes when it empties; an algorithm
with ``clairvoyant=False`` sees departures masked.

:class:`ReferenceSim` is the ``sim`` handed to ``place()`` and the
notify hooks, answering each ``SimulationView`` query with the kernel's
tie-breaks (best/worst fit: the smallest uid among equal residuals).
Its totals follow the model's float operations in order, so a correct
kernel matches them bit for bit.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Hashable, Iterable, List, Optional

from ..core.errors import CapacityExceededError, PackingError, SimulationError
from ..core.item import Item

__all__ = ["RefBin", "ReferenceSim", "reference_run"]

LOAD_EPS = 1e-9  #: fit-test slack: three items of size 1/3 fill a bin


class RefBin:
    """An open bin: the attributes algorithms read, nothing more."""

    __slots__ = ("uid", "capacity", "tag", "opened_at", "_load", "_held")

    def __init__(self, uid: int, capacity: float, opened_at: float, tag):
        self.uid = uid
        self.capacity = capacity
        self.tag = tag
        self.opened_at = opened_at
        self._load = 0.0
        self._held = 0  #: items in the bin right now

    def residual(self) -> float:
        return self.capacity - self._load

    def fits(self, item: Item) -> bool:
        return self._load + item.size <= self.capacity + LOAD_EPS


class ReferenceSim:
    """Drives one online algorithm over released items (see module doc)."""

    def __init__(self, algorithm, *, capacity: float = 1.0) -> None:
        self.algorithm = algorithm
        self.capacity = capacity
        self.time = -math.inf
        self.cost = 0.0  #: closed bins' usage, summed in close order
        self.bins_opened = 0
        self.max_open = 0
        self.load = 0.0  #: total size of active items
        self.peak_load = 0.0
        self.util_area = 0.0  #: ∫ load dt
        self.assignment: Dict[int, int] = {}  #: item uid -> bin uid
        self.opened: Dict[int, bool] = {}  #: item uid -> opened a bin
        self._open: List[RefBin] = []  # opening order
        self._heap: list = []  # (departure, release seq, view, bin)
        self._seq = 0
        self._next_bin = 0
        self._pending: Optional[RefBin] = None
        self._masked = not getattr(algorithm, "clairvoyant", True)
        algorithm.reset()

    # -- the SimulationView surface ------------------------------------ #
    @property
    def open_bins(self) -> tuple:
        return tuple(self._open)

    @property
    def open_bin_count(self) -> int:
        return len(self._open)

    @property
    def cost_so_far(self) -> float:
        t = self.time if math.isfinite(self.time) else 0.0
        return self.cost + sum(t - b.opened_at for b in self._open)

    def open_bin(self, tag: Hashable = None) -> RefBin:
        if self._pending is not None:
            raise PackingError("place() may open at most one new bin")
        self._pending = RefBin(self._next_bin, self.capacity, self.time, tag)
        self._next_bin += 1
        return self._pending

    def is_open(self, uid: int) -> bool:
        return any(b.uid == uid for b in self._open)

    def fitting_bins(self, item: Item, lane: Hashable = None) -> list:
        return [b for b in self._lane(lane) if b.fits(item)]

    def lane_count(self, lane: Hashable = None) -> int:
        return len(self._lane(lane))

    def _lane(self, lane: Hashable) -> list:
        """The open bins tagged ``lane`` (all for ``None``), oldest first."""
        return [b for b in self._open if lane is None or b.tag == lane]

    def first_fit(self, item: Item, lane: Hashable = None):
        return (self.fitting_bins(item, lane) or [None])[0]

    def last_fit(self, item: Item, lane: Hashable = None):
        return (self.fitting_bins(item, lane) or [None])[-1]

    def best_fit(self, item: Item, lane: Hashable = None):
        return min(self.fitting_bins(item, lane), default=None,
                   key=lambda b: (b.residual(), b.uid))

    def worst_fit(self, item: Item, lane: Hashable = None):
        return max(self.fitting_bins(item, lane), default=None,
                   key=lambda b: (b.residual(), -b.uid))

    # -- driving --------------------------------------------------------- #
    def release(self, item: Item) -> RefBin:
        """Depart everything due by ``item.arrival``, then place ``item``."""
        if item.arrival < self.time:
            raise SimulationError(f"{item} arrives before the clock {self.time}")
        if item.departure is None:
            raise SimulationError("the reference replays known departures only")
        self._advance(item.arrival)
        view = item.masked() if self._masked else item
        chosen = self.algorithm.place(view, self)
        fresh, self._pending = self._pending, None
        if fresh is not None and chosen is not fresh:
            raise PackingError("place() opened a new bin but returned another")
        if fresh is None and not any(b is chosen for b in self._open):
            raise PackingError("place() returned a bin that is not open")
        if not chosen.fits(view):
            raise CapacityExceededError(f"{item} overfills bin {chosen.uid}")
        if fresh is not None:
            self._open.append(chosen)
            self.bins_opened += 1
            self.max_open = max(self.max_open, len(self._open))
        chosen._load += view.size
        chosen._held += 1
        self.load += view.size
        self.peak_load = max(self.peak_load, self.load)
        self.assignment[item.uid] = chosen.uid
        self.opened[item.uid] = fresh is not None
        heapq.heappush(self._heap, (item.departure, self._seq, view, chosen))
        self._seq += 1
        return chosen

    def drain(self) -> None:
        """Process every remaining departure."""
        while self._heap:
            self._advance(self._heap[0][0])

    def _advance(self, until: float) -> None:
        """Departures due at or before ``until`` (the ``[t, f)`` rule),
        then the clock moves to ``until``."""
        while self._heap and self._heap[0][0] <= until:
            t, _, view, bin_ = heapq.heappop(self._heap)
            self._tick(t)
            bin_._held -= 1
            bin_._load -= view.size
            if not bin_._held:
                bin_._load = 0.0
            self.load -= view.size
            if not any(b._held for b in self._open):
                self.load = 0.0  # no active item left
            self.algorithm.notify_departure(view, bin_, self)
            if not bin_._held:
                self._open.remove(bin_)
                self.cost += t - bin_.opened_at
                self.algorithm.notify_close(bin_, self)
        self._tick(until)

    def _tick(self, t: float) -> None:
        if t > self.time:
            if self.time != -math.inf:
                self.util_area += self.load * (t - self.time)
            self.time = t


def reference_run(algorithm, items: Iterable[Item], *, capacity=1.0):
    """Release ``items`` in order, drain, and return the finished sim."""
    sim = ReferenceSim(algorithm, capacity=capacity)
    for item in items:
        sim.release(item)
    sim.drain()
    return sim
