"""The correctness check every run makes: decisions vs batch ``simulate()``.

Each served shard (and the replay engine) sees an arrival-ordered item
stream; batch ``simulate()`` on that same stream is the reference.  A
run is correct only when every reply's ``bin``/``opened`` and the final
``cost``/``bins_opened``/``max_open`` equal the reference exactly (the
cost as a float, bit for bit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence


@dataclass
class Reference:
    """Batch ``simulate()`` decisions for one stream, in stream order."""

    bins: List[int]
    opened: List[bool]
    cost: float
    bins_opened: int
    max_open: int

    def check_decisions(self, bins: Sequence[Optional[int]],
                        opened: Sequence[Optional[bool]]) -> List[str]:
        """Mismatch descriptions (empty when every decision agrees)."""
        problems = []
        if len(bins) != len(self.bins):
            return [f"{len(bins)} decisions vs {len(self.bins)} expected"]
        bad = [i for i, (b, e) in enumerate(zip(bins, self.bins)) if b != e]
        if bad:
            i = bad[0]
            problems.append(f"{len(bad)} bin decisions differ (first: item "
                            f"{i} got {bins[i]}, batch {self.bins[i]})")
        bad = [i for i, (o, e) in enumerate(zip(opened, self.opened))
               if o is None or bool(o) != e]
        if bad:
            problems.append(f"{len(bad)} opened flags differ")
        return problems

    def check_totals(self, cost: float, bins_opened: int,
                     max_open: int) -> List[str]:
        problems = []
        if cost != self.cost:
            problems.append(f"cost {cost!r} vs batch {self.cost!r}")
        if bins_opened != self.bins_opened:
            problems.append(
                f"bins_opened {bins_opened} vs batch {self.bins_opened}")
        if max_open != self.max_open:
            problems.append(f"max_open {max_open} vs batch {self.max_open}")
        return problems


def algorithm(name: str):
    from repro.parallel import _registry

    return _registry()[name]()


def reference(algorithm_name: str, arrivals: Sequence[float],
              departures: Sequence[float],
              sizes: Sequence[float]) -> Reference:
    """Run batch ``simulate()`` on the stream; uids are stream positions."""
    from repro.core.instance import Instance
    from repro.core.simulation import simulate

    inst = Instance.from_tuples(zip(arrivals, departures, sizes))
    result = simulate(algorithm(algorithm_name), inst)
    bins = [result.assignment[uid] for uid in range(len(inst))]
    first = {rec.uid: rec.item_uids[0] for rec in result.bins}
    opened = [first[b] == uid for uid, b in enumerate(bins)]
    return Reference(bins, opened, result.cost, len(result.bins),
                     result.max_open)
