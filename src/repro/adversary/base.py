"""Adaptive adversary framework.

An adaptive adversary constructs its input *while* the online algorithm
runs, reacting to the algorithm's observable state (its open bins).  This
is exactly the model behind the paper's lower bound (Theorem 4.3): "release
a prefix of σ*_t and stop as soon as ON opens √log μ bins".

Adversaries drive an :class:`~repro.core.simulation.IncrementalSimulation`
— a recording :class:`~repro.core.kernel.PlacementKernel`, the same kernel
behind both the batch simulator and the streaming engine, exposing the full
:class:`~repro.algorithms.base.SimulationView` surface plus
``release``/``depart``/``run_until`` — and return an
:class:`AdversaryOutcome` bundling the algorithm's audited result with the
instance the adversary ended up generating, so the experiments can feed
that same instance to the offline oracles.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..core.instance import Instance
from ..core.item import Item
from ..core.result import PackingResult
from ..core.validate import audit

__all__ = ["AdaptiveAdversary", "AdversaryOutcome", "realized_instance"]


def realized_instance(result: PackingResult) -> Instance:
    """The instance the adversary generated, with *actual* departures.

    Items released with unknown departures get the departure time the
    adversary eventually chose; the resulting instance is what OPT is
    evaluated on.
    """
    items = []
    for it in result.items:
        arrival, departure = result.true_interval(it.uid)
        items.append(Item(arrival, departure, it.size, uid=it.uid))
    items.sort(key=lambda x: (x.arrival, x.uid))
    return Instance(items, reassign_uids=False)


@dataclass(frozen=True)
class AdversaryOutcome:
    """What an adversary run produced."""

    result: PackingResult  #: the online algorithm's audited packing
    instance: Instance  #: the generated input with realised departures

    @property
    def online_cost(self) -> float:
        return self.result.cost


class AdaptiveAdversary(ABC):
    """Base class: subclasses implement :meth:`drive`."""

    name: str = "adversary"

    @abstractmethod
    def drive(self, sim) -> None:
        """Release items (and schedule departures) against ``sim``."""

    def run(self, algorithm, *, capacity: float = 1.0, verify: bool = True
            ) -> AdversaryOutcome:
        """Play against ``algorithm`` and return the audited outcome."""
        from ..core.simulation import IncrementalSimulation

        sim = IncrementalSimulation(algorithm, capacity=capacity)
        self.drive(sim)
        result = sim.finish()
        if verify:
            audit(result)
        return AdversaryOutcome(result=result, instance=realized_instance(result))
