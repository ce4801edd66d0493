"""Workload combinators: build complex traffic from simple pieces.

Generators produce base patterns; combinators compose them — the cloud
example's "calm trace + pathological burst" is `overlay(trace,
shift(burst, t))`.  All combinators return fresh validated instances and
never mutate inputs.
"""

from __future__ import annotations

import numpy as np

from ..core.instance import Instance
from ..core.item import Item

__all__ = ["overlay", "periodic", "perturb_sizes", "thin", "truncate"]


def overlay(*instances: Instance) -> Instance:
    """All items of all instances, merged into one timeline."""
    items = sorted(
        (it for inst in instances for it in inst), key=lambda it: it.arrival
    )
    return Instance([Item(it.arrival, it.departure, it.size) for it in items])


def periodic(instance: Instance, *, period: float, repeats: int) -> Instance:
    """``repeats`` copies of the instance, each shifted by ``period``.

    ``period`` must be positive; copies may overlap if the instance's
    activity outlasts the period (that's allowed — it models sustained
    load).
    """
    if period <= 0:
        raise ValueError("period must be positive")
    if repeats < 1:
        raise ValueError("repeats must be ≥ 1")
    copies = [instance.shifted(k * period) for k in range(repeats)]
    return overlay(*copies)


def perturb_sizes(
    instance: Instance,
    *,
    jitter: float,
    seed: int = 0,
    size_floor: float = 0.01,
) -> Instance:
    """Multiply every size by ``U(1−jitter, 1+jitter)``, clipped to (0, 1].

    Useful for robustness studies: does a policy's behaviour depend on
    exact sizes (the FF traps do) or only on the rough load profile?
    """
    if not (0.0 <= jitter < 1.0):
        raise ValueError("jitter must be in [0, 1)")
    rng = np.random.default_rng(seed)
    triples = []
    for it in instance:
        factor = float(rng.uniform(1.0 - jitter, 1.0 + jitter))
        size = min(1.0, max(size_floor, it.size * factor))
        triples.append((it.arrival, it.departure, size))
    return Instance.from_tuples(triples)


def thin(instance: Instance, *, keep: float, seed: int = 0) -> Instance:
    """Keep each item independently with probability ``keep``.

    At least one item is always retained (the earliest) so downstream code
    never sees an unexpectedly empty instance.
    """
    if not (0.0 < keep <= 1.0):
        raise ValueError("keep must be in (0, 1]")
    rng = np.random.default_rng(seed)
    kept = [it for it in instance if rng.uniform() < keep]
    if not kept:
        kept = [instance[0]]
    return Instance([Item(it.arrival, it.departure, it.size) for it in kept])


def truncate(instance: Instance, *, horizon: float) -> Instance:
    """Drop items arriving at or after ``horizon``; clip departures to it.

    Items whose whole interval lies beyond the horizon vanish; items
    straddling it are shortened (their size is unchanged — this models a
    hard end of the observation window, as trace collection does).
    """
    triples = []
    for it in instance:
        if it.arrival >= horizon:
            continue
        dep = min(it.departure, horizon)  # type: ignore[type-var]
        if dep <= it.arrival:
            continue
        triples.append((it.arrival, float(dep), it.size))
    return Instance.from_tuples(triples)
