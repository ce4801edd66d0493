"""Alternative goal functions (Section 1's motivation for MinUsageTime).

The introduction contrasts three objectives for dynamic bin packing:

- :func:`max_bins` — the traditional goal: the maximum number of bins ever
  open during the process;
- :func:`momentary_ratio` — compare the online algorithm to OPT at every
  moment and take the worst ratio of open-bin counts;
- :func:`usage_time` — MinUsageTime, the paper's objective: total busy
  time over all bins.

The paper's point: the first two "fail to distinguish between the case
where the online algorithm's cost is high throughout the entire process
and the case where it is only momentarily high".  The OBJ.MOTIVATION
experiment (:mod:`repro.experiments.objectives`) makes that concrete with
two packings that tie on max-bins but differ arbitrarily in usage time.
"""

from __future__ import annotations

import math

import numpy as np

from .instance import Instance
from .profile import LoadProfile
from .result import PackingResult

__all__ = [
    "usage_time",
    "max_bins",
    "momentary_ratio",
    "optimal_bins_profile",
]


def usage_time(result: PackingResult) -> float:
    """MinUsageTime — the paper's objective (same as ``result.cost``)."""
    return result.cost


def max_bins(result: PackingResult) -> int:
    """The classical DBP objective: maximum simultaneously open bins."""
    return result.max_open


def optimal_bins_profile(
    instance: Instance, *, capacity: float = 1.0, max_exact: int = 26
) -> LoadProfile:
    """``OPT_R^t(σ)`` — the minimum feasible open-bin count over time.

    Piecewise constant between event points; uses the exact bin-packing
    oracle per segment (upper value of the sandwich when a segment is too
    large, so the momentary ratio below stays a certified *lower* bound).
    """
    from ..offline.binpack import min_bins_bounded

    if len(instance) == 0:
        return LoadProfile(np.asarray([0.0]), np.zeros(0))
    events: list[tuple[float, int, int]] = []
    for k, it in enumerate(instance):
        events.append((it.arrival, 1, k))
        events.append((it.departure, 0, k))  # type: ignore[arg-type]
    events.sort()
    sizes = [it.size for it in instance]
    active: dict[int, float] = {}
    bps: list[float] = []
    vals: list[float] = []
    pos, n_ev = 0, len(events)
    while pos < n_ev:
        t = events[pos][0]
        while pos < n_ev and events[pos][0] == t:
            _, kind, idx = events[pos]
            pos += 1
            if kind == 0:
                active.pop(idx, None)
            else:
                active[idx] = sizes[idx]
        bps.append(t)
        if pos < n_ev:
            _, hi = min_bins_bounded(
                sorted(active.values()), capacity, max_exact=max_exact
            )
            vals.append(float(hi))
    return LoadProfile(np.asarray(bps), np.asarray(vals))


def momentary_ratio(
    result: PackingResult, instance: Instance, *, max_exact: int = 26
) -> float:
    """``max_t ON_t / OPT_R^t`` — the momentary goal function.

    Certified lower bound on the true momentary ratio (OPT per moment is
    evaluated by its upper bound when inexact).
    """
    on = result.open_bins_profile()
    opt = optimal_bins_profile(
        instance, capacity=result.capacity, max_exact=max_exact
    )
    checkpoints = np.union1d(on.breakpoints, opt.breakpoints)
    worst = 0.0
    for t in checkpoints[:-1]:
        o = opt(float(t))
        n = on(float(t))
        if o > 0:
            worst = max(worst, n / o)
        elif n > 0:
            return math.inf
    return worst
