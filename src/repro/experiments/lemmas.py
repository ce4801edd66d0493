"""Validation experiments for the paper's quantitative lemmas (Section 3)
and the cited Dual-Coloring guarantee.

LEM3.1, LEM3.3, COR3.4 and THM4.2 in DESIGN.md §3.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence

import numpy as np

from ..algorithms.hybrid import HybridAlgorithm
from ..analysis.theory import ha_gn_bound
from ..core.profile import LoadProfile, load_profile
from ..core.simulation import simulate
from ..core.validate import audit
from ..offline.bounds import (
    ceil_load_bound,
    lemma31_ceil_upper,
    lemma31_demand_span_upper,
)
from ..offline.dual_coloring import dual_coloring
from ..offline.optimal import opt_reference
from ..offline.waterfill import waterfill
from ..reductions.alignment import align_departures
from ..workloads.adversarial import full_adversary_schedule
from ..workloads.random_general import uniform_random
from .runner import ExperimentResult, register

__all__ = [
    "lemma31_experiment",
    "lemma33_experiment",
    "cor34_experiment",
    "dc_experiment",
]


@register("LEM3.1")
def lemma31_experiment(
    mus: Sequence[int] = (4, 16, 64),
    *,
    seeds: Sequence[int] = (0, 1, 2),
    n_items: int = 200,
) -> ExperimentResult:
    """Lemma 3.1: the constructive repacking (waterfill) realises
    ``OPT_R ≤ ∫2⌈S⌉`` and ``OPT_R ≤ 2d + 2span`` — checked pointwise and in
    aggregate on random instances."""
    headers = ["mu", "seed", "waterfill", "∫2⌈S⌉", "2d+2span", "OPT_R≥", "ok"]
    rows: List[List[object]] = []
    passed = True
    for mu in mus:
        for seed in seeds:
            inst = uniform_random(n_items, mu, seed=seed)
            wf = waterfill(inst)
            ub1 = lemma31_ceil_upper(inst)
            ub2 = lemma31_demand_span_upper(inst)
            lb = ceil_load_bound(inst)
            # pointwise: open bins ≤ 2⌈S_t⌉ at every breakpoint
            prof = load_profile(inst)
            ok_point = _pointwise_le(wf.profile, prof)
            ok = (
                wf.cost <= ub1 + 1e-6
                and wf.cost <= ub2 + 1e-6
                and wf.cost >= lb - 1e-6
                and ok_point
            )
            passed = passed and ok
            rows.append([mu, seed, wf.cost, ub1, ub2, lb, ok])
    notes = [
        "'ok' includes the pointwise check: waterfill keeps ≤ 2⌈S_t⌉ bins "
        "open at every moment (the Lemma 3.1 invariant)",
    ]
    return ExperimentResult(
        "LEM3.1",
        "Lemma 3.1 — constructive OPT_R upper bounds",
        headers,
        rows,
        notes,
        passed,
    )


def _pointwise_le(count_profile: LoadProfile, load: LoadProfile) -> bool:
    """Whether count(t) ≤ 2⌈S(t)⌉ for all t."""
    checkpoints = np.union1d(count_profile.breakpoints, load.breakpoints)
    for t in checkpoints[:-1]:
        if count_profile(t) > 2 * math.ceil(load(t) - 1e-9) + 1e-9:
            return False
    return True


@register("LEM3.3")
def lemma33_experiment(
    mus: Sequence[int] = (4, 16, 64, 256, 1024),
    *,
    seeds: Sequence[int] = (0, 1, 2),
    n_items: int = 600,
) -> ExperimentResult:
    """Lemma 3.3: HA never has more than ``2 + 4√log μ`` GN bins open —
    measured on random inputs and on the dense adversarial schedule."""
    headers = ["mu", "workload", "max GN open", "bound 2+4√logμ", "ok"]
    rows: List[List[object]] = []
    passed = True
    for mu in mus:
        bound = ha_gn_bound(mu)
        worst = 0
        for seed in seeds:
            inst = uniform_random(n_items, mu, seed=seed)
            ha = HybridAlgorithm()
            res = simulate(ha, inst)
            audit(res)
            worst = max(worst, ha.max_gn_open)
        ok = worst <= bound + 1e-9
        passed = passed and ok
        rows.append([mu, "uniform-random", worst, bound, ok])

        inst = full_adversary_schedule(min(mu, 256))
        ha = HybridAlgorithm()
        res = simulate(ha, inst)
        ok = ha.max_gn_open <= bound + 1e-9
        passed = passed and ok
        rows.append([mu, "dense σ* schedule", ha.max_gn_open, bound, ok])
    return ExperimentResult(
        "LEM3.3",
        "Lemma 3.3 — HA's GN bins are bounded by 2 + 4√log μ",
        headers,
        rows,
        [],
        passed,
    )


@register("COR3.4")
def cor34_experiment(
    mus: Sequence[int] = (4, 16, 64),
    *,
    seeds: Sequence[int] = (0, 1, 2),
    n_items: int = 150,
) -> ExperimentResult:
    """Corollary 3.4: the departure-alignment reduction costs OPT at most a
    factor 16 (on continuously-active inputs)."""
    headers = ["mu", "seed", "OPT_R(σ)≥", "OPT_R(σ')≤", "factor≤", "ok"]
    rows: List[List[object]] = []
    passed = True
    for mu in mus:
        for seed in seeds:
            inst = uniform_random(n_items, mu, seed=seed, horizon=2.0 * mu)
            reduced = align_departures(inst)
            opt = opt_reference(inst, max_exact=18)
            opt_red = opt_reference(reduced, max_exact=18)
            factor = opt_red.upper / opt.lower
            ok = factor <= 16.0 + 1e-9
            passed = passed and ok
            rows.append([mu, seed, opt.lower, opt_red.upper, factor, ok])
    notes = [
        "factor≤ is the certified worst case OPT_R(σ')-upper / OPT_R(σ)-lower;"
        " Corollary 3.4 guarantees ≤ 16",
    ]
    return ExperimentResult(
        "COR3.4",
        "Corollary 3.4 — the reduction loses at most a factor 16 on OPT_R",
        headers,
        rows,
        notes,
        passed,
    )


@register("THM4.2")
def dc_experiment(
    mus: Sequence[int] = (4, 16, 64, 256),
    *,
    seeds: Sequence[int] = (0, 1, 2, 3),
    n_items: int = 250,
) -> ExperimentResult:
    """Theorem 4.2 (cited): the Dual-Coloring stand-in stays within 4·OPT_R
    on the workload families used by the lower-bound experiments."""
    headers = ["mu", "workload", "mean DC/OPT_R", "max DC/OPT_R", "ok(≤4)"]
    rows: List[List[object]] = []
    passed = True
    for mu in mus:
        ratios = []
        for seed in seeds:
            inst = uniform_random(n_items, mu, seed=seed)
            dc = dual_coloring(inst)
            dc.audit()
            opt = opt_reference(inst, max_exact=18)
            ratios.append(dc.cost / opt.lower)
        ok = max(ratios) <= 4.0 + 1e-9
        passed = passed and ok
        rows.append([mu, "uniform-random", statistics.mean(ratios), max(ratios), ok])

        inst = full_adversary_schedule(min(mu, 128))
        dc = dual_coloring(inst)
        dc.audit()
        opt = opt_reference(inst, max_exact=18)
        ratio = dc.cost / opt.lower
        ok = ratio <= 4.0 + 1e-9
        passed = passed and ok
        rows.append([mu, "dense σ* schedule", ratio, ratio, ok])
    notes = [
        "DESIGN.md §4: the DC construction of [10] is substituted; this "
        "experiment validates the 4× guarantee empirically on the families "
        "the lower bound uses",
    ]
    return ExperimentResult(
        "THM4.2",
        "Theorem 4.2 (cited) — Dual-Coloring stand-in ≤ 4·OPT_R",
        headers,
        rows,
        notes,
        passed,
    )
