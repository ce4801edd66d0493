"""Extension experiments beyond the paper's own artifacts.

- EXT.GREEDY — is raw clairvoyance enough?  The LeastExpansion greedy
  (exact departure times, no classes) wins on friendly traces but is still
  pinned by the Section 4 adversary: HA's class/threshold structure, not
  clairvoyance per se, is what earns the O(√log μ) guarantee.
- EXT.SHALOM — the bounded-parallelism setting of Shalom et al. [12]
  (uniform sizes 1/g) as a special case: simulating size-1/g items in a
  unit bin is *exactly* equivalent to unit items in a capacity-g bin, and
  the general-case machinery reproduces the uniform-size regime.
- OPEN.ALIGN — the conclusions' open problem: is CDFF's O(log log μ)
  tight for aligned inputs?  A randomised hill-climbing search over
  aligned instances looks for inputs forcing CDFF above a constant; the
  best ratios found are reported per μ (evidence, not proof).
"""

from __future__ import annotations

import math
from typing import List, Sequence

from ..adversary.sqrt_log import SqrtLogAdversary
from ..algorithms.anyfit import FirstFit
from ..algorithms.cdff import CDFF
from ..algorithms.greedy import LeastExpansion
from ..algorithms.hybrid import HybridAlgorithm
from ..core.instance import Instance
from ..core.simulation import simulate
from ..core.validate import audit
from ..offline.optimal import opt_reference
from ..workloads.aligned import binary_input
from ..workloads.cloud import bounded_parallelism, cloud_gaming
from .runner import ExperimentResult, register

__all__ = ["greedy_experiment", "shalom_experiment", "open_aligned_experiment"]


@register("EXT.GREEDY")
def greedy_experiment(
    mus: Sequence[int] = (16, 64, 256),
) -> ExperimentResult:
    """LeastExpansion vs HA: friendly traces vs the adversary."""
    headers = ["workload", "mu", "LeastExpansion", "HybridAlgorithm",
               "FirstFit"]
    rows: List[List[object]] = []
    passed = True
    trace = cloud_gaming(60.0, seed=11).normalized()
    opt = opt_reference(trace, max_exact=14)
    vals = {}
    for factory in (LeastExpansion, HybridAlgorithm, FirstFit):
        res = simulate(factory(), trace)
        audit(res)
        vals[res.algorithm] = res.cost / opt.lower
    rows.append(["cloud trace", round(trace.mu),
                 vals["LeastExpansion"], vals["HybridAlgorithm"],
                 vals["FirstFit"]])
    # on the friendly trace the greedy must be at least as good as HA
    if vals["LeastExpansion"] > vals["HybridAlgorithm"] + 0.05:
        passed = False

    for mu in mus:
        row: List[object] = ["σ* adversary", mu]
        for factory in (LeastExpansion, HybridAlgorithm, FirstFit):
            adv = SqrtLogAdversary(mu)
            out = adv.run(factory())
            o = opt_reference(out.instance, max_exact=14)
            ratio = out.online_cost / o.lower
            row.append(ratio)
            # the adversary pins everyone at/above the target forcing level
            if out.online_cost < mu * adv.target_bins - 1e-9:
                passed = False
        rows.append(row)
    notes = [
        "the adversary's forcing is algorithm-agnostic: even the fully "
        "clairvoyant greedy pays μ·⌈√log μ⌉ — structure, not clairvoyance, "
        "is what the paper's upper bound exploits",
    ]
    return ExperimentResult(
        "EXT.GREEDY",
        "Extension — exact-departure greedy vs HA",
        headers,
        rows,
        notes,
        passed,
    )


@register("EXT.SHALOM")
def shalom_experiment(
    gs: Sequence[int] = (2, 4, 8),
    *,
    mu: float = 32.0,
    n_items: int = 200,
    seed: int = 0,
) -> ExperimentResult:
    """Bounded parallelism [12]: size-1/g items ≡ capacity-g bins, exactly."""
    headers = ["g", "FF cost (sizes 1/g)", "FF cost (capacity g)", "equal",
               "FF ratio"]
    rows: List[List[object]] = []
    passed = True
    for g in gs:
        inst = bounded_parallelism(g, n_items, mu, seed=seed)
        res_sizes = simulate(FirstFit(), inst)
        audit(res_sizes)
        # the same intervals with *unit* sizes in capacity-g bins
        from ..core.item import Item

        unit = Instance(
            [Item(it.arrival, it.departure, 1.0, uid=it.uid) for it in inst],
            reassign_uids=False,
        )
        res_cap = simulate(FirstFit(), unit, capacity=float(g))
        equal = math.isclose(res_sizes.cost, res_cap.cost, rel_tol=1e-9)
        passed = passed and equal
        opt = opt_reference(inst, max_exact=14)
        rows.append([g, res_sizes.cost, res_cap.cost, equal,
                     res_sizes.cost / opt.lower])
    notes = [
        "the exact equivalence validates the simulator's capacity handling "
        "and embeds the [12] setting (whose lower bound seeded Section 4) "
        "in the general model",
    ]
    return ExperimentResult(
        "EXT.SHALOM",
        "Extension — interval scheduling with bounded parallelism [12] as a "
        "special case",
        headers,
        rows,
        notes,
        passed,
    )


@register("OPEN.ALIGN")
def open_aligned_experiment(
    mus: Sequence[int] = (8, 32, 128),
    *,
    restarts: int = 4,
    steps: int = 60,
    n_items: int = 40,
    seed: int = 0,
) -> ExperimentResult:
    """Search for aligned inputs that hurt CDFF (conclusions' open problem)."""
    from ..search import InstanceSearch, aligned_mutator, aligned_sampler, certified_ratio

    headers = ["mu", "best CDFF ratio found", "σ_μ ratio", "bound 2loglogμ+1",
               "evals"]
    rows: List[List[object]] = []
    for mu in mus:
        search = InstanceSearch(
            aligned_sampler(mu, n_items),
            aligned_mutator(mu),
            lambda inst: certified_ratio(CDFF, inst),
        )
        outcome = search.run(restarts=restarts, steps=steps, seed=seed)
        sigma_ratio = simulate(CDFF(), binary_input(mu)).cost / mu
        bound = 2 * max(1.0, math.log2(max(1.0, math.log2(mu)))) + 1
        rows.append([mu, outcome.score, sigma_ratio, bound,
                     outcome.evaluations])
    notes = [
        "hill-climbing over aligned instances; σ_μ remains the hardest "
        "known family — the search found nothing beating it by more than "
        "noise, weak empirical support for CDFF's analysis being tight on "
        "structured inputs (the open problem stands)",
    ]
    return ExperimentResult(
        "OPEN.ALIGN",
        "Open problem — searching for aligned inputs that defeat CDFF",
        headers,
        rows,
        notes,
        True,
    )


@register("OPEN.GEN")
def open_general_experiment(
    mus: Sequence[int] = (16, 64, 256),
    *,
    restarts: int = 3,
    steps: int = 50,
    n_items: int = 40,
    seed: int = 0,
) -> ExperimentResult:
    """Search for oblivious general inputs that hurt HA vs the adaptive floor.

    The Theorem 4.3 lower bound needs *adaptivity* to grow with μ; this
    search asks how far a fixed instance can push HA.  At laptop scales
    both attacks land in the same small-constant regime (the oblivious
    search can even edge out the adversary's constant, since the adversary
    optimises asymptotics, not small-μ constants); the value of the
    experiment is the certified witnesses themselves.
    """
    from ..adversary.sqrt_log import SqrtLogAdversary
    from ..search import InstanceSearch, certified_ratio, general_mutator, general_sampler

    headers = ["mu", "best HA ratio found (oblivious)", "adaptive adversary",
               "evals"]
    rows: List[List[object]] = []
    passed = True
    for mu in mus:
        search = InstanceSearch(
            general_sampler(float(mu), n_items),
            general_mutator(float(mu)),
            lambda inst: certified_ratio(HybridAlgorithm, inst),
        )
        outcome = search.run(restarts=restarts, steps=steps, seed=seed)
        adv = SqrtLogAdversary(mu)
        out = adv.run(HybridAlgorithm())
        adv_ratio = out.online_cost / opt_reference(
            out.instance, max_exact=12
        ).upper
        if outcome.score < 1.0 - 1e-9:
            passed = False  # certified ratios are never below 1
        rows.append([mu, outcome.score, adv_ratio, outcome.evaluations])
    notes = [
        "both columns are certified floors (ALG / OPT_R-upper); the "
        "adaptive construction's advantage is asymptotic — at these μ the "
        "two attacks sit in the same constant regime",
    ]
    return ExperimentResult(
        "OPEN.GEN",
        "Extension — oblivious-instance search against HA",
        headers,
        rows,
        notes,
        passed,
    )
