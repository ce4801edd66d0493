"""Experiments regenerating Table 1 of the paper (one per row).

Table 1 summarises competitive-ratio bounds; each experiment below turns
one row into measurements whose *shape* (ordering of algorithms, growth
with μ, respect of the proved constants) reproduces the row.  See
DESIGN.md §3 for the artifact index and EXPERIMENTS.md for the recorded
paper-vs-measured outcomes.
"""

from __future__ import annotations

import math
import statistics
from typing import Callable, List, Sequence

from ..adversary.nonclairvoyant import NonClairvoyantAdversary
from ..adversary.sqrt_log import SqrtLogAdversary
from ..algorithms.anyfit import BestFit, FirstFit
from ..algorithms.cdff import CDFF, StaticRowsCDFF
from ..algorithms.classify import ClassifyByDuration, RenTang
from ..algorithms.hybrid import HybridAlgorithm
from ..analysis.theory import (
    cdff_aligned_upper_bound,
    ff_nonclairvoyant_upper_bound,
    ha_upper_bound,
    lower_bound_sqrt_log,
    sqrt_log_mu,
)
from ..core.simulation import simulate
from ..core.validate import audit
from ..offline.dual_coloring import dual_coloring
from ..offline.optimal import opt_reference
from ..workloads.aligned import aligned_random, binary_input
from ..workloads.random_general import uniform_random
from .runner import ExperimentResult, register

__all__ = [
    "general_upper_experiment",
    "general_lower_experiment",
    "aligned_experiment",
    "nonclairvoyant_experiment",
]

DEFAULT_MUS = (4, 16, 64, 256, 1024)


def _ratio_upper(algorithm_factory: Callable[[], object], instance, *,
                 max_exact: int = 20) -> float:
    """Certified upper estimate of ALG/OPT_R (denominator = OPT lower bound)."""
    result = simulate(algorithm_factory(), instance)
    audit(result)
    opt = opt_reference(instance, max_exact=max_exact)
    return result.cost / opt.lower if opt.lower > 0 else math.inf


@register("T1.GEN.UB")
def general_upper_experiment(
    mus: Sequence[int] = DEFAULT_MUS,
    *,
    seeds: Sequence[int] = (0, 1, 2),
    n_items: int = 400,
) -> ExperimentResult:
    """Table 1, row 1 (upper): HA vs the baselines on general inputs.

    Three workload families:

    - ``uniform-random`` — everything is near-constant (benign inputs);
    - ``ff-trap`` — the Techniques section's Ω(μ) failure mode of
      First-Fit: HA and CBD must stay O(1)-ish while FF grows with μ;
    - ``cbd-trap`` — the Ω(log μ) failure mode of static
      classify-by-duration: HA and FF stay small while CBD grows.

    Expected shape: HA respects Theorem 3.2's constant everywhere and is
    the only algorithm small on *all three* families — the paper's reason
    for hybridising.
    """
    headers = [
        "workload", "mu", "HA", "FirstFit", "CBD(2)", "RenTang",
        "HA bound 16(2+8√logμ)",
    ]
    rows: List[List[object]] = []
    passed = True

    def record(workload: str, mu: int, instances) -> None:
        nonlocal passed
        per_alg = {k: [] for k in ("ha", "ff", "cbd", "rt")}
        for inst in instances:
            inst_mu = max(inst.mu, 1.0)
            per_alg["ha"].append(_ratio_upper(HybridAlgorithm, inst))
            per_alg["ff"].append(_ratio_upper(FirstFit, inst))
            per_alg["cbd"].append(_ratio_upper(ClassifyByDuration, inst))
            per_alg["rt"].append(
                _ratio_upper(lambda: RenTang(inst_mu), inst)
            )
        means = {k: statistics.mean(v) for k, v in per_alg.items()}
        bound = ha_upper_bound(mu)
        if means["ha"] > bound:
            passed = False
        rows.append(
            [workload, mu, means["ha"], means["ff"], means["cbd"],
             means["rt"], bound]
        )

    from ..workloads.adversarial import cbd_trap, ff_trap

    for mu in mus:
        record(
            "uniform-random",
            mu,
            (uniform_random(n_items, mu, seed=s) for s in seeds),
        )
        record("ff-trap", mu, [ff_trap(mu, pairs=min(100, mu))])
        record("cbd-trap", mu, [cbd_trap(mu)])
    notes = [
        "ratios are certified upper estimates: ALG / (OPT_R lower bound)",
        "PASS requires the measured HA ratio to respect Theorem 3.2's "
        "explicit constant at every μ and workload",
        "the traps reproduce the Techniques discussion: FF is Ω(μ) "
        "(ff-trap column), static classification is Ω(log μ) (cbd-trap), "
        "HA alone stays bounded on both",
    ]
    return ExperimentResult(
        "T1.GEN.UB",
        "Clairvoyant, general inputs — upper bound O(√log μ) (Theorem 3.2)",
        headers,
        rows,
        notes,
        passed,
    )


@register("T1.GEN.LB")
def general_lower_experiment(
    mus: Sequence[int] = (4, 16, 64, 256),
    *,
    algorithms: Sequence[tuple[str, Callable[[], object]]] = (
        ("FirstFit", FirstFit),
        ("BestFit", BestFit),
        ("CBD(2)", ClassifyByDuration),
        ("HA", HybridAlgorithm),
    ),
) -> ExperimentResult:
    """Table 1, row 1 (lower): the Theorem 4.3 adversary vs every algorithm.

    Expected shape: for every algorithm the certified ratio
    ``ON / OPT_R-upper`` stays above Theorem 4.3's floor ``√log μ / 8``,
    and the proof's certified cost floor ``ON ≥ μ·⌈√log μ⌉`` holds.
    """
    headers = ["mu", "algorithm", "ON", "OPT_R≤", "ratio≥", "floor √logμ/8",
               "ON floor μ·⌈√logμ⌉"]
    rows: List[List[object]] = []
    passed = True
    for mu in mus:
        for name, factory in algorithms:
            adv = SqrtLogAdversary(mu)
            out = adv.run(factory())
            opt = opt_reference(out.instance, max_exact=16)
            dc = dual_coloring(out.instance)
            dc.audit()
            opt_upper = min(opt.upper, dc.cost)
            ratio = out.online_cost / opt_upper
            floor = lower_bound_sqrt_log(mu)
            on_floor = mu * max(1, math.ceil(sqrt_log_mu(mu)))
            ok = ratio >= floor - 1e-9 and out.online_cost >= on_floor - 1e-9
            passed = passed and ok
            rows.append(
                [mu, name, out.online_cost, opt_upper, ratio, floor, on_floor]
            )
    notes = [
        "OPT_R≤ is the best certified upper bound (exact oracle ∩ DC stand-in)",
        "every ratio must exceed Theorem 4.3's √log μ / 8 floor",
    ]
    return ExperimentResult(
        "T1.GEN.LB",
        "Clairvoyant, general inputs — lower bound Ω(√log μ) (Theorem 4.3)",
        headers,
        rows,
        notes,
        passed,
    )


@register("T1.ALIGN.UB")
def aligned_experiment(
    mus: Sequence[int] = (4, 16, 64, 256, 1024),
    *,
    seeds: Sequence[int] = (0, 1),
    n_items: int = 300,
) -> ExperimentResult:
    """Table 1, row 2: CDFF on aligned inputs — O(log log μ) (Theorem 5.1).

    Runs CDFF, the static-row strawman, HA and FF on both σ_μ and random
    aligned inputs.  Expected shape: CDFF respects Theorem 5.1's constant,
    beats the static-row variant on σ_μ, and its growth is consistent with
    log log μ.
    """
    headers = [
        "mu", "input", "CDFF", "StaticRows", "HA", "FirstFit",
        "CDFF bound 8+16loglogμ",
    ]
    rows: List[List[object]] = []
    passed = True
    for mu in mus:
        # σ_μ: OPT_R is exactly μ (unit total load at all times)
        binary = binary_input(mu)
        r_cdff = simulate(CDFF(), binary)
        audit(r_cdff)
        r_static = simulate(StaticRowsCDFF(), binary)
        r_ha = simulate(HybridAlgorithm(), binary)
        r_ff = simulate(FirstFit(), binary)
        opt_bin = float(mu)
        bound = cdff_aligned_upper_bound(mu)
        vals = [
            r_cdff.cost / opt_bin,
            r_static.cost / opt_bin,
            r_ha.cost / opt_bin,
            r_ff.cost / opt_bin,
        ]
        if vals[0] > bound:
            passed = False
        rows.append([mu, "sigma_mu", *vals, bound])

        ratios = {k: [] for k in ("cdff", "static", "ha", "ff")}
        for seed in seeds:
            inst = aligned_random(mu, n_items, seed=seed)
            opt = opt_reference(inst, max_exact=18)
            for key, factory in (
                ("cdff", CDFF),
                ("static", StaticRowsCDFF),
                ("ha", HybridAlgorithm),
                ("ff", FirstFit),
            ):
                res = simulate(factory(), inst)
                audit(res)
                ratios[key].append(res.cost / opt.lower)
        m = {k: statistics.mean(v) for k, v in ratios.items()}
        if m["cdff"] > bound:
            passed = False
        rows.append(
            [mu, "aligned-rand", m["cdff"], m["static"], m["ha"], m["ff"], bound]
        )
    notes = [
        "σ_μ rows divide by the exact OPT_R(σ_μ) = μ; random rows divide by "
        "the OPT_R lower bound (certified upper estimates)",
        "PASS requires CDFF ≤ Theorem 5.1's explicit (8+16 log log μ) bound",
    ]
    return ExperimentResult(
        "T1.ALIGN.UB",
        "Clairvoyant, aligned inputs — upper bound O(log log μ) (Theorem 5.1)",
        headers,
        rows,
        notes,
        passed,
    )


@register("T1.NC")
def nonclairvoyant_experiment(
    gs: Sequence[int] = (4, 8, 16, 32),
    *,
    random_mus: Sequence[int] = (4, 16, 64),
    seeds: Sequence[int] = (0, 1),
    n_items: int = 300,
) -> ExperimentResult:
    """Table 1, row 3: non-clairvoyant FF is Θ(μ).

    (a) the adaptive adversary (g = μ) forces FirstFit and BestFit into a
    ratio growing linearly in μ (certified lower estimates);
    (b) on random inputs FF stays below the (μ+4) upper bound of [13].
    """
    headers = ["setting", "mu", "algorithm", "ratio", "reference"]
    rows: List[List[object]] = []
    passed = True
    prev_ff: float | None = None
    for g in gs:
        mu = float(g)
        for name, factory in (
            ("FirstFit", lambda: FirstFit(clairvoyant=False)),
            ("BestFit", lambda: BestFit(clairvoyant=False)),
        ):
            adv = NonClairvoyantAdversary(g, mu)
            out = adv.run(factory())
            opt = opt_reference(out.instance, max_exact=12)
            ratio = out.online_cost / opt.upper
            rows.append(
                ["adversary", int(mu), name, ratio, f"forced ≥ ~μ/2={mu/2:g}"]
            )
            if name == "FirstFit":
                if prev_ff is not None and ratio <= prev_ff:
                    passed = False  # must grow with μ
                prev_ff = ratio
    for mu in random_mus:
        vals = []
        for seed in seeds:
            inst = uniform_random(n_items, mu, seed=seed)
            res = simulate(FirstFit(clairvoyant=False), inst)
            audit(res)
            opt = opt_reference(inst, max_exact=18)
            vals.append(res.cost / opt.lower)
        mean_ratio = statistics.mean(vals)
        bound = ff_nonclairvoyant_upper_bound(mu)
        if mean_ratio > bound:
            passed = False
        rows.append(["random", mu, "FirstFit", mean_ratio, f"≤ μ+4={bound:g}"])
    notes = [
        "adversary rows: certified lower estimates (ON / OPT upper bound); "
        "ratio must increase with μ",
        "random rows: certified upper estimates; must respect μ+4 [13]",
    ]
    return ExperimentResult(
        "T1.NC",
        "Non-clairvoyant — Θ(μ): lower by adaptive adversary [7], upper μ+4 [13]",
        headers,
        rows,
        notes,
        passed,
    )
