"""GROWTH — growth-law discrimination across the μ sweep.

Table 1's content is ultimately about *rates*: √log μ vs log log μ vs
log μ vs μ.  This experiment measures each algorithm's ratio curve over a
μ sweep and asks which candidate law explains it best (least-squares over
``{const, log log μ, √log μ, log μ, μ}``).  The paper's predictions:

- CDFF on σ_μ              → log log μ   (Proposition 5.3)
- StaticRows on σ_μ        → log μ       (the strawman CDFF improves on)
- CBD on the cbd-trap      → log μ       (Techniques section)
- FF on the ff-trap        → μ           (Techniques section)
- non-clairvoyant FF vs
  the adaptive adversary   → μ           (Table 1, row 3)
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from ..adversary.nonclairvoyant import NonClairvoyantAdversary
from ..algorithms.anyfit import FirstFit
from ..algorithms.cdff import CDFF, StaticRowsCDFF
from ..algorithms.classify import ClassifyByDuration
from ..analysis.competitive import best_law
from ..analysis.theory import log2_safe, loglog_mu, sqrt_log_mu
from ..core.simulation import simulate
from ..offline.optimal import opt_reference
from ..workloads.adversarial import cbd_trap, ff_trap
from ..workloads.aligned import binary_input
from .runner import ExperimentResult, register

__all__ = ["growth_experiment"]

LAWS: list[tuple[str, Callable[[float], float]]] = [
    ("const", lambda mu: 1.0),
    ("loglog", loglog_mu),
    ("sqrtlog", sqrt_log_mu),
    ("log", log2_safe),
    ("linear", lambda mu: float(mu)),
]


def _cdff_sigma_ratio(mu: int) -> float:
    return simulate(CDFF(), binary_input(mu)).cost / mu


def _static_sigma_ratio(mu: int) -> float:
    return simulate(StaticRowsCDFF(), binary_input(mu)).cost / mu


def _cbd_trap_ratio(mu: int) -> float:
    inst = cbd_trap(mu)
    opt = opt_reference(inst, max_exact=8)
    return simulate(ClassifyByDuration(), inst).cost / opt.lower


def _ff_trap_ratio(mu: int) -> float:
    inst = ff_trap(mu, pairs=min(mu, 100))
    opt = opt_reference(inst, max_exact=8)
    return simulate(FirstFit(), inst).cost / opt.lower


def _nc_ff_ratio(mu: int) -> float:
    adv = NonClairvoyantAdversary(int(mu), float(mu))
    out = adv.run(FirstFit(clairvoyant=False))
    opt = opt_reference(out.instance, max_exact=8)
    return out.online_cost / opt.upper


@register("GROWTH")
def growth_experiment(
    mus: Sequence[int] = (4, 16, 64, 256, 1024),
    *,
    nc_mus: Sequence[int] = (4, 8, 16, 32),
) -> ExperimentResult:
    """Fit every measured ratio curve; the winning law must match theory."""
    curves: list[tuple[str, str, Sequence[int], Callable[[int], float]]] = [
        ("CDFF on σ_μ", "loglog", mus, _cdff_sigma_ratio),
        ("StaticRows on σ_μ", "log", mus, _static_sigma_ratio),
        ("CBD on cbd-trap", "log", mus, _cbd_trap_ratio),
        ("FF on ff-trap (μ≤100 pins)", "linear", tuple(m for m in mus if m <= 64),
         _ff_trap_ratio),
        ("non-clairvoyant FF vs adversary", "linear", nc_mus, _nc_ff_ratio),
    ]
    headers = ["curve", "predicted law", "fitted law", "fit a·g(μ)+b",
               "rms residual", "ok"]
    rows: List[List[object]] = []
    passed = True
    for name, predicted, sweep, fn in curves:
        ratios = [fn(m) for m in sweep]
        fit = best_law(list(map(float, sweep)), ratios, LAWS)
        ok = fit.law == predicted
        passed = passed and ok
        rows.append(
            [name, predicted, fit.law, f"{fit.a:.3f}·g+{fit.b:.3f}",
             fit.residual, ok]
        )
    notes = [
        "laws fitted by least squares over {const, log log μ, √log μ, "
        "log μ, μ}; 'ok' = the best-fitting law is the theoretically "
        "predicted one",
    ]
    return ExperimentResult(
        "GROWTH",
        "Growth-law discrimination: measured rates match Table 1's orders",
        headers,
        rows,
        notes,
        passed,
    )
