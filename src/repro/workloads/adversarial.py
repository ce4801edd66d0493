"""Deterministic adversarial item sequences (Section 4).

:func:`sigma_star` is Definition 4.1's σ*_t: at time ``t``, one item of
each length ``1, 2, 4, …, 2^{log μ}``, released shortest-to-longest, each
with load ``1/√(log μ)``.  The Theorem 4.3 adversary
(:mod:`repro.adversary.sqrt_log`) releases *prefixes* of these sequences
adaptively; this module provides the raw material and some fixed
(non-adaptive) hard inputs used as stress workloads.
"""

from __future__ import annotations

import math
from typing import List

from ..core.instance import Instance

__all__ = [
    "sigma_star",
    "sigma_star_items",
    "full_adversary_schedule",
    "ff_trap",
    "cbd_trap",
]


def _check_mu(mu: int) -> int:
    if mu < 2 or (mu & (mu - 1)) != 0:
        raise ValueError(f"μ must be a power of two ≥ 2, got {mu}")
    return int(math.log2(mu))


def sigma_star_items(t: float, mu: int) -> List[tuple[float, float, float]]:
    """σ*_t as ``(arrival, departure, size)`` triples, shortest first."""
    n = _check_mu(mu)
    load = 1.0 / math.sqrt(n) if n > 0 else 1.0
    load = min(load, 1.0)
    return [(t, t + float(2**i), load) for i in range(n + 1)]


def sigma_star(t: float, mu: int) -> Instance:
    """Definition 4.1's σ*_t as an :class:`Instance`."""
    return Instance.from_tuples(sigma_star_items(t, mu))


def full_adversary_schedule(mu: int) -> Instance:
    """The *non-adaptive* worst case: the complete σ*_{t_i} at every
    ``t_i = i``, ``i = 0..μ−1``.

    The adaptive adversary releases prefixes; this fixed input releases
    everything and is a useful dense stress workload (it makes every online
    algorithm pay, just without the per-algorithm tailoring).
    """
    triples: list[tuple[float, float, float]] = []
    for i in range(mu):
        triples.extend(sigma_star_items(float(i), mu))
    triples.sort(key=lambda tpl: tpl[0])
    return Instance.from_tuples(triples)


def ff_trap(mu: int, *, pairs: int | None = None, eps: float = 0.01) -> Instance:
    """A deterministic instance on which First-Fit pays Ω(μ).

    At time 0, release ``pairs`` alternating (pin, block) couples: a *pin*
    of size ε living ``[0, μ]`` followed by a *block* of size ``1 − ε``
    living ``[0, 1]``.  Under First-Fit each pin lands in the freshest bin
    (all older ones are exactly full) and the following block fills that
    bin to exactly 1 — so every couple opens a new bin, and after the
    blocks depart, ``pairs`` bins stay open until μ, each pinned by one
    ε-item.  FF pays ≈ pairs·μ while OPT packs all pins into one bin:
    OPT ≈ μ + pairs.  With ``pairs = ⌊1/ε⌋`` the ratio is Θ(min(1/ε, μ)).

    This is the "First-Fit ... is known to be at least Ω(μ)-competitive"
    claim of the paper's Techniques section, made concrete.  HA (and
    classify-by-duration) escape it: the pins form a single duration class
    that crosses HA's threshold and gets consolidated into CD bins.
    """
    if mu < 2:
        raise ValueError("μ must be ≥ 2")
    k = pairs if pairs is not None else min(int(1 / eps), mu)
    if k * eps > 1.0 + 1e-9:
        raise ValueError("pairs·eps must be ≤ 1 so OPT can consolidate pins")
    triples: list[tuple[float, float, float]] = []
    for _ in range(k):
        triples.append((0.0, float(mu), eps))
        triples.append((0.0, 1.0, 1.0 - eps))
    return Instance.from_tuples(triples)


def cbd_trap(mu: int, *, rounds: int | None = None,
             size: float | None = None) -> Instance:
    """A deterministic instance on which classify-by-duration pays Ω(log μ).

    Every round ``t = 0, 1, …`` releases one *tiny* item of each length
    ``1, 2, …, μ``.  A class-``i`` item lives ``2^i`` rounds, so ``2^i``
    of them are concurrently active and the steady-state total load is
    ``≈ 2μ·size``; the default ``size = 1/(2μ)`` keeps it ≤ 1 so OPT uses
    a single bin (cost ≈ span ≈ 2μ) while per-class packing holds one
    near-empty bin per class open at all times (cost ≈ (log μ+1)·μ) —
    ratio Θ(log μ).  First-Fit and HA pay O(1) here; the trap isolates the
    cost of *static* duration classification.
    """
    n = _check_mu(mu)
    if size is None:
        size = 1.0 / (2.0 * mu)
    if (n + 1) * size > 1.0 + 1e-9:
        raise ValueError("size too large: one bin must hold a whole σ*_t")
    r = rounds if rounds is not None else mu
    triples: list[tuple[float, float, float]] = []
    for i in range(r):
        t = float(i)
        triples.extend((t, t + float(2**j), size) for j in range(n + 1))
    triples.sort(key=lambda tpl: tpl[0])
    return Instance.from_tuples(triples)
