"""Aligned and binary inputs (Definitions 2.1 and 5.2).

- :func:`binary_input` — the paper's σ_μ: for every class
  ``i ∈ {0, …, log μ}``, items of duration ``2^i`` arrive at times
  ``0, 2^i, 2·2^i, …, μ − 2^i``, all with load ``1/log μ``.  This is the
  structured worst case CDFF's analysis is built on (Figures 2–3).
- :func:`aligned_random` — random inputs satisfying Definition 2.1: a
  class-``i`` item may only arrive at multiples of ``2^i``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..core.instance import Instance

__all__ = ["binary_input", "aligned_random"]


def binary_input(mu: int, *, size: Optional[float] = None) -> Instance:
    """The binary input σ_μ of Definition 5.2 (μ a power of two, ≥ 2).

    ``size`` defaults to ``1/(log₂ μ + 1)``.  The paper states loads of
    ``1/log μ`` and "at any moment there are log μ active items", but
    Definition 5.2 spans classes ``i ∈ {0, …, log μ}`` — that is
    ``log μ + 1`` simultaneously active items (Figure 2 shows four rows for
    σ_8), so a load of ``1/log μ`` would overflow bin ``b₀¹`` at
    ``t = μ − 1`` where Lemma 5.5 maps *all* items to it.  The off-by-one
    correction ``1/(log μ + 1)`` restores the invariant the proof of
    Lemma 5.5 uses ("no bin of type ``b_i¹`` will ever be full") and makes
    Corollary 5.8 an exact identity — see EXPERIMENTS.md (COR5.8).
    """
    if mu < 2 or (mu & (mu - 1)) != 0:
        raise ValueError(f"μ must be a power of two ≥ 2, got {mu}")
    n = int(math.log2(mu))
    s = size if size is not None else 1.0 / (n + 1)
    items = []
    for i in range(n + 1):
        length = 2**i
        for c in range(mu // length):
            items.append((float(c * length), float(c * length + length), s))
    items.sort(key=lambda tpl: tpl[0])
    return Instance.from_tuples(items)


def aligned_random(
    mu: int,
    n_items: int,
    *,
    seed: int = 0,
    horizon: Optional[int] = None,
    size_low: float = 0.05,
    size_high: float = 1.0,
    class_weights: Optional[np.ndarray] = None,
) -> Instance:
    """A random aligned input with classes ``0..log₂ μ``.

    Each item draws a class ``i`` (uniform by default), an arrival that is a
    multiple of ``2^i`` inside ``[0, horizon − 2^i]``, a length of exactly
    ``2^i`` (so the departure stays before the next class boundary, which
    Definition 2.1 forces anyway for arrivals strictly inside a window),
    and a uniform size.  An anchor item of length μ at time 0 is always
    included so the instance's μ equals the requested value and the
    Section 5 partition starts cleanly.
    """
    if mu < 2 or (mu & (mu - 1)) != 0:
        raise ValueError(f"μ must be a power of two ≥ 2, got {mu}")
    if n_items < 1:
        raise ValueError("need at least one item")
    n = int(math.log2(mu))
    horizon = horizon if horizon is not None else mu
    if horizon < mu:
        raise ValueError("horizon must be at least μ")
    rng = np.random.default_rng(seed)
    weights = (
        np.full(n + 1, 1.0 / (n + 1))
        if class_weights is None
        else np.asarray(class_weights, dtype=float) / np.sum(class_weights)
    )
    if len(weights) != n + 1:
        raise ValueError(f"class_weights must have {n + 1} entries")

    triples: list[tuple[float, float, float]] = [
        (0.0, float(mu), float(rng.uniform(size_low, size_high)))
    ]
    classes = rng.choice(n + 1, size=n_items - 1, p=weights)
    for i in classes:
        width = 2**int(i)
        slots = horizon // width
        c = int(rng.integers(0, slots))
        arrival = float(c * width)
        # any length in (2^{i-1}, 2^i] keeps the item inside its window;
        # sample one so lengths are not all powers of two
        length = float(rng.uniform(max(width / 2, 0.5001), width)) if width > 1 \
            else float(rng.uniform(0.5001, 1.0))
        size = float(rng.uniform(size_low, size_high))
        triples.append((arrival, arrival + length, size))
    triples.sort(key=lambda tpl: tpl[0])
    return Instance.from_tuples(triples)
