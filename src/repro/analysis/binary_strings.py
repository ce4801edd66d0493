"""Binary-string machinery behind CDFF's analysis (Section 5.1).

The paper's surprising observation: on the binary input σ_μ, CDFF's
open-bin count at time ``t⁺`` is exactly ``max_0(binary(t)) + 1`` — one
plus the longest run of zeros in the binary representation of ``t``
(Corollary 5.8).  Averaging over ``t`` reduces Proposition 5.3 to the
longest-zero-run statistics of uniform random bit strings: Lemma 5.9 shows
``E[max_0] ≤ 2 log n`` for ``n`` i.i.d. fair bits, and Corollary 5.10
transfers this to ``Σ_t max_0(binary(t)) ≤ 2 μ log log μ``.

All of those quantities are computed here, both exactly (full enumeration,
vectorised) and by sampling.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "binary",
    "max_zero_run",
    "lsb_zero_run",
    "max_zero_run_all",
    "expected_max_zero_run",
    "sum_max_zero_run",
    "sample_max_zero_run",
    "lemma59_bound",
]


def binary(t: int, width: int) -> str:
    """``binary(t)`` — the ``width``-bit binary representation of ``t``."""
    if t < 0 or (width < 1 and t > 0) or t >= 2**max(width, 0):
        raise ValueError(f"t={t} does not fit in {width} bits")
    return format(t, f"0{width}b")


def max_zero_run(bits: str | int, width: int | None = None) -> int:
    """``max_0(b)`` — longest run of consecutive zeros in a bit string.

    Accepts either a string of 0/1 characters or an integer with an
    explicit ``width``.
    """
    if isinstance(bits, int):
        if width is None:
            raise ValueError("width is required for integer input")
        bits = binary(bits, width)
    best = cur = 0
    for ch in bits:
        if ch == "0":
            cur += 1
            best = max(best, cur)
        elif ch == "1":
            cur = 0
        else:
            raise ValueError(f"not a bit string: {bits!r}")
    return best


def lsb_zero_run(t: int) -> int:
    """Length of the zero run starting at the least significant bit.

    Observation 3: on σ_μ, ``1 + lsb_zero_run(t)`` items arrive at time
    ``t > 0`` (``t = 0`` behaves like a run of all ``log μ`` zeros).
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        raise ValueError("t=0 has an unbounded trailing-zero run; handle separately")
    return (t & -t).bit_length() - 1


def max_zero_run_all(n: int) -> np.ndarray:
    """``max_0(b)`` for every ``b ∈ {0,1}^n``, as an array of length 2^n.

    Vectorised dynamic programme over bit positions: for each prefix we
    track the current trailing-zero run and the best run so far.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    size = 1 << n
    values = np.arange(size, dtype=np.uint64)
    best = np.zeros(size, dtype=np.int64)
    cur = np.zeros(size, dtype=np.int64)
    for pos in range(n):
        bit = (values >> np.uint64(pos)) & np.uint64(1)
        cur = np.where(bit == 0, cur + 1, 0)
        best = np.maximum(best, cur)
    return best


def expected_max_zero_run(n: int) -> float:
    """``E[max_0(b)]`` for ``n`` i.i.d. fair bits, exactly (enumeration)."""
    if n > 26:
        raise ValueError(f"exact enumeration over 2^{n} strings is too large")
    return float(max_zero_run_all(n).mean())


def sum_max_zero_run(mu: int) -> int:
    """``Σ_{t=0}^{μ-1} max_0(binary(t))`` with ``log μ``-bit representations.

    This is exactly the quantity Corollary 5.10 bounds by ``2 μ log log μ``.
    """
    if mu < 1 or (mu & (mu - 1)) != 0:
        raise ValueError(f"μ must be a positive power of two, got {mu}")
    n = mu.bit_length() - 1
    if n == 0:
        return 0
    return int(max_zero_run_all(n).sum())


def sample_max_zero_run(
    n: int, samples: int, *, seed: int = 0
) -> np.ndarray:
    """Monte-Carlo samples of ``max_0`` over ``n`` i.i.d. fair bits."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(samples, n), dtype=np.int64)
    best = np.zeros(samples, dtype=np.int64)
    cur = np.zeros(samples, dtype=np.int64)
    for pos in range(n):
        col = bits[:, pos]
        cur = np.where(col == 0, cur + 1, 0)
        best = np.maximum(best, cur)
    return best


def lemma59_bound(n: int) -> float:
    """Lemma 5.9's bound ``2 log₂ n`` on ``E[max_0]`` (``n ≥ 2``)."""
    if n < 2:
        return float(n)  # degenerate: E[max_0] ≤ n trivially
    return 2.0 * math.log2(n)
