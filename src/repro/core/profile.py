"""Piecewise-constant load profiles and their integrals (vectorised).

The load profile ``S_t(σ)`` — the total size of active items as a function
of time — drives every offline bound in the paper:

- the *time–space* bound ``OPT_R ≥ d(σ) = ∫ S_t dt``,
- the *span* bound ``OPT_R ≥ span(σ) = |{t : S_t > 0}|``,
- the ceil-load lower bound ``OPT_R ≥ ∫ ⌈S_t⌉ dt``, and
- Lemma 3.1's upper bound ``OPT_R ≤ ∫ 2⌈S_t⌉ dt ≤ 2·d(σ) + 2·span(σ)``.

Profiles are computed with a single NumPy event sweep: ``O(n log n)`` for
``n`` items, no per-time-step Python loop (per the HPC optimisation guide:
vectorise the hot path, keep the API simple).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInstanceError
from .instance import Instance
from .item import Item

__all__ = [
    "LoadProfile",
    "load_profile",
    "open_count_profile",
    "step_function_integral",
]

_EPS = 1e-12


@dataclass(frozen=True)
class LoadProfile:
    """A right-continuous step function of time.

    ``values[k]`` holds on ``[breakpoints[k], breakpoints[k+1])``; the
    function is 0 before ``breakpoints[0]`` and after ``breakpoints[-1]``.
    """

    breakpoints: np.ndarray  #: shape (m+1,), strictly increasing
    values: np.ndarray  #: shape (m,)

    def __post_init__(self) -> None:
        if self.breakpoints.ndim != 1 or self.values.ndim != 1:
            raise InvalidInstanceError("profile arrays must be 1-D")
        if len(self.breakpoints) != len(self.values) + 1:
            raise InvalidInstanceError(
                "breakpoints must have exactly one more entry than values"
            )
        if len(self.values) and np.any(np.diff(self.breakpoints) <= 0):
            raise InvalidInstanceError("breakpoints must be strictly increasing")

    # ------------------------------------------------------------------ #
    @property
    def durations(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    def __call__(self, t: float) -> float:
        """Value at time ``t`` (right-continuous)."""
        if len(self.values) == 0:
            return 0.0
        if t < self.breakpoints[0] or t >= self.breakpoints[-1]:
            return 0.0
        k = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        return float(self.values[k])

    def integral(self) -> float:
        """``∫ S_t dt`` over the whole timeline."""
        if len(self.values) == 0:
            return 0.0
        return float(np.dot(self.values, self.durations))

    def ceil_integral(self) -> float:
        """``∫ ⌈S_t⌉ dt`` — the paper's main OPT_R lower bound.

        Tiny floating residues (≤ 1e-9) above an integer are not rounded up,
        so instances built from e.g. ten items of size 0.1 behave exactly.
        """
        if len(self.values) == 0:
            return 0.0
        vals = np.ceil(self.values - 1e-9)
        return float(np.dot(np.maximum(vals, 0.0), self.durations))

    def support_measure(self) -> float:
        """``span = |{t : S_t > 0}|``."""
        if len(self.values) == 0:
            return 0.0
        mask = self.values > _EPS
        return float(np.dot(mask.astype(float), self.durations))

    def max(self) -> float:
        if len(self.values) == 0:
            return 0.0
        return float(self.values.max())

    def map(self, fn) -> "LoadProfile":
        """A new profile with ``fn`` applied elementwise to the values."""
        return LoadProfile(self.breakpoints.copy(), np.asarray(fn(self.values)))

    def restricted(self, lo: float, hi: float) -> "LoadProfile":
        """The profile restricted to ``[lo, hi)``."""
        if hi <= lo:
            return LoadProfile(np.asarray([0.0]), np.zeros(0))
        if len(self.values) == 0:
            return LoadProfile(np.asarray([lo, hi]), np.zeros(1))
        bps = np.clip(self.breakpoints, lo, hi)
        keep = np.nonzero(np.diff(bps) > 0)[0]
        if len(keep) == 0:
            return LoadProfile(np.asarray([lo, hi]), np.zeros(1))
        new_bps = np.concatenate([bps[keep], [bps[keep[-1] + 1]]])
        return LoadProfile(new_bps, self.values[keep])


def load_profile(items: Iterable[Item] | Instance) -> LoadProfile:
    """Build the load profile ``S_t`` of a set of items in one NumPy sweep."""
    seq: Sequence[Item] = list(items)
    if not seq:
        return LoadProfile(np.asarray([0.0]), np.zeros(0))
    arr = np.asarray([it.arrival for it in seq])
    dep = np.asarray([it.departure for it in seq], dtype=float)
    if np.any(~np.isfinite(dep)):
        raise InvalidInstanceError("load profile requires known departures")
    size = np.asarray([it.size for it in seq])
    times = np.concatenate([arr, dep])
    deltas = np.concatenate([size, -size])
    order = np.argsort(times, kind="stable")
    times = times[order]
    deltas = deltas[order]
    # collapse simultaneous events so departures and arrivals at the same
    # instant net out (half-open interval semantics)
    bps, start_idx = np.unique(times, return_index=True)
    sums = np.add.reduceat(deltas, start_idx)
    values = np.cumsum(sums)[:-1]
    # kill floating noise around zero so support_measure is exact
    values[np.abs(values) < _EPS] = 0.0
    return LoadProfile(bps, values)


def open_count_profile(events) -> LoadProfile:
    """``ON_t`` from ``(time, ±1)`` bin open/close deltas, in any order.

    ``events`` is a :class:`~repro.core.kernel.PlacementKernel`'s
    ``open_count_events`` log (or an ``(n, 2)`` array of the same pairs);
    ``None`` — a kernel built without ``record_events`` — is an error.
    """
    if events is None:
        raise ValueError(
            "no open-count events were recorded: build the kernel with "
            "record_events=True (Engine: record_profile=True)"
        )
    ev = np.asarray(events, dtype=float).reshape(-1, 2)
    if not len(ev):
        return LoadProfile(np.asarray([0.0]), np.zeros(0))
    order = np.argsort(ev[:, 0], kind="stable")
    times, deltas = ev[order, 0], ev[order, 1]
    bps, start_idx = np.unique(times, return_index=True)
    sums = np.add.reduceat(deltas, start_idx)
    values = np.round(np.cumsum(sums)[:-1])  # counts are integral
    return LoadProfile(bps, values)


def step_function_integral(
    breakpoints: Sequence[float], values: Sequence[float]
) -> float:
    """Convenience: integral of an arbitrary step function."""
    return LoadProfile(np.asarray(breakpoints, dtype=float),
                       np.asarray(values, dtype=float)).integral()
