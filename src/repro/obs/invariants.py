"""Online theory-invariant monitors over the kernel event stream.

The paper's quantitative claims are not just end-of-run assertions — most
of them can be checked *while a simulation executes*, from nothing but
the kernel's event sequence.  :class:`InvariantMonitor` is a
:class:`~repro.core.kernel.KernelListener` that re-derives, event by
event, its own copy of the accounting the kernel maintains and checks:

- **capacity** — a committed placement never pushes a bin's load above
  ``capacity`` (beyond the shared ``LOAD_EPS`` tolerance);
- **clock** — time never moves backwards;
- **on-count** — the open-bin count moves by exactly ±1 per
  open/close, never goes negative, and every closed bin was empty;
- **cost-identity** — the kernel's O(1) running-cost identity
  ``Σ_open (t − opened_at) = |open|·t − Σ_open opened_at`` agrees with
  the monitor's independently recomputed usage (checked at every bin
  close against the bound source, see :meth:`bind`);
- **usage** — the per-bin usage reported at close equals
  ``closed_at − opened_at``;
- **span-cost** (final) — ``span(σ) ≤ cost`` (DESIGN.md §2: a bin is
  open whenever an item is active);
- **demand-cost** (final) — ``d(σ)/capacity ≤ cost`` (utilisation
  never exceeds 1, so space–time demand lower-bounds usage time);
- **ratio-bound** (final, per-algorithm) — ``cost ≤ ρ(μ)·(d(σ) +
  span(σ))`` for the algorithms Table 1 proves a ratio ρ(μ) for.  The
  check is sound because with repacking ``OPT_R = ∫⌈L(t)⌉dt ≤ d + span``,
  so ``ALG ≤ ρ·OPT_R ≤ ρ·(d + span)``.

A violation never crashes the run by default: it is appended to
:attr:`InvariantMonitor.violations` and — when a
:class:`~repro.obs.trace.Tracer` is attached — emitted as a structured
``invariant.violation`` trace event, so the ledger and the ``obs
regress`` sentinel can gate on it.  Pass ``strict=True`` to raise
:class:`InvariantViolationError` at the first violation instead (useful
in tests and adversarial searches).

The monitor is pure observation (listeners receive events, they do not
vote) and O(1) per event; its bookkeeping is a handful of floats, so it
is safe to leave attached on multi-million-event replays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..analysis.theory import (
    cdff_aligned_upper_bound,
    ff_nonclairvoyant_upper_bound,
    ha_upper_bound,
)
from ..core.bins import LOAD_EPS, Bin
from ..core.errors import ReproError
from ..core.item import Item
from ..core.kernel import KernelListener

__all__ = [
    "InvariantMonitor",
    "InvariantViolationError",
    "Violation",
    "RATIO_BOUNDS",
    "ratio_bound_for",
]


class InvariantViolationError(ReproError):
    """A theory invariant failed while ``strict=True`` was set."""


@dataclass(frozen=True, slots=True)
class Violation:
    """One observed invariant failure (structured, JSON-friendly)."""

    invariant: str  #: e.g. ``"capacity"``, ``"cost-identity"``
    time: float  #: simulation clock when detected (-inf if pre-stream)
    message: str
    observed: Optional[float] = None
    expected: Optional[float] = None
    context: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {
            "invariant": self.invariant,
            "time": self.time if math.isfinite(self.time) else None,
            "message": self.message,
            "observed": self.observed,
            "expected": self.expected,
        }
        if self.context:
            d["context"] = self.context
        return d


#: algorithm name -> μ ↦ provable competitive-ratio bound (Table 1).
#: Only algorithms the paper (or its cited work) proves an upper bound
#: for appear here; anything else skips the ratio-bound check.
RATIO_BOUNDS: Dict[str, Callable[[float], float]] = {
    "HybridAlgorithm": ha_upper_bound,
    "HA": ha_upper_bound,
    "CDFF": cdff_aligned_upper_bound,
    "StaticRowsCDFF": cdff_aligned_upper_bound,
    "FirstFit": ff_nonclairvoyant_upper_bound,
}


def ratio_bound_for(algorithm) -> Optional[Callable[[float], float]]:
    """The Table-1 ratio bound for an algorithm (object or name), if any."""
    name = algorithm if isinstance(algorithm, str) else getattr(
        algorithm, "name", type(algorithm).__name__
    )
    return RATIO_BOUNDS.get(name)


class InvariantMonitor(KernelListener):
    """Watch a live kernel event stream and check theory bounds online.

    Parameters
    ----------
    capacity:
        Bin capacity of the monitored run (1.0 in the paper).
    algorithm:
        Optional algorithm object or name; selects the Table-1 ratio
        bound via :data:`RATIO_BOUNDS` unless ``bound`` is given.
    bound:
        Explicit μ ↦ ratio-bound callable; overrides ``algorithm``.
    strict:
        Raise :class:`InvariantViolationError` at the first violation
        instead of recording it.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; every violation is
        additionally emitted as a structured ``invariant.violation``
        trace event.
    rel_tol:
        Relative tolerance for the floating-point comparisons
        (cost identity, span/demand/ratio bounds).

    Use :meth:`bind` to point the monitor at the kernel (or engine)
    whose O(1) ``cost_so_far`` should be cross-checked; the kernel does
    this automatically for any attached listener that defines ``bind``.
    Call :meth:`finalize` once the stream is drained to run the
    end-of-run checks and collect :meth:`verdicts`.
    """

    def __init__(
        self,
        *,
        capacity: float = 1.0,
        algorithm=None,
        bound: Optional[Callable[[float], float]] = None,
        strict: bool = False,
        tracer=None,
        rel_tol: float = 1e-6,
    ) -> None:
        self.capacity = capacity
        self.bound = bound if bound is not None else (
            ratio_bound_for(algorithm) if algorithm is not None else None
        )
        self.strict = strict
        self.tracer = tracer
        self.rel_tol = rel_tol
        self.violations: List[Violation] = []
        self.checks = 0  #: individual invariant evaluations so far
        self._source = None  # object exposing cost_so_far (kernel/engine)
        # independently re-derived accounting
        self._time = -math.inf
        self._opened_at: Dict[int, float] = {}
        self._active_items: Dict[int, int] = {}  # bin uid -> live items
        self._opened = 0
        self._closed = 0
        self._arrivals = 0
        self._departures = 0
        self._closed_usage = 0.0
        self._sum_opened_at = 0.0
        self._span = 0.0
        self._demand = 0.0
        self._min_len = math.inf
        self._max_len = 0.0
        self._finalized = False
        self._partial = False  # attached mid-stream: suffix-only view

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def bind(self, source) -> None:
        """Attach the run whose O(1) ``cost_so_far`` is cross-checked.

        ``source`` is anything exposing ``cost_so_far`` (a
        :class:`~repro.core.kernel.PlacementKernel` or an engine);
        the kernel calls this automatically when the monitor is attached
        as a listener.

        If the source already carries state — a mid-stream attach, e.g.
        after a checkpoint resume — the monitor adopts the currently
        open bins and the accrued cost so the per-event checks (on-count,
        capacity, cost-identity) stay sound, and marks itself *partial*:
        the whole-run bound checks (span-cost, demand-cost, ratio-bound)
        are skipped at :meth:`finalize`, because the monitor never saw
        the prefix those bounds quantify over.
        """
        self._source = source
        open_bins = tuple(getattr(source, "open_bins", ()) or ())
        cost = getattr(source, "cost_so_far", 0.0) or 0.0
        if not open_bins and cost <= 0.0:
            return  # pristine source: a normal from-the-start attach
        self._partial = True
        t = getattr(source, "time", -math.inf)
        if math.isfinite(t):
            self._time = max(self._time, t)
        for bin_ in open_bins:
            if bin_.uid in self._opened_at:
                continue
            self._opened_at[bin_.uid] = bin_.opened_at
            self._active_items[bin_.uid] = bin_.n_items
            self._sum_opened_at += bin_.opened_at
        # seed closed usage so recomputed_cost() meets the kernel where
        # it stands; from here on both sides evolve in lockstep
        open_n = len(self._opened_at)
        now = self._time if math.isfinite(self._time) else 0.0
        self._closed_usage = cost - (open_n * now - self._sum_opened_at)

    # ------------------------------------------------------------------ #
    # Derived quantities (exposed for tests and the ledger)
    # ------------------------------------------------------------------ #
    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def span(self) -> float:
        """Online span(σ): measure of time with at least one open bin."""
        return self._span

    @property
    def demand(self) -> float:
        """Online d(σ): Σ size·length over *departed* items so far."""
        return self._demand

    @property
    def mu(self) -> Optional[float]:
        """max/min interval-length ratio over departed items, if any."""
        if not self._max_len or not math.isfinite(self._min_len):
            return None
        return self._max_len / max(self._min_len, 1e-300)

    def recomputed_cost(self) -> float:
        """Total usage re-derived from events (closed + open up to now)."""
        open_n = len(self._opened_at)
        if not open_n:
            return self._closed_usage
        t = self._time if math.isfinite(self._time) else 0.0
        return self._closed_usage + open_n * t - self._sum_opened_at

    # ------------------------------------------------------------------ #
    # Violation plumbing
    # ------------------------------------------------------------------ #
    def _violation(
        self,
        invariant: str,
        message: str,
        *,
        observed: Optional[float] = None,
        expected: Optional[float] = None,
        **context,
    ) -> None:
        v = Violation(
            invariant=invariant,
            time=self._time,
            message=message,
            observed=observed,
            expected=expected,
            context=context,
        )
        self.violations.append(v)
        if self.tracer is not None:
            self.tracer.event(
                "invariant.violation",
                invariant=invariant,
                message=message,
                observed=observed,
                expected=expected,
                **context,
            )
        if self.strict:
            raise InvariantViolationError(
                f"invariant {invariant!r} violated at t={self._time:g}: "
                f"{message}"
            )

    def _close_enough(self, a: float, b: float) -> bool:
        return abs(a - b) <= self.rel_tol * max(1.0, abs(a), abs(b))

    # ------------------------------------------------------------------ #
    # KernelListener callbacks
    # ------------------------------------------------------------------ #
    def on_advance(self, t: float) -> None:
        self.checks += 1
        if math.isfinite(self._time):
            if t < self._time:
                self._violation(
                    "clock",
                    f"clock moved backwards: {self._time:g} -> {t:g}",
                    observed=t,
                    expected=self._time,
                )
                return
            if self._opened_at:
                self._span += t - self._time
        self._time = t

    def on_open(self, bin_: Bin) -> None:
        self.checks += 1
        if bin_.uid in self._opened_at:
            self._violation(
                "on-count",
                f"bin {bin_.uid} opened twice",
                context={"bin": bin_.uid},
            )
        self._opened += 1
        self._opened_at[bin_.uid] = bin_.opened_at
        self._sum_opened_at += bin_.opened_at
        self._active_items.setdefault(bin_.uid, 0)

    def on_arrival(self, item: Item, bin_: Bin, opened: bool) -> None:
        self._arrivals += 1
        self.checks += 1
        if bin_.load > self.capacity + LOAD_EPS:
            self._violation(
                "capacity",
                f"bin {bin_.uid} load {bin_.load:.12g} exceeds capacity "
                f"{self.capacity:g}",
                observed=bin_.load,
                expected=self.capacity,
                bin=bin_.uid,
                item=item.uid,
            )
        if not opened and bin_.uid not in self._opened_at:
            self._violation(
                "on-count",
                f"placement into bin {bin_.uid} which never opened",
                bin=bin_.uid,
            )
        self._active_items[bin_.uid] = self._active_items.get(bin_.uid, 0) + 1

    def on_departure(
        self,
        uid: int,
        removed: Item,
        bin_: Bin,
        t: float,
        closed: bool,
    ) -> None:
        self._departures += 1
        length = t - removed.arrival
        self._demand += removed.size * length
        if length > 0:
            if length < self._min_len:
                self._min_len = length
            if length > self._max_len:
                self._max_len = length
        if closed:
            # the kernel fires on_close *before* this callback; the
            # closing item's count was consumed there already
            return
        n = self._active_items.get(bin_.uid, 0) - 1
        if n <= 0:
            self.checks += 1
            self._violation(
                "on-count",
                f"departure left bin {bin_.uid} with {n} item(s) but the "
                "kernel did not close it",
                observed=float(n),
                bin=bin_.uid,
                item=uid,
            )
            n = max(n, 0)
        self._active_items[bin_.uid] = n

    def on_close(
        self, bin_: Bin, t: float, usage: float, peak: float, n_items: int
    ) -> None:
        self.checks += 1
        opened_at = self._opened_at.pop(bin_.uid, None)
        if opened_at is None:
            self._violation(
                "on-count",
                f"bin {bin_.uid} closed but was never opened",
                bin=bin_.uid,
            )
            return
        self._closed += 1
        # a bin closes the instant its last item departs, and on_close
        # precedes that item's on_departure — exactly one live item here
        live = self._active_items.pop(bin_.uid, 0)
        if live != 1:
            self._violation(
                "on-count",
                f"bin {bin_.uid} closed with {live} live item(s); a bin "
                "must close exactly when its last item departs",
                observed=float(live),
                expected=1.0,
                bin=bin_.uid,
            )
        expected_usage = t - opened_at
        if not self._close_enough(usage, expected_usage):
            self._violation(
                "usage",
                f"bin {bin_.uid} reported usage {usage:g}, but "
                f"closed_at - opened_at = {expected_usage:g}",
                observed=usage,
                expected=expected_usage,
                bin=bin_.uid,
            )
        self._closed_usage += expected_usage
        self._sum_opened_at -= opened_at
        if not self._opened_at:
            self._sum_opened_at = 0.0  # mirror the kernel's idle reset
        if self._source is not None:
            self.checks += 1
            kernel_cost = self._source.cost_so_far
            mine = self.recomputed_cost()
            if not self._close_enough(kernel_cost, mine):
                self._violation(
                    "cost-identity",
                    f"kernel O(1) cost {kernel_cost:.12g} disagrees with "
                    f"recomputed usage {mine:.12g}",
                    observed=kernel_cost,
                    expected=mine,
                )

    # ------------------------------------------------------------------ #
    # End-of-run checks and export
    # ------------------------------------------------------------------ #
    def finalize(self) -> List[Violation]:
        """Run the end-of-run bound checks; returns all violations.

        Idempotent: the final checks run once, further calls only return
        the accumulated list.
        """
        if self._finalized:
            return self.violations
        self._finalized = True
        if self._opened_at:
            self.checks += 1
            self._violation(
                "on-count",
                f"{len(self._opened_at)} bin(s) still open at finalize",
                observed=float(len(self._opened_at)),
                expected=0.0,
            )
        if self._partial:
            # a suffix-only monitor has no whole-run span/demand/μ to
            # hold the global bounds against
            return self.violations
        cost = self.recomputed_cost()
        tol = self.rel_tol * max(1.0, cost)
        self.checks += 1
        if self._span > cost + tol:
            self._violation(
                "span-cost",
                f"span(σ) = {self._span:g} exceeds cost = {cost:g}",
                observed=self._span,
                expected=cost,
            )
        self.checks += 1
        demand_bound = self._demand / self.capacity
        if demand_bound > cost + tol:
            self._violation(
                "demand-cost",
                f"d(σ)/capacity = {demand_bound:g} exceeds cost = {cost:g}",
                observed=demand_bound,
                expected=cost,
            )
        mu = self.mu
        if self.bound is not None and mu is not None and cost > 0:
            self.checks += 1
            # sound upper bound: OPT_R = ∫⌈L(t)⌉dt ≤ d/capacity + span
            opt_upper = demand_bound + self._span
            limit = self.bound(mu) * opt_upper
            if cost > limit + tol:
                self._violation(
                    "ratio-bound",
                    f"cost = {cost:g} exceeds ρ(μ={mu:g})·(d+span) = "
                    f"{limit:g}",
                    observed=cost,
                    expected=limit,
                )
        return self.violations

    def verdicts(self) -> dict:
        """A JSON-friendly summary for the run ledger."""
        return {
            "ok": self.ok,
            "checks": self.checks,
            "arrivals": self._arrivals,
            "departures": self._departures,
            "bins_opened": self._opened,
            "bins_closed": self._closed,
            "span": self._span,
            "demand": self._demand,
            "mu": self.mu,
            "recomputed_cost": self.recomputed_cost(),
            "finalized": self._finalized,
            "partial": self._partial,
            "violations": [v.to_dict() for v in self.violations],
        }

    # ------------------------------------------------------------------ #
    # Test-only corruption hook
    # ------------------------------------------------------------------ #
    def _corrupt(self, kind: str = "cost", amount: float = 1.0) -> None:
        """Deliberately skew the monitor's internal accounting (tests/CI).

        Exists so the violation path itself is exercisable end to end: a
        corrupted run *must* produce a structured violation and trip the
        ``obs regress`` gate.  Never call this outside tests or the CI
        corruption demo.
        """
        if kind == "cost":
            self._closed_usage += amount
        elif kind == "span":
            self._span += amount
        elif kind == "demand":
            self._demand += amount
        else:
            raise ValueError(f"unknown corruption kind {kind!r}")

    def __repr__(self) -> str:
        state = "strict" if self.strict else "lenient"
        return (
            f"InvariantMonitor({state}, {self.checks} checks, "
            f"{len(self.violations)} violations)"
        )
