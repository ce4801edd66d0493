"""The one differential oracle: any run's decisions against ``simulate()``.

The engine sweep below, the service sweep (:mod:`repro.serve.parity`),
the chaos oracle (:mod:`repro.testkit.oracle`) and ``repro-dbp replay
--verify`` all call :func:`check_against_batch` with an
:class:`Outcome` — each item's bin uid and freshly-opened flag, in uid
order, plus the totals the caller has — and get one mismatch string per
disagreement with batch :func:`~repro.core.simulation.simulate`.

Batch, engine and service share one kernel, so those comparisons only
show that feed paths agree.  Besides the engine legs ``boxed``
(:meth:`Engine.feed`), ``columnar`` (:meth:`Engine.feed_store`) and
``chunked`` (store slices, as the trace readers deliver them),
:func:`check_parity` runs a ``reference`` leg — batch against the
kernel-independent :mod:`repro.testkit.reference` — which fails when
the kernel strays from the paper's model.  CI runs the registry ×
generator sweep: ``python -m repro.engine.parity``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..core.instance import Instance
from ..core.kernel import KernelListener
from ..core.simulation import simulate
from .loop import Engine
from .metrics import EngineMetrics

__all__ = [
    "LEGS", "Outcome", "ParityReport", "check_against_batch",
    "check_parity", "parity_suite", "default_parity_cells", "print_reports",
]

#: the legs of every engine parity check, in order
LEGS = ("boxed", "columnar", "chunked", "reference")
#: rows per ``ItemStore.slice`` window on the chunked leg
CHUNK_ROWS = 17
#: the totals an :class:`Outcome` may carry, in report order
TOTALS = (
    "cost", "max_open", "bins_opened", "peak_load", "util_area", "bins_closed",
)


@dataclass(frozen=True)
class Outcome:
    """What one run decided, one entry per item in uid order; a total
    left ``None`` is one the caller does not have and is not compared
    (``records``: per-bin :class:`~repro.core.bins.BinRecord` tuples;
    ``metrics``: a packing-metrics registry snapshot of the whole run,
    compared exactly with the batch run's)."""

    bins: Sequence[Optional[int]]
    opened: Sequence[Optional[bool]]
    cost: Optional[float] = None
    max_open: Optional[int] = None
    bins_opened: Optional[int] = None
    peak_load: Optional[float] = None
    util_area: Optional[float] = None
    bins_closed: Optional[int] = None
    records: Optional[tuple] = None
    metrics: Optional[dict] = None

    @classmethod
    def of_result(cls, result, **totals) -> "Outcome":
        """A recorded run's decisions: an item opened its bin iff it is
        the bin's first member."""
        first = {rec.uid: rec.item_uids[0] for rec in result.bins}
        bins = [result.assignment.get(it.uid) for it in result.items]
        opened = [first.get(b) == it.uid for b, it in zip(bins, result.items)]
        return cls(bins, opened, **totals)

    @classmethod
    def of_run(cls, result, summary) -> "Outcome":
        """A recorded engine run: decisions, bin records, every total."""
        totals = {name: getattr(summary, name) for name in TOTALS}
        return cls.of_result(result, records=result.bins, **totals)


class _Bound(KernelListener):
    """Keeps the kernel it is attached to, for its run totals."""

    def bind(self, kernel) -> None:
        self.kernel = kernel


def check_against_batch(
    outcome: Outcome,
    instance: Instance,
    factory: Callable[[], object],
    capacity: float = 1.0,
    *,
    listener=None,
) -> Tuple[str, ...]:
    """Mismatches between ``outcome`` and ``simulate()`` of a fresh
    ``factory()`` on ``instance``; ``listener`` (e.g. an invariant
    monitor) observes the batch run."""
    bound = _Bound()
    metered = None if outcome.metrics is None else EngineMetrics()
    batch = simulate(
        factory(), instance, capacity=capacity,
        listener=[m for m in (bound, listener, metered) if m is not None],
    )
    kernel = bound.kernel
    want = Outcome.of_result(
        batch, cost=batch.cost, max_open=batch.max_open,
        bins_opened=len(batch.bins), peak_load=kernel.peak_load,
        util_area=kernel.util_area, bins_closed=kernel.bins_closed,
        records=batch.bins,
    )
    got = outcome
    if len(got.bins) != len(want.bins):
        return (f"{len(got.bins)} decisions vs {len(want.bins)} items",)
    problems = []
    bad = [i for i, (b, w) in enumerate(zip(got.bins, want.bins)) if b != w]
    if bad:
        problems.append(
            f"{len(bad)} bin decisions differ (first: item {bad[0]} got bin "
            f"{got.bins[bad[0]]}, batch {want.bins[bad[0]]})"
        )
    bad = [i for i, (o, w) in enumerate(zip(got.opened, want.opened))
           if o is None or bool(o) != w]
    if bad:
        problems.append(f"{len(bad)} opened flags differ (first: item {bad[0]})")
    for name in TOTALS:
        value, expected = getattr(got, name), getattr(want, name)
        if value is not None and value != expected:
            problems.append(f"{name} {value!r} vs batch {expected!r}")
    if got.records is not None and tuple(got.records) != want.records:
        problems.append("per-bin records differ")
    if metered is not None:
        problems += _metrics_problems(got.metrics, metered.snapshot())
    return tuple(problems)


def _metrics_problems(got: dict, want: dict) -> List[str]:
    """One line per registry counter or histogram that differs."""
    problems = []
    for section in ("counters", "histograms"):
        mine, theirs = got.get(section, {}), want[section]
        for name in sorted(set(mine) | set(theirs)):
            if mine.get(name) != theirs.get(name):
                problems.append(
                    f"metrics {section}.{name} {mine.get(name)!r} vs batch "
                    f"{theirs.get(name)!r}"
                )
    return problems


@dataclass(frozen=True)
class ParityReport:
    """One run of a layer (``engine`` or ``serve``) against batch."""

    layer: str
    algorithm: str
    workload: str
    n_items: int
    problems: Tuple[str, ...]  #: engine ones start with their leg

    @property
    def ok(self) -> bool:
        return not self.problems

    def __str__(self) -> str:
        line = (
            f"[{'ok' if self.ok else 'MISMATCH'}] {self.layer} "
            f"{self.algorithm:20s} on {self.workload:24s} n={self.n_items:5d}"
        )
        return line if self.ok else f"{line}  " + "; ".join(self.problems)


def check_parity(
    algorithm_factory: Callable[[], object],
    instance: Instance,
    *,
    capacity: float = 1.0,
    workload: str = "instance",
) -> ParityReport:
    """Check every leg of :data:`LEGS` against batch, each on a fresh
    algorithm; a leg that raises is a mismatch too."""
    problems: List[str] = []
    for leg in LEGS:
        try:
            found = check_against_batch(
                _leg_outcome(leg, algorithm_factory, instance, capacity),
                instance, algorithm_factory, capacity,
            )
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            found = (f"{type(exc).__name__}: {exc}",)
        problems += [f"{leg}: {p}" for p in found]
    algorithm = algorithm_factory()
    name = getattr(algorithm, "name", type(algorithm).__name__)
    return ParityReport("engine", name, workload, len(instance),
                        tuple(problems))


def _leg_outcome(leg, factory, instance, capacity) -> Outcome:
    """What ``leg`` decided on ``instance``."""
    if leg == "reference":
        from ..testkit.reference import reference_run

        ref = reference_run(factory(), instance, capacity=capacity)
        return Outcome(
            [ref.assignment.get(it.uid) for it in instance],
            [ref.opened.get(it.uid) for it in instance],
            cost=ref.cost, max_open=ref.max_open,
            bins_opened=ref.bins_opened, peak_load=ref.peak_load,
            util_area=ref.util_area,
        )
    engine = Engine(factory(), capacity=capacity, record=True)
    summary = engine.run(_leg_source(instance, leg))
    return Outcome.of_run(engine.result(), summary)


def _leg_source(instance: Instance, leg: str):
    """What :meth:`Engine.run` consumes on ``leg``."""
    if leg == "boxed":
        return iter(instance)
    store = instance.store
    if leg == "columnar":
        return store
    n = len(store)  # chunked
    return (store.slice(i, min(i + CHUNK_ROWS, n))
            for i in range(0, n, CHUNK_ROWS))


# ---------------------------------------------------------------------- #
# The default sweep: registry × generator families
# ---------------------------------------------------------------------- #
#: algorithms that accept arbitrary (non-aligned) inputs
GENERAL_ALGORITHMS = (
    "FirstFit", "BestFit", "WorstFit", "LastFit", "NextFit",
    "HybridAlgorithm", "ClassifyByDuration", "LeastExpansion",
)
#: algorithms restricted to aligned inputs
ALIGNED_ALGORITHMS = ("CDFF", "StaticRowsCDFF")


def default_parity_cells(seed: int = 0) -> List[Tuple[str, str, Instance]]:
    """``(algorithm, workload, instance)`` cells of the default sweep,
    shared by the engine and service sweeps."""
    from ..workloads import (
        aligned_random, batch_jobs, binary_input, cloud_gaming, ff_trap,
        poisson_random, staircase, uniform_random,
    )

    general = [
        (f"uniform_random(seed={seed})", uniform_random(120, 32, seed=seed)),
        (f"poisson_random(seed={seed})",
         poisson_random(2.0, 16.0, 50.0, seed=seed)),
        ("staircase(mu=64)", staircase(64.0)),
        (f"cloud_gaming(seed={seed})", cloud_gaming(40.0, seed=seed)),
        (f"batch_jobs(seed={seed})", batch_jobs(8, 8, seed=seed)),
        ("ff_trap(mu=16)", ff_trap(16)),
    ]
    aligned = [
        ("binary_input(mu=64)", binary_input(64)),
        (f"aligned_random(seed={seed})", aligned_random(32, 90, seed=seed)),
    ]
    return [
        (name, wname, inst)
        for names, workloads in (
            (GENERAL_ALGORITHMS, general), (ALIGNED_ALGORITHMS, aligned),
        )
        for name in names
        for wname, inst in workloads
    ]


def parity_task(cell: Tuple[str, str, Instance]) -> ParityReport:
    """Picklable worker for one sweep cell (``parallel_map``-friendly)."""
    from ..parallel import _registry

    name, wname, inst = cell
    return check_parity(_registry()[name], inst, workload=wname)


def parity_suite(
    cells: Optional[Iterable[Tuple[str, str, Instance]]] = None,
    *,
    seed: int = 0,
    workers: int = 1,
) -> List[ParityReport]:
    """One report per cell; ``workers > 1`` fans the (independent) cells
    out over processes via :func:`repro.parallel.parallel_map`."""
    cells = list(default_parity_cells(seed) if cells is None else cells)
    if workers > 1:
        from ..parallel import parallel_map

        return parallel_map(parity_task, cells, workers=workers)
    return [parity_task(cell) for cell in cells]


def print_reports(reports: Sequence[ParityReport], title: str) -> int:
    """Print each report and a ``title: k/n cells ok`` line; returns the
    parity gate's exit code (1 on any mismatch)."""
    for report in reports:
        print(report)
    n_ok = sum(report.ok for report in reports)
    print(f"{title}: {n_ok}/{len(reports)} cells ok")
    return 0 if n_ok == len(reports) else 1


def _main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.engine.parity`` — the CI parity gate."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.engine.parity",
        description="Run the full batch/stream/reference parity sweep and "
        "exit non-zero on any mismatch.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    reports = parity_suite(seed=args.seed, workers=args.workers)
    return print_reports(reports, "parity sweep")


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    raise SystemExit(_main())
