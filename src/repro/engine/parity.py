"""Batch/streaming parity: a regression guard, not a proof obligation.

Since the kernel refactor, ``simulate()`` and the streaming
:class:`~repro.engine.loop.Engine` are both thin adapters over the same
:class:`~repro.core.kernel.PlacementKernel`, so batch/stream agreement
holds **by construction** — there is exactly one implementation of the
placement, commit, masking and departure semantics.  This module remains
as the regression check that keeps that claim honest (e.g. against a
future frontend accidentally growing its own semantics, or one of the
kernel's inline total updates going missing on one release path).  For a
given algorithm and instance it feeds the engine through each of its
feed paths (:data:`LEGS`) and asserts, per leg, that

- final **cost** matches ``simulate()`` bit-for-bit (the check still
  allows a 1e-9 slack so the contract is stated in tolerant terms),
- **max_open** matches exactly,
- the item→bin **assignment** matches exactly, and
- per-bin records (open/close times, members, peak loads) match, and
- the streamed totals the checks above do not cover — ``peak_load``,
  ``util_area`` and ``bins_closed`` — equal the boxed leg's exactly.

The legs are ``boxed`` (one :class:`~repro.core.item.Item` at a time
through :meth:`Engine.feed`), ``columnar`` (the whole
:class:`~repro.core.store.ItemStore` through :meth:`Engine.feed_store`)
and ``chunked`` (consecutive :meth:`ItemStore.slice` windows, as the
JSONL/CSV chunk readers deliver them).

:func:`parity_suite` sweeps the full algorithm registry over every
workload-generator family — general algorithms on the random/cloud
generators, the aligned-only CDFF variants on binary/aligned inputs.
CI runs it as an explicit step: ``python -m repro.engine.parity``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..core.instance import Instance
from ..core.simulation import simulate
from .loop import Engine

__all__ = [
    "LEGS",
    "ParityReport",
    "check_parity",
    "parity_suite",
    "default_parity_cells",
    "COST_TOL",
]

#: cost tolerance of the parity contract (observed deltas are exactly 0.0)
COST_TOL = 1e-9

#: the engine feed paths every parity check drives, in order
LEGS = ("boxed", "columnar", "chunked")
#: rows per ``ItemStore.slice`` window on the chunked leg
CHUNK_ROWS = 17


@dataclass(frozen=True)
class ParityReport:
    """The comparison of one streamed run against its batch twin."""

    algorithm: str
    workload: str
    n_items: int
    batch_cost: float
    engine_cost: float
    max_open_batch: int
    max_open_engine: int
    assignment_equal: bool
    bins_equal: bool
    #: ``(peak_load, util_area, bins_closed)`` equal the boxed leg's
    totals_equal: bool
    #: the legs the ``engine_*`` fields describe: every leg run when all
    #: agreed with batch (fields from the first), else the failing one
    legs: Tuple[str, ...]

    @property
    def cost_delta(self) -> float:
        return abs(self.engine_cost - self.batch_cost)

    @property
    def ok(self) -> bool:
        return (
            self.cost_delta <= COST_TOL
            and self.max_open_batch == self.max_open_engine
            and self.assignment_equal
            and self.bins_equal
            and self.totals_equal
        )

    def __str__(self) -> str:
        flag = "ok" if self.ok else "MISMATCH"
        return (
            f"[{flag}] {self.algorithm:20s} on {self.workload:24s} "
            f"n={self.n_items:5d}  cost {self.batch_cost:.6g} vs "
            f"{self.engine_cost:.6g} (Δ={self.cost_delta:.3g})  "
            f"max_open {self.max_open_batch} vs {self.max_open_engine}  "
            f"{'' if self.totals_equal else 'totals differ from boxed  '}"
            f"via {'/'.join(self.legs)}"
        )


def check_parity(
    algorithm_factory: Callable[[], object],
    instance: Instance,
    *,
    capacity: float = 1.0,
    workload: str = "instance",
) -> ParityReport:
    """Run batch, then the engine once per leg, on fresh algorithm
    instances and compare; the report names the first failing leg."""
    batch = simulate(algorithm_factory(), instance, capacity=capacity)
    first = None
    boxed_totals = None
    for leg in LEGS:
        engine = Engine(algorithm_factory(), capacity=capacity, record=True)
        summary = engine.run(_leg_source(instance, leg))
        streamed = engine.result()
        totals = (summary.peak_load, summary.util_area, summary.bins_closed)
        if boxed_totals is None:  # the first leg is the boxed one
            boxed_totals = totals
        report = ParityReport(
            algorithm=batch.algorithm,
            workload=workload,
            n_items=len(instance),
            batch_cost=batch.cost,
            engine_cost=summary.cost,
            max_open_batch=batch.max_open,
            max_open_engine=summary.max_open,
            assignment_equal=streamed.assignment == batch.assignment,
            bins_equal=streamed.bins == batch.bins,
            totals_equal=totals == boxed_totals,
            legs=(leg,),
        )
        if not report.ok:
            return report
        first = first or report
    return replace(first, legs=LEGS)


def _leg_source(instance: Instance, leg: str):
    """What :meth:`Engine.run` consumes on ``leg``."""
    if leg == "boxed":
        return iter(instance)
    store = instance.store
    if leg == "columnar":
        return store
    n = len(store)  # chunked
    return (
        store.slice(i, min(i + CHUNK_ROWS, n))
        for i in range(0, n, CHUNK_ROWS)
    )


# ---------------------------------------------------------------------- #
# The default sweep: registry × generator families
# ---------------------------------------------------------------------- #
#: algorithms that accept arbitrary (non-aligned) inputs
GENERAL_ALGORITHMS = (
    "FirstFit",
    "BestFit",
    "WorstFit",
    "LastFit",
    "NextFit",
    "HybridAlgorithm",
    "ClassifyByDuration",
    "LeastExpansion",
)
#: algorithms restricted to aligned inputs
ALIGNED_ALGORITHMS = ("CDFF", "StaticRowsCDFF")


def _general_workloads(seed: int) -> List[Tuple[str, Instance]]:
    from ..workloads import (
        batch_jobs,
        cloud_gaming,
        ff_trap,
        poisson_random,
        staircase,
        uniform_random,
    )

    return [
        (f"uniform_random(seed={seed})", uniform_random(120, 32, seed=seed)),
        (
            f"poisson_random(seed={seed})",
            poisson_random(2.0, 16.0, 50.0, seed=seed),
        ),
        ("staircase(mu=64)", staircase(64.0)),
        (f"cloud_gaming(seed={seed})", cloud_gaming(40.0, seed=seed)),
        (f"batch_jobs(seed={seed})", batch_jobs(8, 8, seed=seed)),
        ("ff_trap(mu=16)", ff_trap(16)),
    ]


def _aligned_workloads(seed: int) -> List[Tuple[str, Instance]]:
    from ..workloads import aligned_random, binary_input

    return [
        ("binary_input(mu=64)", binary_input(64)),
        (f"aligned_random(seed={seed})", aligned_random(32, 90, seed=seed)),
    ]


def default_parity_cells(
    seed: int = 0,
) -> List[Tuple[str, str, Instance]]:
    """``(algorithm, workload, instance)`` cells of the default sweep."""
    cells: List[Tuple[str, str, Instance]] = []
    for name in GENERAL_ALGORITHMS:
        for wname, inst in _general_workloads(seed):
            cells.append((name, wname, inst))
    for name in ALIGNED_ALGORITHMS:
        for wname, inst in _aligned_workloads(seed):
            cells.append((name, wname, inst))
    return cells


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
    """Run the parity sweep; returns one report per cell.

    ``workers > 1`` fans the cells out over processes via
    :func:`repro.parallel.parallel_map` (each cell is independent).
    """
    if cells is None:
        cells = default_parity_cells(seed)
    cells = list(cells)
    if workers > 1:
        from ..parallel import parallel_map

        return parallel_map(parity_task, cells, workers=workers)
    return [parity_task(cell) for cell in cells]


def _main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.engine.parity`` — the CI parity gate."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.engine.parity",
        description="Run the full batch/stream parity sweep and exit "
        "non-zero on any mismatch.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    reports = parity_suite(seed=args.seed, workers=args.workers)
    failures = 0
    for report in reports:
        print(report)
        failures += 0 if report.ok else 1
    print(
        f"parity sweep: {len(reports) - failures}/{len(reports)} cells ok"
    )
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    raise SystemExit(_main())
