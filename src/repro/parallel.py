"""Parallel execution helpers for experiment sweeps.

Competitive-ratio sweeps are embarrassingly parallel across (μ, seed)
cells; this module wraps :mod:`concurrent.futures` with the conventions
the rest of the package needs:

- ``workers=1`` (the default) runs serially in-process — determinism and
  debuggability first, parallelism opt-in (per the optimisation guide:
  measure before you parallelise);
- tasks must be picklable: module-level functions and instances built
  from frozen dataclasses qualify; lambdas do not — :func:`ratio_task`,
  :func:`replay_task` and :func:`repro.engine.parity.parity_task` are
  provided as picklable work items for the common cases.

Example::

    from repro.parallel import parallel_map, ratio_task
    cells = [("FirstFit", inst1), ("HybridAlgorithm", inst2)]
    ratios = parallel_map(ratio_task, cells, workers=4)

Every task runs the shared :class:`~repro.core.kernel.PlacementKernel`
(via ``simulate()`` or the streaming engine), so per-cell results are
identical whether a sweep runs serially or across processes.
"""

from __future__ import annotations

import pathlib
import warnings
from typing import Callable, List, Optional, Sequence, TypeVar, Union

from .core.instance import Instance

__all__ = [
    "parallel_map",
    "ratio_task",
    "replay_task",
    "replay_sharded",
    "ALGORITHM_REGISTRY",
]

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    workers: int = 1,
    chunksize: Optional[int] = None,
) -> List[R]:
    """Map ``fn`` over ``items``, optionally across processes.

    ``workers=1`` runs serially (no pool, exact tracebacks); ``workers>1``
    uses a process pool, requiring ``fn`` and the items to be picklable.
    Results are returned in input order either way.

    ``chunksize`` defaults to ``max(1, len(items) // (4 * workers))`` —
    large enough to amortise pickling, small enough to load-balance
    uneven cells.

    When the platform cannot start a process pool at all (sandboxed or
    no-fork environments raise ``OSError``/``PermissionError`` at fork
    time), the map **falls back to serial execution** with a warning
    instead of crashing; sweeps then still complete, just without the
    speedup.  Exceptions raised by ``fn`` itself are never swallowed.
    """
    if workers < 1:
        raise ValueError(f"workers must be ≥ 1, got {workers}")
    items = list(items)
    if chunksize is None:
        chunksize = max(1, len(items) // (4 * workers))
    if workers == 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items, chunksize=chunksize))
    except (OSError, BrokenProcessPool, NotImplementedError) as exc:
        warnings.warn(
            f"process pool unavailable ({type(exc).__name__}: {exc}); "
            "falling back to serial execution",
            RuntimeWarning,
            stacklevel=2,
        )
        return [fn(item) for item in items]


def _registry() -> dict:
    from .algorithms import (
        CDFF,
        BestFit,
        ClassifyByDuration,
        FirstFit,
        HybridAlgorithm,
        LastFit,
        LeastExpansion,
        NextFit,
        StaticRowsCDFF,
        WorstFit,
    )

    return {
        "FirstFit": FirstFit,
        "BestFit": BestFit,
        "WorstFit": WorstFit,
        "LastFit": LastFit,
        "NextFit": NextFit,
        "ClassifyByDuration": ClassifyByDuration,
        "HybridAlgorithm": HybridAlgorithm,
        "CDFF": CDFF,
        "StaticRowsCDFF": StaticRowsCDFF,
        "LeastExpansion": LeastExpansion,
    }


#: names accepted by :func:`ratio_task`
ALGORITHM_REGISTRY = tuple(sorted(_registry()))


def ratio_task(cell: tuple[str, Instance]) -> float:
    """Picklable work item: ``(algorithm name, instance) → certified ratio``.

    The ratio is ``ALG / OPT_R-lower`` (a certified upper estimate), the
    convention of the upper-bound experiments.
    """
    name, instance = cell
    registry = _registry()
    if name not in registry:
        raise KeyError(
            f"unknown algorithm {name!r}; choose from {ALGORITHM_REGISTRY}"
        )
    from .core.simulation import simulate
    from .offline.optimal import opt_reference

    result = simulate(registry[name](), instance)
    opt = opt_reference(instance, max_exact=16)
    return result.cost / opt.lower if opt.lower > 0 else float("inf")


# ---------------------------------------------------------------------- #
# Sharded streaming replay (the engine's multi-worker entry point)
# ---------------------------------------------------------------------- #
def replay_task(cell: tuple) -> dict:
    """Picklable work item: ``(algorithm name, trace path) → summary dict``.

    Streams the trace file through a fresh
    :class:`~repro.engine.loop.Engine` in constant memory; the returned
    dict is :meth:`~repro.engine.loop.EngineSummary.to_dict`.  An
    optional third cell element (bool) disables the kernel's open-bin
    index (``indexed=False``, the linear-scan fallback); an optional
    fourth element (bool) attaches an
    :class:`~repro.engine.metrics.EngineMetrics` and returns it (they
    pickle, so they travel back across the process pool) under the
    ``"metrics"`` key for :func:`replay_sharded` to merge.
    """
    name, path = cell[0], cell[1]
    indexed = cell[2] if len(cell) > 2 else True
    with_metrics = cell[3] if len(cell) > 3 else False
    registry = _registry()
    if name not in registry:
        raise KeyError(
            f"unknown algorithm {name!r}; choose from {ALGORITHM_REGISTRY}"
        )
    from .engine import Engine, EngineMetrics, open_trace

    metrics = EngineMetrics() if with_metrics else None
    engine = Engine(registry[name](), indexed=indexed, metrics=metrics)
    out = engine.run(open_trace(path)).to_dict()
    if with_metrics:
        out["metrics"] = metrics
    return out


def replay_sharded(
    paths: Sequence[Union[str, pathlib.Path]],
    algorithm: str = "HybridAlgorithm",
    *,
    workers: int = 1,
    indexed: bool = True,
    metrics: bool = False,
) -> dict:
    """Replay many trace shards, one independent engine per shard.

    Each shard is packed in isolation (its own algorithm instance and
    bins), so the aggregate cost is the sum over shards — the standard
    scale-out regime where traffic is partitioned across machines.

    With ``metrics=True`` every shard records an
    :class:`~repro.engine.metrics.EngineMetrics`; the per-shard
    registries are merged (exactly for counters/histograms, global
    min/max for timings) into one fleet-wide snapshot returned under
    the ``"metrics"`` key.

    Returns the aggregated totals plus the per-shard summaries.
    """
    cells = [(algorithm, str(p), indexed, metrics) for p in paths]
    shards = parallel_map(replay_task, cells, workers=workers)
    merged = None
    if metrics:
        from .engine import EngineMetrics

        merged = EngineMetrics()
        for shard in shards:
            merged.merge(shard.pop("metrics"))
    out = {
        "algorithm": algorithm,
        "shards": shards,
        "n_shards": len(shards),
        "items": sum(s["items"] for s in shards),
        "cost": sum(s["cost"] for s in shards),
        "bins_opened": sum(s["bins_opened"] for s in shards),
        "max_open": sum(s["max_open"] for s in shards),
    }
    if merged is not None:
        out["metrics"] = merged.snapshot()
    return out
