"""The benchmark's workloads: what each one generates, and why.

``BENCHMARK.json`` carries a one-line summary of each entry; this table
is the full record (generator parameters, serve settings) that later
changes name workloads and metrics from.

``replay-bestfit``
    BestFit over a Poisson trace (rate 40, mu=16, 100k items) written as
    JSONL and streamed through ``iter_jsonl_stores`` -> ``Engine.run`` in
    fresh subprocesses.  Loader, kernel and ``OpenBinIndex`` (~160 bins
    open) do nearly all the work and no serve layer runs, so a kernel or
    index change shows here and nowhere else.
``serve-hybrid-sharded``
    HybridAlgorithm on Poisson arrivals with a wide duration spread
    (rate 12, mu=1024, ~1.3k bins open across shards), 4 shards,
    micro-batching on.  One connection multiplexes 4 shard-affine
    tenants and broadcasts an ``advance`` every 64 arrivals: protocol,
    hash-ring routing, batcher flushes, cross-shard broadcasts, the
    event loop and the socket all run, and the algorithm layer is
    loaded heavily.  It is driven closed loop with ``SAT_WINDOW``
    arrivals in flight, enough that every shard always has a full
    micro-batch waiting, so the server never idles and batches form the
    same way from run to run.

Both workloads' traced runs replay a prefix up the whole layer ladder
(``ladder.py``), so every layer is measured on each.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import List, Optional, Tuple


#: closed-loop in-flight window of the traced run's served cells
WINDOW = 32
#: closed-loop in-flight window of the untraced saturation run: 32 per
#: shard, twice the largest micro-batch
SAT_WINDOW = 128
#: items in the stream prefix the traced run takes up the ladder
TRACE_ITEMS = 12_000


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str
    #: served by ``repro-dbp serve`` (else replayed offline by the engine)
    served: bool
    #: Poisson generator: arrivals per time unit, and mu (the longest
    #: over the shortest item duration)
    rate: float
    mu: float
    #: items the workload's stream holds (the served run stops early
    #: when it runs out; the replay trace is exactly this long)
    n_items: int
    #: serve only: shard count, micro-batch knobs, advance period
    shards: int = 1
    batch_max: int = 1
    batch_delay: float = 0.0
    advance_every: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "replay-bestfit", "BestFit", served=False,
            rate=40.0, mu=16.0, n_items=100_000,
        ),
        Workload(
            "serve-hybrid-sharded", "HybridAlgorithm", served=True,
            rate=12.0, mu=1024.0, n_items=400_000,
            shards=4, batch_max=16, batch_delay=0.0005, advance_every=64,
        ),
    )
}


def generate(workload: Workload, seed: int):
    """The workload's arrival-ordered item stream as an ``Instance``."""
    from repro.core.instance import Instance
    from repro.workloads import poisson_random

    n, rate = workload.n_items, workload.rate
    # horizon with slack so the Poisson count exceeds n; keep the first n
    inst = poisson_random(rate, workload.mu, n / rate * 1.05 + 64.0,
                          seed=seed)
    if len(inst) < n:
        raise RuntimeError(f"generator produced {len(inst)} < {n} items")
    return Instance.from_store(inst.store.slice(0, n))


def columns(instance, stop: Optional[int] = None
            ) -> Tuple[List[float], List[float], List[float]]:
    """``(arrivals, departures, sizes)`` of the first ``stop`` items."""
    arr, dep, siz, _, lo, hi = instance.store.columns()
    hi = hi if stop is None else lo + stop
    return list(arr[lo:hi]), list(dep[lo:hi]), list(siz[lo:hi])


def write_jsonl(instance, path: pathlib.Path,
                stop: Optional[int] = None) -> pathlib.Path:
    """Write the first ``stop`` items as a JSONL trace (program format)."""
    from repro.core.instance import Instance
    from repro.workloads.io import dump_jsonl

    if stop is not None and stop < len(instance):
        instance = Instance.from_store(instance.store.slice(0, stop))
    dump_jsonl(instance, path)
    return path
