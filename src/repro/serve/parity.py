"""Service/batch parity: the serving layer's caller of the one oracle.

A :class:`~repro.serve.server.PlacementServer` fed an arrival-ordered
trace must make, on each shard, **bit-identical decisions** to batch
:func:`~repro.core.simulation.simulate` of that shard's items:
protocol parsing, routing, micro-batching, the queue and the shard
worker may not perturb one.  :func:`check_service_parity` serves one
(algorithm, instance) cell over a real localhost TCP round-trip,
``advance``s past the last departure, and hands each shard's replies,
its final ``stats`` and its packing-metrics snapshot to
:func:`~repro.engine.parity.check_against_batch`, which compares the
snapshot with a registry on the batch run, counters and histograms
exactly.

By default the server has one shard and the trace no tenants.  With
``shards`` > 1 the items go round-robin to one shard-affine tenant per
shard (:func:`~repro.serve.loadgen.shard_affine_tenants`), and with
``advance_every`` k an ``advance`` to the latest arrival follows every
k arrives: the benchmark's served shape, where one connection's rows
are regrouped into per-shard batches.
:func:`service_parity_suite` sweeps the engine sweep's cells; CI runs
``python -m repro.serve.parity`` with and without batching, and with
``--shards 4 --advance-every 64``.
"""

from __future__ import annotations

import asyncio
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.instance import Instance
from ..engine.parity import (
    Outcome,
    ParityReport,
    check_against_batch,
    default_parity_cells,
    print_reports,
)
from .client import PlacementClient
from .server import PlacementServer, ServeConfig

__all__ = ["check_service_parity", "service_parity_suite"]


async def _serve_instance(
    algorithm: str,
    instance: Instance,
    *,
    capacity: float,
    batch_max: int,
    batch_delay: float,
    shards: int = 1,
    advance_every: int = 0,
) -> Tuple[List[dict], dict]:
    """Replay ``instance`` through a fresh server (see the module
    docstring for ``shards`` and ``advance_every``).

    Returns the arrive replies in submission order plus the final stats
    reply (taken after advancing past the last departure, so every
    scheduled departure has been processed and the cost is final), with
    the server's merged packing-metrics snapshot of that moment added
    under ``"metrics"``, each shard's under ``"shard_metrics"`` and the
    replies to the interleaved ``advance`` requests under
    ``"advances"`` (the wire reply has none of these).
    """
    from .loadgen import shard_affine_tenants

    server = PlacementServer(ServeConfig(
        shards=shards, algorithm=algorithm, capacity=capacity,
        batch_max=batch_max, batch_delay=batch_delay,
    ))
    tenants = shard_affine_tenants(shards, shards) if shards > 1 else None
    await server.start()
    try:
        client = await PlacementClient.connect("127.0.0.1", server.port)
        try:
            futures, advances = [], []
            for i, item in enumerate(instance):
                request = {
                    "op": "arrive", "id": item.uid, "arrival": item.arrival,
                    "departure": item.departure, "size": item.size,
                }
                if tenants is not None:
                    request["tenant"] = tenants[i % shards]
                futures.append(client.submit(request))
                if advance_every and (i + 1) % advance_every == 0:
                    advances.append(client.submit(
                        {"op": "advance", "time": item.arrival}
                    ))
            await client.drain_writes()
            replies = list(await asyncio.gather(*futures))
            advanced = list(await asyncio.gather(*advances))
            await client.advance(
                max((it.departure for it in instance), default=0.0)
            )
            stats = await client.stats()
            stats["metrics"] = server.merged_metrics().snapshot()
            stats["shard_metrics"] = [
                shard.engine.metrics.snapshot() for shard in server.shards
            ]
            stats["advances"] = advanced
        finally:
            await client.aclose()
    finally:
        await server.drain()
    return replies, stats


def check_service_parity(
    algorithm: str,
    instance: Instance,
    *,
    capacity: float = 1.0,
    workload: str = "instance",
    batch_max: int = 1,
    batch_delay: float = 0.0,
    shards: int = 1,
    advance_every: int = 0,
) -> ParityReport:
    """Serve ``instance`` over TCP and compare each shard against
    ``simulate()`` of its items."""
    replies, stats = asyncio.run(_serve_instance(
        algorithm, instance, capacity=capacity, batch_max=batch_max,
        batch_delay=batch_delay, shards=shards, advance_every=advance_every,
    ))
    bad = [r for r in stats["advances"] if not r.get("ok")]
    problems = [f"{len(bad)} advance error replies (first: {bad[0]})"] \
        if bad else []
    items = list(instance)
    for k in range(shards):  # shard k holds items k, k + shards, ...
        found = served_problems(
            replies[k::shards],
            {"totals": stats["per_shard"][k],
             "metrics": stats["shard_metrics"][k]},
            algorithm, Instance(items[k::shards]), capacity,
        )
        problems += [f"shard {k}: {p}" for p in found] if shards > 1 \
            else found
    return ParityReport(
        "serve", algorithm, workload, len(instance), tuple(problems)
    )


def served_problems(
    replies: Sequence[dict], stats: dict, algorithm: str, instance: Instance,
    capacity: float = 1.0,
) -> Tuple[str, ...]:
    """Mismatches between one shard's arrive replies (in submission
    order, which is uid order) plus its final ``stats`` reply (with the
    metrics snapshot under ``"metrics"``, when it has one) and batch
    ``simulate()``; an error reply is a mismatch too."""
    from ..parallel import _registry

    errors = [r for r in replies if not r.get("ok")]
    totals = stats.get("totals", {})
    outcome = Outcome(
        [r.get("bin") for r in replies],
        [r.get("opened") for r in replies],
        cost=float(totals.get("cost", float("nan"))),
        max_open=int(totals.get("max_open", -1)),
        bins_opened=int(totals.get("bins_opened", -1)),
        metrics=stats.get("metrics"),
    )
    found = check_against_batch(
        outcome, instance, _registry()[algorithm], capacity
    )
    if errors:
        found = (f"{len(errors)} error replies (first: {errors[0]})",) + found
    return found


def service_parity_suite(
    cells: Optional[Iterable[Tuple[str, str, Instance]]] = None,
    *,
    seed: int = 0,
    batch_max: int = 1,
    batch_delay: float = 0.0,
    shards: int = 1,
    advance_every: int = 0,
) -> List[ParityReport]:
    """One report per cell; ``batch_max``/``batch_delay`` exercise the
    micro-batched path (decisions must not depend on batching), and
    ``shards``/``advance_every`` the regrouping of one connection's rows
    into per-shard batches."""
    return [
        check_service_parity(name, inst, workload=wname,
                             batch_max=batch_max, batch_delay=batch_delay,
                             shards=shards, advance_every=advance_every)
        for name, wname, inst in (
            default_parity_cells(seed) if cells is None else cells
        )
    ]


def _main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.serve.parity`` — the CI service-parity gate."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.serve.parity",
        description="Replay every parity cell through a placement "
        "server and exit non-zero on any shard's mismatch with batch "
        "simulate() of its items.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--batch-max", type=int, default=1,
        help="micro-batch size to serve with (1 = batching off)",
    )
    parser.add_argument(
        "--batch-delay", type=float, default=0.0,
        help="micro-batch age bound in seconds (0 = batching off)",
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help="shards to serve with; more than 1 spreads the items "
        "round-robin over one shard-affine tenant per shard",
    )
    parser.add_argument(
        "--advance-every", type=int, default=0, metavar="K",
        help="send an advance to the latest arrival after every K "
        "arrives (0 = none)",
    )
    args = parser.parse_args(argv)
    if args.shards < 1 or args.advance_every < 0:
        parser.error("--shards must be >= 1 and --advance-every >= 0")
    reports = service_parity_suite(
        seed=args.seed, batch_max=args.batch_max,
        batch_delay=args.batch_delay, shards=args.shards,
        advance_every=args.advance_every,
    )
    return print_reports(reports, "service parity sweep")


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    raise SystemExit(_main())
