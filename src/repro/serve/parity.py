"""Service/batch parity: the serving layer's caller of the one oracle.

A single-shard :class:`~repro.serve.server.PlacementServer` fed an
arrival-ordered trace must make **bit-identical decisions** to batch
:func:`~repro.core.simulation.simulate`: protocol parsing,
micro-batching, the queue and the shard worker may not perturb one.
:func:`check_service_parity` serves one (algorithm, instance) cell over
a real localhost TCP round-trip, ``advance``s past the last departure,
and hands the replies and final ``stats`` to
:func:`~repro.engine.parity.check_against_batch`.
:func:`service_parity_suite` sweeps the engine sweep's cells; CI runs
``python -m repro.serve.parity``.
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
) -> Tuple[List[dict], dict]:
    """Replay ``instance`` through a fresh single-shard server.

    Returns the arrive replies in submission order plus the final stats
    reply (taken after advancing past the last departure, so every
    scheduled departure has been processed and the cost is final).
    """
    server = PlacementServer(ServeConfig(
        shards=1, algorithm=algorithm, capacity=capacity,
        batch_max=batch_max, batch_delay=batch_delay,
    ))
    await server.start()
    try:
        client = await PlacementClient.connect("127.0.0.1", server.port)
        try:
            futures = [
                client.submit({
                    "op": "arrive", "id": item.uid, "arrival": item.arrival,
                    "departure": item.departure, "size": item.size,
                })
                for item in instance
            ]
            await client.drain_writes()
            replies = list(await asyncio.gather(*futures))
            await client.advance(
                max((it.departure for it in instance), default=0.0)
            )
            stats = await client.stats()
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
) -> ParityReport:
    """Serve ``instance`` over TCP and compare against ``simulate()``."""
    replies, stats = asyncio.run(_serve_instance(
        algorithm, instance, capacity=capacity, batch_max=batch_max,
        batch_delay=batch_delay,
    ))
    return ParityReport(
        "serve", algorithm, workload, len(instance),
        served_problems(replies, stats, algorithm, instance, capacity),
    )


def served_problems(
    replies: Sequence[dict], stats: dict, algorithm: str, instance: Instance,
    capacity: float = 1.0,
) -> Tuple[str, ...]:
    """Mismatches between one shard's arrive replies (in submission
    order, which is uid order) plus its final ``stats`` reply and batch
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
) -> List[ParityReport]:
    """One report per cell; ``batch_max``/``batch_delay`` exercise the
    micro-batched path (decisions must not depend on batching)."""
    return [
        check_service_parity(name, inst, workload=wname,
                             batch_max=batch_max, batch_delay=batch_delay)
        for name, wname, inst in (
            default_parity_cells(seed) if cells is None else cells
        )
    ]


def _main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.serve.parity`` — the CI service-parity gate."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.serve.parity",
        description="Replay every parity cell through a single-shard "
        "placement server and exit non-zero on any mismatch with batch "
        "simulate().",
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
    args = parser.parse_args(argv)
    reports = service_parity_suite(
        seed=args.seed, batch_max=args.batch_max, batch_delay=args.batch_delay
    )
    return print_reports(reports, "service parity sweep")


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    raise SystemExit(_main())
