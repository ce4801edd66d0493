"""End-of-run oracles: what must be true after *any* fault schedule.

A chaos run is judged only after the harness heals every fault and the
retrying client settles.  Then, per shard:

**Exactly-once** — the acked records' server-assigned ``uid``s must be
exactly ``0..n-1`` (uids are the shard's apply order, so a gap means an
item was applied whose ack was lost *and never re-claimed* — loss — and
the shard's ``items`` counter exceeding the acked count means a retry
was applied twice — the dedup bug);

**Decision/cost parity** — :func:`~repro.engine.parity.check_against_batch`
replays the acked items (in apply order) through batch ``simulate()``:
same bin and opened flag per item, same cost (bit for bit), ``max_open``
and bins-opened count.  Faults may delay an item, never move it;

**Invariants** — that replay runs under an
:class:`~repro.obs.invariants.InvariantMonitor` (cost identity,
span/demand bounds, Table-1 ratios).

Client-level checks: no item abandoned, no unexpected terminal refusal.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List

from ..core.instance import Instance
from ..core.store import ItemStore
from ..engine.parity import Outcome, check_against_batch
from ..obs.invariants import InvariantMonitor
from .chaos_client import ClientReport

__all__ = ["OracleVerdict", "check_oracles"]


@dataclass
class OracleVerdict:
    """The run's pass/fail plus every reason it failed."""

    ok: bool
    failures: List[str] = field(default_factory=list)
    per_shard: List[dict] = field(default_factory=list)
    invariant_violations: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def check_oracles(
    plan,
    report: ClientReport,
    stats_reply: dict,
    *,
    registry=None,
) -> OracleVerdict:
    """Judge one healed chaos run (see module docstring).

    ``stats_reply`` is the server's final ``stats`` reply, taken after
    an ``advance`` past the last departure — so per-shard costs are
    final, exactly like the parity harness measures them.
    """
    if registry is None:
        from ..parallel import _registry

        registry = _registry()
    factory = registry[plan.algorithm]
    failures: List[str] = []
    verdict = OracleVerdict(ok=True)

    # ------------------------------------------------------------------ #
    # Client-level: every item settled with an ack
    # ------------------------------------------------------------------ #
    if report.abandoned:
        failures.append(
            f"{report.abandoned} item(s) abandoned after max_attempts — "
            "the service never settled them"
        )
    for refusal in report.terminal:
        failures.append(f"unexpected terminal refusal: {refusal}")
    if report.sent != len(report.acked) + report.abandoned + len(
        report.terminal
    ):
        failures.append(
            f"bookkeeping mismatch: sent={report.sent} != acked="
            f"{len(report.acked)} + abandoned={report.abandoned} + "
            f"terminal={len(report.terminal)}"
        )

    per_shard_stats = {
        int(s["shard"]): s for s in stats_reply.get("per_shard", [])
    }

    # ------------------------------------------------------------------ #
    # Per shard: exactly-once + bit-identical replay
    # ------------------------------------------------------------------ #
    for shard in range(plan.shards):
        recs = sorted(
            (r for r in report.acked if r.shard == shard),
            key=lambda r: r.uid,
        )
        stats = per_shard_stats.get(shard, {})
        detail = {
            "shard": shard,
            "acked": len(recs),
            "applied": stats.get("items"),
        }
        uids = [r.uid for r in recs]
        if uids != list(range(len(recs))):
            failures.append(
                f"shard {shard}: acked uids are not exactly 0..n-1 "
                f"(n={len(recs)}) — an applied item was lost or an item "
                f"was applied more than once; uids={uids[:20]}"
                + ("..." if len(uids) > 20 else "")
            )
        applied = stats.get("items")
        if applied is not None and int(applied) != len(recs):
            failures.append(
                f"shard {shard}: server applied {applied} item(s) but the "
                f"client holds {len(recs)} ack(s) — "
                + ("double-apply (dedup failure)"
                   if int(applied) > len(recs) else "accepted-item loss")
            )
        # replay the acked stream through batch simulate(): apply order
        # (uid order) has nondecreasing arrivals because the client is
        # closed-loop per shard, so it is a valid instance
        store = ItemStore()
        for rec in recs:
            store.append(rec.arrival, rec.departure, rec.size)
        # a total the shard did not report (None) must mismatch: NaN
        served = Outcome(
            [r.bin for r in recs],
            [r.opened for r in recs],
            **{
                k: float("nan") if stats.get(k) is None else stats[k]
                for k in ("cost", "max_open", "bins_opened")
            },
        )
        monitor = InvariantMonitor(
            capacity=plan.capacity, algorithm=plan.algorithm
        )
        problems = check_against_batch(
            served, Instance.from_store(store), factory, plan.capacity,
            listener=monitor,
        )
        monitor.finalize()
        if not monitor.ok:
            verdict.invariant_violations += len(monitor.violations)
            failures.append(
                f"shard {shard}: {len(monitor.violations)} invariant "
                f"violation(s) on the replayed stream"
            )
        failures += [
            f"shard {shard}: served vs simulate(): {p}" for p in problems
        ]
        detail.update(
            served_cost=stats.get("cost"),
            served_max_open=stats.get("max_open"),
            served_bins_opened=stats.get("bins_opened"),
            problems=list(problems),
        )
        verdict.per_shard.append(detail)

    verdict.failures = failures
    verdict.ok = not failures
    return verdict
