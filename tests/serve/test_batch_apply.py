"""A micro-batch applied as one job equals its requests applied one by one.

:meth:`PlacementShard.apply_batch` applies each run of consecutive
``arrive`` requests with one kernel call.  Over a random mix of
canonical arrives, string ``seq``s, dedup-keyed resends, adaptive
arrives and departs, duplicate ids, out-of-order rows, clairvoyance
errors, traced requests and a ``crash_after`` at a random count, the
one-job run must give the replies (``latency_us`` masked), the kernel
state, the registry snapshot and the accept/reject counts that one job
per request gives.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import FirstFit, HybridAlgorithm
from repro.serve.protocol import Request
from repro.serve.shard import PlacementShard

ALGORITHMS = {
    "FirstFit": FirstFit,
    "FirstFit-nc": lambda: FirstFit(clairvoyant=False),
    "HybridAlgorithm": HybridAlgorithm,
}


class Traced:
    """A stand-in telemetry context (the attributes the shard stamps)."""

    def __init__(self, sampled: bool) -> None:
        self.sampled = sampled
        self.t_recv = 0.0


@st.composite
def jobs(draw):
    """``(requests, contexts)``: one micro-batch's worth of traffic."""
    n = draw(st.integers(min_value=1, max_value=40))
    traced = draw(st.booleans())
    reqs, ctxs, keyed = [], [], []
    clock = 0.0
    for i in range(n):
        kind = draw(st.sampled_from(
            ["arrive"] * 6 + ["adaptive", "resend", "late", "depart",
                              "advance"]))
        seq = draw(st.sampled_from([i, f"s{i}", None]))
        client = draw(st.sampled_from([None, None, "c1"]))
        if kind == "resend" and keyed:
            req = draw(st.sampled_from(keyed))
        elif kind == "depart":
            req = Request("depart", seq, draw(st.sampled_from("abc")),
                          client=client, time=clock)
        elif kind == "advance":
            clock += draw(st.sampled_from([0.0, 0.5, 2.0]))
            req = Request("advance", seq, time=clock)
        else:
            if kind == "late":
                arrival = clock - 1.0
            else:
                clock += draw(st.sampled_from([0.0, 0.0, 0.25, 1.0]))
                arrival = clock
            departure = None if kind == "adaptive" else arrival + draw(
                st.sampled_from([0.5, 1.0, 3.0, 8.0]))
            ident = draw(st.sampled_from("abc")) if kind == "adaptive" \
                else str(i)
            req = Request(
                "arrive", seq, ident, "t", arrival, departure,
                draw(st.sampled_from([0.125, 0.25, 0.5, 0.75, 1.0])),
                client=client,
            )
            if req.dedup_key is not None:
                keyed.append(req)
        reqs.append(req)
        ctxs.append(Traced(draw(st.booleans())) if traced and draw(
            st.booleans()) else 0.0)
    return reqs, ctxs


def _shard(algorithm: str, crash_at) -> PlacementShard:
    shard = PlacementShard(0, ALGORITHMS[algorithm](), clock=lambda: 0.0)
    if crash_at is not None:
        shard.crash_after(crash_at)
    return shard


def _masked(reply):
    wire = type(reply) is bytes
    obj = json.loads(reply) if wire else dict(reply)
    obj.pop("latency_us", None)
    return wire, obj


def _outcome(shard: PlacementShard, replies: list):
    metrics = shard.engine.metrics
    return (
        [_masked(r) for r in replies],
        shard.crashed or shard.engine.kernel.export_state(),
        metrics.snapshot(),
        shard.accepted,
        shard.rejected,
        shard.request_latency.to_dict(),
        sorted(shard._adaptive_uids.items()),
    )


@given(
    job=jobs(),
    algorithm=st.sampled_from(sorted(ALGORITHMS)),
    crash_at=st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
    served=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_one_job_equals_one_job_per_request(job, algorithm, crash_at, served):
    reqs, ctxs = job
    if not served:
        ctxs = None
    batched = _shard(algorithm, crash_at)
    replies = batched.apply_batch(tuple(reqs), ctxs and tuple(ctxs))
    single = _shard(algorithm, crash_at)
    one_by_one = [
        single.apply_batch((req,), None if ctxs is None else (ctxs[i],))[0]
        for i, req in enumerate(reqs)
    ]
    assert len(replies) == len(reqs)
    assert _outcome(batched, replies) == _outcome(single, one_by_one)


class RaisesOnArrival:
    """A kernel listener whose ``on_arrival`` raises for chosen uids,
    after the kernel has placed the item."""

    def __init__(self, uids) -> None:
        self.uids = set(uids)

    def on_arrival(self, item, bin_, opened) -> None:
        if item.uid in self.uids:
            raise RuntimeError(f"listener refused uid {item.uid}")


def _arrives(n: int):
    return tuple(
        Request("arrive", i, str(i), "t", float(i), i + 4.0, 0.25)
        for i in range(n)
    )


def _listened(raising) -> PlacementShard:
    shard = PlacementShard(0, HybridAlgorithm(), clock=lambda: 0.0)
    shard.engine.kernel.add_listener(RaisesOnArrival(raising))
    return shard


def test_a_listener_raising_after_placement_fails_only_its_row():
    # runs of one and of several, the raising row first, inside and last
    for n, raising in ((1, [0]), (5, [0]), (5, [2]), (5, [4]), (6, [1, 5])):
        reqs = _arrives(n)
        batched = _listened(raising)
        replies = batched.apply_batch(reqs, (0.0,) * n)
        single = _listened(raising)
        one_by_one = [single.apply_batch((r,), (0.0,))[0] for r in reqs]
        assert _outcome(batched, replies) == _outcome(single, one_by_one)
        for row, (_, reply) in enumerate(map(_masked, replies)):
            if row in raising:
                assert reply["error"] == "internal"
                assert "listener refused" in reply["message"]
            else:
                assert reply["ok"] and reply["uid"] == row  # uid spent
        assert batched.accepted == n - len(raising)
        assert batched.rejected == len(raising)
        assert batched.engine.kernel.arrivals == n
