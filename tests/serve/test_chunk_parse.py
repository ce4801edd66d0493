"""The chunk reader serves every line as the per-line reader did.

The server reads whatever bytes a connection has buffered and routes
canonical ``arrive`` lines straight into per-shard item columns
(:func:`~repro.serve.protocol.parse_chunk`); every other line takes the
per-line path.  Over a simulated network with a virtual clock (so each
run is deterministic):

- a pipelined sample split at every byte offset gets the replies it
  gets in one write;
- one write mixing canonical arrives with every other kind of line gets,
  byte for byte (``latency_us`` masked), the replies the line-at-a-time
  reader gave, recorded in ``data/chunk_replies.json``;
- with ``max_queue=1`` and a stalled shard, exactly the rows that
  reader refused are answered ``overloaded``;
- a canonical ``arrive`` line builds no ``Request`` and leaves no
  per-request entry in its batcher.

``record()`` rebuilds the fixture: run it with a tree whose reader is
the reference on ``sys.path``.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import re

from repro.algorithms import FirstFit
from repro.serve import protocol
from repro.serve.loadgen import shard_affine_tenants
from repro.serve.server import PlacementServer, ServeConfig
from repro.testkit import SimNet, sim_run

FIXTURE = pathlib.Path(__file__).parent / "data" / "chunk_replies.json"

#: a non-clairvoyant algorithm, so adaptive arrives and departs work
REGISTRY = {"FirstFit-nc": lambda: FirstFit(clairvoyant=False)}


def arrive(seq, arrival, departure, size, *, id_=None, tenant=None) -> bytes:
    """A canonical ``arrive`` line (compact, the benchmark's key order)."""
    tenant = "" if tenant is None else f'"tenant":"{tenant}",'
    return (
        f'{{"op":"arrive","id":{seq if id_ is None else id_},{tenant}'
        f'"arrival":{arrival!r},"departure":{departure!r},"size":{size!r},'
        f'"seq":{seq}}}\n'
    ).encode()


#: a tenant routed to each of two shards
A, B = shard_affine_tenants(2, 2)

#: every kind of line, in one write; the over-long line closes the
#: connection, so it comes last
MIX = [
    arrive(1, 0.0, 4.0, 0.5, tenant=A),
    arrive(2, 0.0, 3.0, 0.25, tenant=B),
    # spaced and reordered keys, a string id
    b'{"size": 0.25, "seq": 3, "op": "arrive", "arrival": 0.5, '
    b'"id": "job-3", "departure": 2.0, "tenant": "%s"}\n' % A.encode(),
    # a string seq
    b'{"op":"arrive","id":4,"tenant":"%s","arrival":0.5,"departure":3.0,'
    b'"size":0.125,"seq":"s4"}\n' % B.encode(),
    # a dedup key, then its resend
    b'{"op":"arrive","id":5,"arrival":1.0,"departure":5.0,"size":0.3,'
    b'"seq":5,"client":"c"}\n',
    b'{"op":"arrive","id":5,"arrival":1.0,"departure":5.0,"size":0.3,'
    b'"seq":5,"client":"c"}\n',
    # an adaptive item (unknown departure), departed below
    b'{"op":"arrive","id":"ad","tenant":"%s","arrival":1.0,'
    b'"departure":null,"size":0.2,"seq":6}\n' % A.encode(),
    arrive(7, 1.5, 6.0, 0.75, tenant=B),
    b'{"op":"depart","id":"ad","tenant":"%s","time":2.0,"seq":8}\n'
    % A.encode(),
    arrive(9, 2.0, 2.5, 0.5, tenant=A),
    b'{"op":"advance","time":2.5,"seq":10}\n',
    b'{"op":"ping","seq":11}\n',
    b"\n",
    b'{"op": nope\n',
    # a bad item: departure before arrival
    arrive(12, 3.0, 2.0, 0.5, tenant=A),
    arrive(13, 3.0, 7.0, 0.5, tenant=B),
    arrive(14, 3.5, 8.0, 0.5, tenant=A),
    b'{"op":"ping","seq":15,"pad":"' + b"x" * 70_000 + b'"}\n',
]

#: canonical arrives at one shard, then another write after a pause
OVERLOAD = (
    [arrive(k, float(k), k + 10.0, 0.1) for k in range(1, 6)]
    + [b'{"op": "arrive", "id": 6, "arrival": 6.0, "departure": 16.0, '
       b'"size": 0.1, "seq": 6}\n']
    + [arrive(k, float(k), k + 10.0, 0.1) for k in range(7, 10)],
    [arrive(k, float(k), k + 10.0, 0.1) for k in range(10, 16)],
)

#: the server configurations each scenario runs under
CONFIGS = {
    "unbatched": {},
    "batched": {"batch_max": 4, "batch_delay": 0.0005},
}


def _mask(out: bytes) -> bytes:
    return re.sub(rb'"latency_us":[-+.0-9eE]+', b'"latency_us":0', out)


async def _exchange(writes, *, pause: float = 0.001, stall: float = 0.0,
                    **config) -> bytes:
    """Send ``writes`` (each one write, ``pause`` virtual seconds apart)
    on one connection, close it, and return every reply byte, masked.
    ``stall`` parks the first shard's worker until that loop time."""
    net = SimNet()
    server = PlacementServer(
        ServeConfig(algorithm="FirstFit-nc", ledger_dir=None, **config),
        registry=REGISTRY,
        transport=net,
        clock=asyncio.get_running_loop().time,
    )
    await server.start()
    if stall:
        server.shards[0].stall(stall)
    reader, writer = await net.open_connection("sim", server.port)
    for k, data in enumerate(writes):
        if k:
            await asyncio.sleep(pause)
        writer.write(data)
    writer.close()
    out = await reader.read()
    await server.drain()
    return _mask(out)


def mix_replies(name: str) -> bytes:
    return sim_run(_exchange([b"".join(MIX)], shards=2, **CONFIGS[name]))


def overload_replies(name: str) -> bytes:
    return sim_run(_exchange(
        [b"".join(w) for w in OVERLOAD], pause=0.1, stall=0.5,
        max_queue=1, **CONFIGS[name],
    ))


def record() -> None:
    """Write the fixture from the reader on ``sys.path``."""
    FIXTURE.write_text(json.dumps({
        f"{kind}-{name}": replies(name).decode()
        for kind, replies in (("mix", mix_replies),
                              ("overload", overload_replies))
        for name in CONFIGS
    }, indent=1) + "\n")


def _fixture(key: str) -> bytes:
    return json.loads(FIXTURE.read_text())[key].encode()


def _lines(out: bytes):
    return [json.loads(line) for line in out.splitlines()]


class TestSplitReads:
    SAMPLE = (
        arrive(1, 0.0, 2.0, 0.5)
        + b'{"seq": "s2", "op": "arrive", "id": 2, "arrival": 0.5, '
        b'"departure": 1.5, "size": 0.25}\n'
        + b'{"op":"ping","seq":3}\n'
    )

    def test_every_split_gets_the_same_replies(self):
        whole = sorted(sim_run(_exchange([self.SAMPLE])).splitlines())
        assert len(whole) == 3
        for cut in range(1, len(self.SAMPLE)):
            split = sim_run(_exchange(
                [self.SAMPLE[:cut], self.SAMPLE[cut:]]
            ))
            assert sorted(split.splitlines()) == whole, cut

    def test_a_last_line_without_newline_is_served(self):
        out = sim_run(_exchange([self.SAMPLE.rstrip(b"\n")]))
        assert sorted(out.splitlines()) == sorted(
            sim_run(_exchange([self.SAMPLE])).splitlines()
        )


class TestMixedChunk:
    def test_unbatched_replies_equal_the_line_reader(self):
        assert mix_replies("unbatched") == _fixture("mix-unbatched")

    def test_batched_replies_equal_the_line_reader(self):
        assert mix_replies("batched") == _fixture("mix-batched")

    def test_the_mix_is_answered_in_full(self):
        replies = _lines(mix_replies("unbatched"))
        # every non-blank line gets one reply; the over-long one is
        # answered without its seq, and closes the connection
        assert len(replies) == len(MIX) - 1
        errors = {r.get("seq"): r for r in replies if not r["ok"]}
        assert errors[12]["error"] == "bad-item"
        assert errors[None]["error"] == "bad-request"
        assert "too long" in errors[None]["message"]
        assert sum(r.get("error") == "bad-json" for r in replies) == 1


class TestOverload:
    def test_refusals_equal_the_line_reader(self):
        for name in CONFIGS:
            out = overload_replies(name)
            assert out == _fixture(f"overload-{name}"), name
            refused = [
                r["seq"] for r in _lines(out)
                if r.get("error") == "overloaded"
            ]
            assert refused, name  # the stall backs the queue up


class TestNoRequestPerLine:
    def test_canonical_arrives_build_no_request(self, monkeypatch):
        built = []

        class Counted(protocol.Request):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(protocol, "Request", Counted)
        lines = [arrive(k, float(k), k + 5.0, 0.25) for k in range(1, 41)]
        out = sim_run(_exchange([b"".join(lines)], batch_max=16,
                                batch_delay=0.0005))
        assert [r["seq"] for r in _lines(out)] == list(range(1, 41))
        assert built == []
        # a line the chunk parse leaves to parse_request builds one
        sim_run(_exchange([b'{"op":"arrive","id":1,"arrival":0,'
                           b'"departure":1,"size":0.5,"seq":"x"}\n']))
        assert built == [1]

    def test_the_batcher_holds_columns_not_entries(self):
        from repro.serve.shard import RequestBatch

        async def main():
            net = SimNet()
            server = PlacementServer(
                ServeConfig(ledger_dir=None, batch_max=16,
                            batch_delay=60.0),
                transport=net, clock=asyncio.get_running_loop().time,
            )
            await server.start()
            reader, writer = await net.open_connection("sim", server.port)
            writer.write(b"".join(
                arrive(k, float(k), k + 5.0, 0.25) for k in range(1, 41)
            ))
            await asyncio.sleep(0.001)
            batcher = server.batchers[0]
            pending = batcher.pending
            # 40 rows at batch-max 16: jobs of 16 and 16, 8 pending
            state = (type(pending), len(pending), pending.reqs,
                     list(pending.seqs), batcher.batches_flushed)
            writer.close()
            await reader.read()
            await server.drain()
            return state

        kind, rows, reqs, seqs, flushed = sim_run(main())
        assert kind is RequestBatch
        assert (rows, reqs, seqs, flushed) == (8, {}, list(range(33, 41)), 2)


class TestRequestBatchOrder:
    def test_sort_orders_rows_by_arrival_and_keeps_them_whole(self):
        from repro.serve.shard import RequestBatch

        batch = RequestBatch()
        kept = protocol.Request("arrive", 3, "3", None, 2.0, None, 0.5)
        for arrival, seq in [(2.0, 1), (1.0, 2), (2.0, 3), (1.0, 4)]:
            if seq == 3:  # a row that came through parse_request
                batch.add_request(kept, f"c{seq}", float(seq))
                continue
            batch.arrivals.append(arrival)
            batch.departures.append(arrival + seq)
            batch.sizes.append(seq / 10)
            batch.seqs.append(seq)
            batch.ids.append(str(seq))
            batch.conns.append(f"c{seq}")
            batch.ctxs.append(float(seq))
        batch.sort()
        # by arrival, ties in submit order, every column moved together
        assert list(batch.arrivals) == [1.0, 1.0, 2.0, 2.0]
        assert batch.seqs == [2, 4, 1, 3]
        assert batch.ids == ["2", "4", "1", "3"]
        assert batch.conns == ["c2", "c4", "c1", "c3"]
        assert batch.ctxs == [2.0, 4.0, 1.0, 3.0]
        assert list(batch.sizes)[:3] == [0.2, 0.4, 0.1]
        assert list(batch.departures)[:3] == [3.0, 5.0, 3.0]
        assert batch.reqs == {3: kept}
