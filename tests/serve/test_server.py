"""The placement server end-to-end: real sockets, in-process loop."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve import (
    PlacementClient,
    PlacementServer,
    ServeConfig,
)
from repro.serve.protocol import encode


def run(coro):
    return asyncio.run(coro)


async def started(config: ServeConfig) -> PlacementServer:
    server = PlacementServer(config)
    await server.start()
    return server


class TestRoundTrip:
    def test_ping_stats_arrive(self):
        async def main():
            server = await started(ServeConfig())
            client = await PlacementClient.connect("127.0.0.1", server.port)
            pong = await client.ping()
            assert pong["ok"] and pong["v"] == 1
            reply = await client.arrive(1, arrival=0.0, departure=4.0,
                                        size=0.5)
            assert reply["ok"] and reply["opened"] and reply["shard"] == 0
            stats = await client.stats()
            assert stats["totals"]["accepted"] == 1
            assert stats["totals"]["open_bins"] == 1
            assert stats["algorithm"] == "HybridAlgorithm"
            await client.aclose()
            await server.drain()

        run(main())

    def test_pipelined_replies_correlate_by_seq(self):
        async def main():
            server = await started(ServeConfig(shards=4))
            client = await PlacementClient.connect("127.0.0.1", server.port)
            futures = [
                client.submit(
                    {"op": "arrive", "id": k, "tenant": f"t{k}",
                     "arrival": 0.0, "departure": 1.0, "size": 0.5}
                )
                for k in range(40)
            ]
            await client.drain_writes()
            replies = await asyncio.gather(*futures)
            assert all(r["ok"] for r in replies)
            assert [r["id"] for r in replies] == [str(k) for k in range(40)]
            # several shards actually participated
            assert len({r["shard"] for r in replies}) > 1
            await client.aclose()
            await server.drain()

        run(main())

    def test_same_tenant_same_shard(self):
        async def main():
            server = await started(ServeConfig(shards=4))
            client = await PlacementClient.connect("127.0.0.1", server.port)
            shards = set()
            for k in range(10):
                reply = await client.arrive(
                    k, arrival=float(k), size=0.3, departure=k + 1.0,
                    tenant="sticky",
                )
                shards.add(reply["shard"])
            assert len(shards) == 1
            await client.aclose()
            await server.drain()

        run(main())

    def test_advance_broadcasts_to_every_shard(self):
        async def main():
            server = await started(ServeConfig(shards=3))
            client = await PlacementClient.connect("127.0.0.1", server.port)
            for k in range(6):
                await client.arrive(k, arrival=0.0, departure=2.0,
                                    size=0.4, tenant=f"t{k}")
            reply = await client.advance(5.0)
            assert reply["ok"] and reply["shards"] == 3
            stats = await client.stats()
            assert stats["totals"]["open_bins"] == 0
            assert stats["totals"]["departures"] == 6
            await client.aclose()
            await server.drain()

        run(main())


class TestWireErrors:
    async def raw_exchange(self, server, *lines: bytes):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        for line in lines:
            writer.write(line)
        await writer.drain()
        replies = [
            json.loads(await reader.readline()) for _ in lines if line
        ]
        writer.close()
        await writer.wait_closed()
        return replies

    def test_garbage_line_gets_structured_reply_and_keeps_connection(self):
        async def main():
            server = await started(ServeConfig())
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"this is not json\n")
            reply = json.loads(await reader.readline())
            assert reply["ok"] is False and reply["error"] == "bad-json"
            # connection still alive: a valid request works afterwards
            writer.write(encode({"op": "ping", "seq": 2}))
            reply = json.loads(await reader.readline())
            assert reply["ok"] is True and reply["seq"] == 2
            writer.close()
            await writer.wait_closed()
            await server.drain()

        run(main())

    def test_blank_lines_are_skipped(self):
        async def main():
            server = await started(ServeConfig())
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"\n  \n" + encode({"op": "ping", "seq": 1}))
            reply = json.loads(await reader.readline())
            assert reply["seq"] == 1
            writer.close()
            await writer.wait_closed()
            await server.drain()

        run(main())

    def test_out_of_range_integers_get_structured_replies(self):
        # a JSON integer beyond float range in a number field, and one
        # too long for ``json`` to parse at all: each gets one error
        # reply and the connection keeps serving
        huge = "1" + "0" * 400
        too_long = "1" * 5000
        lines = [
            ('{"op":"arrive","id":1,"seq":1,"arrival":%s,'
             '"departure":2.0,"size":0.5}\n' % huge).encode(),
            ('{"op":"arrive","id":2,"seq":2,"arrival":0.0,'
             '"departure":%s,"size":0.5}\n' % too_long).encode(),
        ]

        async def main():
            server = await started(ServeConfig())
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            replies = []
            for line in lines:
                writer.write(line)
                writer.write(encode({"op": "ping", "seq": "p"}))
                replies.append([
                    json.loads(await asyncio.wait_for(reader.readline(), 5))
                    for _ in range(2)
                ])
            writer.close()
            await writer.wait_closed()
            await server.drain()
            return replies

        (bad_number, ping1), (bad_json, ping2) = run(main())
        assert bad_number["ok"] is False
        assert bad_number["error"] == "bad-request"
        assert bad_number["seq"] == 1
        assert bad_json["ok"] is False and bad_json["error"] == "bad-json"
        assert ping1["ok"] and ping1["seq"] == "p"
        assert ping2["ok"] and ping2["seq"] == "p"

    def test_unknown_algorithm_rejected_at_construction(self):
        with pytest.raises(ValueError, match="Sorter"):
            PlacementServer(ServeConfig(algorithm="Sorter"))

    def test_error_codes_counted_in_totals(self):
        async def main():
            server = await started(ServeConfig())
            client = await PlacementClient.connect("127.0.0.1", server.port)
            reply = await client.arrive(1, arrival=5.0, departure=9.0,
                                        size=0.5)
            assert reply["ok"]
            reply = await client.arrive(2, arrival=1.0, departure=2.0,
                                        size=0.5)
            assert reply["error"] == "out-of-order"
            stats = await client.stats()
            assert stats["totals"]["error_codes"] == {"out-of-order": 1}
            await client.aclose()
            await server.drain()

        run(main())


class TestBackpressure:
    def test_full_queue_answers_overloaded_with_retry_after(self):
        async def main():
            server = await started(ServeConfig(max_queue=2))
            # stall the single shard so its queue backs up
            blocker = asyncio.Event()

            async def stall():
                await blocker.wait()

            shard = server.shards[0]
            # wake-up job: an empty batch
            await shard.queue.put(
                ((), None, asyncio.get_running_loop().create_future())
            )
            real_get = shard.queue.get

            async def slow_get():
                job = await real_get()
                if not blocker.is_set():
                    await blocker.wait()
                return job

            shard.queue.get = slow_get
            client = await PlacementClient.connect("127.0.0.1", server.port)
            futures = []
            for k in range(6):
                futures.append(
                    client.submit(
                        {"op": "arrive", "id": k, "arrival": 0.0,
                         "departure": 1.0, "size": 0.1}
                    )
                )
                await client.drain_writes()
                await asyncio.sleep(0.005)
            blocker.set()
            replies = await asyncio.gather(*futures)
            rejected = [r for r in replies if not r.get("ok")]
            assert rejected, "expected overloaded replies"
            assert {r["error"] for r in rejected} == {"overloaded"}
            assert all(r["retry_after"] > 0 for r in rejected)
            accepted = [r for r in replies if r.get("ok")]
            assert accepted, "some requests must still be served"
            await client.aclose()
            shard.queue.get = real_get
            await server.drain()

        run(main())


class TestDrain:
    def test_draining_refuses_new_work_but_answers_stats(self):
        async def main():
            server = await started(ServeConfig())
            client = await PlacementClient.connect("127.0.0.1", server.port)
            await client.arrive(1, arrival=0.0, departure=2.0, size=0.5)
            server.draining = True  # freeze the flag without closing yet
            reply = await client.arrive(2, arrival=1.0, departure=2.0,
                                        size=0.5)
            assert reply["error"] == "draining"
            stats = await client.stats()
            assert stats["ok"] and stats["draining"] is True
            await client.aclose()
            server.draining = False
            await server.drain()

        run(main())

    def test_drain_flushes_pending_microbatches(self):
        async def main():
            server = await started(
                ServeConfig(batch_max=64, batch_delay=30.0)
            )
            client = await PlacementClient.connect("127.0.0.1", server.port)
            futures = [
                client.submit(
                    {"op": "arrive", "id": k, "arrival": 0.0,
                     "departure": 1.0, "size": 0.2}
                )
                for k in range(5)
            ]
            await client.drain_writes()
            await asyncio.sleep(0.05)
            # far below batch_max and far before the age bound: the
            # requests are parked in the batcher, replies pending
            assert sum(f.done() for f in futures) == 0
            await server.drain()
            replies = await asyncio.gather(*futures)
            assert all(r["ok"] for r in replies)
            assert server.totals()["accepted"] == 5
            await client.aclose()

        run(main())

    def test_drain_is_idempotent(self):
        async def main():
            server = await started(ServeConfig())
            await server.drain()
            await server.drain()
            assert server.drained.is_set()

        run(main())

    def test_ledger_record_written_on_drain(self, tmp_path):
        async def main():
            server = await started(
                ServeConfig(ledger_dir=tmp_path / "ledger")
            )
            client = await PlacementClient.connect("127.0.0.1", server.port)
            await client.arrive(1, arrival=0.0, departure=2.0, size=0.5)
            await client.aclose()
            await server.drain()
            return server.ledger_path

        path = run(main())
        record = json.loads(path.read_text())
        assert record["kind"] == "serve"
        assert record["algorithm"] == "HybridAlgorithm"
        assert record["config"]["shards"] == 1
        assert record["config"]["resumed"] is False
        assert record["metrics"]["service"]["accepted"] == 1
        assert "request_latency" in record["metrics"]["timings"]


class TestCheckpointResume:
    """Kill a server mid-stream; the resumed one must not miss a beat."""

    @staticmethod
    async def feed(client, uids, tenant="t"):
        replies = []
        for uid in uids:
            replies.append(
                await client.arrive(
                    uid, arrival=float(uid), departure=uid + 5.0,
                    size=0.35, tenant=tenant,
                )
            )
        return replies

    def test_drain_then_resume_continues_bit_for_bit(self, tmp_path):
        async def main():
            ckpt_dir = tmp_path / "ckpts"
            # reference: one uninterrupted server over all 30 items
            ref = await started(ServeConfig(shards=2))
            ref_client = await PlacementClient.connect(
                "127.0.0.1", ref.port
            )
            ref_replies = await self.feed(ref_client, range(30), "a")
            ref_stats = await ref_client.stats()
            await ref_client.aclose()
            await ref.drain()

            # interrupted twin: drain (checkpoint) after 18, then resume
            first = await started(
                ServeConfig(shards=2, checkpoint_dir=ckpt_dir)
            )
            client = await PlacementClient.connect("127.0.0.1", first.port)
            head = await self.feed(client, range(18), "a")
            await client.aclose()
            await first.drain()
            assert sorted(p.name for p in ckpt_dir.glob("*.ckpt")) == [
                "shard-0.ckpt", "shard-1.ckpt",
            ]

            second = await started(
                ServeConfig(
                    shards=2, checkpoint_dir=ckpt_dir, resume=True
                )
            )
            client = await PlacementClient.connect(
                "127.0.0.1", second.port
            )
            tail = await self.feed(client, range(18, 30), "a")
            stats = await client.stats()
            await client.aclose()
            await second.drain()
            return ref_replies, ref_stats, head + tail, stats

        ref_replies, ref_stats, replies, stats = run(main())

        def logical(rs):
            # seq is client-connection bookkeeping, latency is wall-clock;
            # everything else is the placement decision itself
            return [
                {k: v for k, v in r.items()
                 if k not in ("latency_us", "seq")}
                for r in rs
            ]

        assert logical(replies) == logical(ref_replies)
        for key in ("items", "departures", "open_bins", "bins_opened",
                    "max_open", "cost", "accepted"):
            assert stats["totals"][key] == ref_stats["totals"][key], key

    def test_no_accepted_item_is_lost_across_drain(self, tmp_path):
        async def main():
            ckpt_dir = tmp_path / "ckpts"
            first = await started(
                ServeConfig(checkpoint_dir=ckpt_dir,
                            batch_max=16, batch_delay=30.0)
            )
            client = await PlacementClient.connect(
                "127.0.0.1", first.port
            )
            # park 7 accepted-but-unflushed requests in the micro-batcher,
            # then drain: every one must be decided and checkpointed
            futures = [
                client.submit(
                    {"op": "arrive", "id": k, "arrival": 0.0,
                     "departure": 9.0, "size": 0.1}
                )
                for k in range(7)
            ]
            await client.drain_writes()
            await asyncio.sleep(0.05)
            await first.drain()
            replies = await asyncio.gather(*futures)
            assert all(r["ok"] for r in replies)
            await client.aclose()
            before = first.totals()

            resumed = await started(
                ServeConfig(checkpoint_dir=ckpt_dir, resume=True)
            )
            client = await PlacementClient.connect(
                "127.0.0.1", resumed.port
            )
            stats = await client.stats()
            await client.aclose()
            await resumed.drain()
            return before, stats

        before, stats = run(main())
        assert before["items"] == 7  # all 7 decided during the drain
        assert stats["totals"]["items"] == 7
        assert stats["totals"]["accepted"] == 7
        # the resumed fleet carries the drained fleet's state exactly
        for key in ("departures", "open_bins", "bins_opened", "max_open",
                    "cost"):
            assert stats["totals"][key] == before[key], key

    def test_resumed_server_stamps_ledger(self, tmp_path):
        async def main():
            config = ServeConfig(
                checkpoint_dir=tmp_path / "ck",
                ledger_dir=tmp_path / "ledger",
            )
            first = await started(config)
            client = await PlacementClient.connect(
                "127.0.0.1", first.port
            )
            await client.arrive(1, arrival=0.0, departure=2.0, size=0.5)
            await client.aclose()
            await first.drain()

            resumed = await started(
                ServeConfig(
                    checkpoint_dir=tmp_path / "ck",
                    ledger_dir=tmp_path / "ledger",
                    resume=True,
                )
            )
            await resumed.drain()
            return first.ledger_path, resumed.ledger_path

        fresh_path, resumed_path = run(main())
        assert json.loads(fresh_path.read_text())["config"]["resumed"] is False
        assert json.loads(resumed_path.read_text())["config"]["resumed"] is True


class TestMetrics:
    def test_merged_metrics_cover_all_shards(self):
        async def main():
            server = await started(ServeConfig(shards=3))
            client = await PlacementClient.connect("127.0.0.1", server.port)
            for k in range(12):
                await client.arrive(k, arrival=0.0, departure=1.0,
                                    size=0.5, tenant=f"t{k}")
            snap = server._metrics_snapshot()
            await client.aclose()
            await server.drain()
            return snap

        snap = run(main())
        assert snap["counters"]["arrivals"] == 12
        assert snap["service"]["accepted"] == 12
        assert snap["timings"]["request_latency"]["total"] == 12

    def test_request_latency_histogram_merges(self):
        async def main():
            server = await started(ServeConfig(shards=2))
            client = await PlacementClient.connect("127.0.0.1", server.port)
            for k in range(8):
                await client.arrive(k, arrival=0.0, departure=1.0,
                                    size=0.5, tenant=f"t{k}")
            merged = server.merged_request_latency()
            await client.aclose()
            await server.drain()
            return merged

        merged = run(main())
        assert merged.total == 8


class TestStatsQueueFields:
    """``{"op": "stats"}`` exposes live queue depth and inflight counts —
    per shard and summed in totals — so an operator (or ``serve top``)
    can see backlog without enabling telemetry."""

    def test_stats_reports_queue_depth_and_inflight(self):
        async def main():
            server = await started(ServeConfig(shards=2))
            client = await PlacementClient.connect("127.0.0.1", server.port)
            stats = await client.stats()
            totals = stats["totals"]
            assert totals["queue_depth"] == 0
            assert totals["inflight"] == 0
            for shard in stats["per_shard"]:
                assert shard["queue_depth"] == 0
                assert shard["inflight"] == 0
            await client.aclose()
            await server.drain()

        run(main())

    def test_inflight_visible_while_a_shard_is_stalled(self):
        async def main():
            server = await started(ServeConfig())
            client = await PlacementClient.connect("127.0.0.1", server.port)
            loop = asyncio.get_running_loop()
            server.shards[0].stall(loop.time() + 0.2)
            future = client.submit({
                "op": "arrive", "id": 1, "arrival": 0.0,
                "departure": 1.0, "size": 0.5,
            })
            await client.drain_writes()
            await asyncio.sleep(0.05)  # parked in the stalled worker
            stats = await client.stats()
            assert stats["totals"]["inflight"] == 1
            assert stats["per_shard"][0]["inflight"] == 1
            reply = await future
            assert reply["ok"]
            stats = await client.stats()
            assert stats["totals"]["inflight"] == 0
            await client.aclose()
            await server.drain()

        run(main())


class TestConnectionClose:
    def test_half_closed_client_still_gets_every_pending_reply(self):
        # the client stops writing while its requests sit in a stalled
        # shard: the server must hold the connection open until each
        # of them is answered, then close it
        async def main():
            server = await started(ServeConfig())
            loop = asyncio.get_running_loop()
            server.shards[0].stall(loop.time() + 0.2)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            for k in range(3):
                writer.write(encode({
                    "op": "arrive", "id": k, "seq": k, "arrival": 0.0,
                    "departure": 1.0, "size": 0.25,
                }))
            writer.write_eof()
            await writer.drain()
            lines = []
            while line := await asyncio.wait_for(reader.readline(), 5):
                lines.append(json.loads(line))
            writer.close()
            await asyncio.sleep(0)
            inflight = server.shards[0].inflight
            open_connections = len(server._connections)
            await server.drain()
            return lines, inflight, open_connections

        lines, inflight, open_connections = run(main())
        assert [r["seq"] for r in lines] == [0, 1, 2]
        assert all(r["ok"] for r in lines)
        assert inflight == 0 and open_connections == 0


    def test_cancelled_handler_does_not_wait_for_a_stalled_shard(self):
        # loop teardown cancels connection handlers while a shard still
        # owes them replies: the handler must close and finish at once
        async def main():
            server = await started(ServeConfig())
            loop = asyncio.get_running_loop()
            server.shards[0].stall(loop.time() + 1.5)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(encode({
                "op": "arrive", "id": 0, "seq": 0, "arrival": 0.0,
                "departure": 1.0, "size": 0.25,
            }))
            await writer.drain()
            while server.shards[0].inflight == 0:
                await asyncio.sleep(0.01)
            handlers = [
                task for task in asyncio.all_tasks()
                if "_handle_connection" in task.get_coro().__qualname__
            ]
            assert len(handlers) == 1
            handlers[0].cancel()
            done, _ = await asyncio.wait(handlers, timeout=0.5)
            finished = handlers[0] in done
            writer.close()
            await server.drain()
            return finished, handlers[0].cancelled()

        finished, cancelled = run(main())
        assert finished and cancelled


class TestBatchCompletion:
    def test_a_batch_from_two_connections_answers_each_its_own(self):
        # one shard, one micro-batch holding both clients' arrivals: the
        # batch completes once, and each connection gets only its replies
        async def main():
            server = await started(ServeConfig(batch_max=8, batch_delay=5.0))
            clients = [
                await PlacementClient.connect("127.0.0.1", server.port)
                for _ in range(2)
            ]
            futures = {0: [], 1: []}
            for k in range(8):
                c = k % 2
                futures[c].append(clients[c].submit(
                    {"op": "arrive", "id": f"c{c}-{k}", "arrival": 0.0,
                     "departure": 1.0, "size": 0.1}
                ))
                await clients[c].drain_writes()
                await asyncio.sleep(0.01)  # the server reads in order
            try:
                replies = {
                    c: await asyncio.wait_for(asyncio.gather(*futs), 5)
                    for c, futs in futures.items()
                }
            except asyncio.TimeoutError:
                replies = None  # a client never got (all) its replies
            finally:
                for client in clients:
                    await client.aclose()
            flushed = server.batchers[0].batches_flushed
            await server.drain()
            return replies, flushed

        replies, flushed = run(main())
        assert replies is not None and flushed == 1
        for c in (0, 1):
            assert [r["id"] for r in replies[c]] == [
                f"c{c}-{k}" for k in range(c, 8, 2)
            ]
            assert all(r["ok"] for r in replies[c])


    def test_a_batch_mixing_byte_and_dict_replies_on_one_connection(self):
        # one connection, one micro-batch: canonical arrives (replies
        # already wire bytes) next to a string-seq arrive and one without
        # a departure, which a clairvoyant shard refuses (dict replies); every reply arrives in order and the
        # shard serves the next batch
        arrive = (
            b'{"op": "arrive", "seq": %s, "id": "%s", "arrival": %s, '
            b'"departure": 9.0, "size": 0.1}\n'
        )

        async def main():
            server = await started(ServeConfig(batch_max=4, batch_delay=5.0))
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                arrive % (b"1", b"a", b"2.0")
                + arrive % (b'"two"', b"b", b"2.0")
                + arrive % (b"3", b"c", b"2.0")
                + b'{"op": "arrive", "seq": 4, "id": "d", "arrival": 2.0, '
                b'"size": 0.1}\n'
            )
            writer.write(b"".join(
                arrive % (b"%d" % k, b"n%d" % k, b"2.0") for k in range(5, 9)
            ))
            await writer.drain()
            replies = []
            try:
                for _ in range(8):
                    line = await asyncio.wait_for(reader.readline(), 5)
                    replies.append(json.loads(line))
            except asyncio.TimeoutError:
                pass  # a reply never came
            flushed = server.batchers[0].batches_flushed
            writer.close()
            await asyncio.wait_for(server.drain(), 5)
            return replies, flushed

        replies, flushed = run(main())
        assert flushed == 2
        assert [r["seq"] for r in replies] == [1, "two", 3, 4, 5, 6, 7, 8]
        assert [r["ok"] for r in replies] == [
            True, True, True, False, True, True, True, True
        ]
        assert replies[3]["error"] == "bad-item"


class TestLineFraming:
    """Lines split across reads, packed into one, blank or cut off at
    EOF come out one request per line."""

    @staticmethod
    async def _replies(*chunks: bytes) -> list:
        server = await started(ServeConfig())
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        for chunk in chunks:
            writer.write(chunk)
            await writer.drain()
            await asyncio.sleep(0.01)  # let each chunk land on its own
        writer.write_eof()
        replies = []
        while line := await asyncio.wait_for(reader.readline(), 5):
            replies.append(json.loads(line))
        writer.close()
        await server.drain()
        return replies

    def test_split_packed_blank_and_unterminated_lines(self):
        ping = b'{"op": "ping", "seq": %d}\n'
        replies = run(self._replies(
            ping % 1 + ping % 2 + (ping % 3)[:9],  # two and a half
            (ping % 3)[9:] + b"\n  \n",  # the rest, then blank lines
            (ping % 4)[:-1],  # the last line has no newline at EOF
        ))
        assert [r["seq"] for r in replies] == [1, 2, 3, 4]
        assert all(r["ok"] for r in replies)

    def test_lines_before_an_oversized_one_are_answered_first(self):
        ping = b'{"op": "ping", "seq": %d}\n'
        replies = run(self._replies(
            ping % 1 + b"x" * 70_000 + b"\n" + ping % 2
        ))
        assert replies[0]["seq"] == 1 and replies[0]["ok"]
        assert replies[1]["error"] == "bad-request"
        assert "too long" in replies[1]["message"]
        assert len(replies) == 2  # the connection closed after refusing


class TestProfileVerb:
    """The continuous-profiling admin plane: live verb + drain artifact."""

    def test_profile_disabled_by_default(self):
        async def main():
            server = await started(ServeConfig())
            client = await PlacementClient.connect("127.0.0.1", server.port)
            reply = await client.profile()
            await client.aclose()
            await server.drain()
            return reply

        reply = run(main())
        assert reply["ok"] and reply["enabled"] is False
        assert "stats" not in reply

    def test_live_profile_snapshot(self):
        async def main():
            server = await started(ServeConfig(sample_hz=500.0))
            client = await PlacementClient.connect("127.0.0.1", server.port)
            for k in range(200):
                await client.arrive(
                    k, arrival=0.0, departure=1.0, size=0.01
                )
            reply = await client.profile()
            await client.aclose()
            await server.drain()
            return reply

        reply = run(main())
        assert reply["ok"] and reply["enabled"] is True
        assert reply["running"] is True
        assert reply["stats"]["hz"] == 500.0
        assert reply["total_weight"] >= reply["stats"]["samples"]
        for row in reply["top"]:
            assert set(row) == {"name", "file", "line", "self", "cum"}
            assert row["cum"] >= row["self"]

    def test_drain_flushes_artifact_and_stamps_ledger(self, tmp_path):
        from repro.obs.prof import Profile

        async def main():
            server = await started(ServeConfig(
                sample_hz=500.0,
                profile_out=tmp_path / "serve.prof.json",
                ledger_dir=tmp_path / "ledger",
            ))
            client = await PlacementClient.connect("127.0.0.1", server.port)
            for k in range(100):
                await client.arrive(
                    k, arrival=0.0, departure=1.0, size=0.01
                )
            await client.aclose()
            await server.drain()
            return server

        server = run(main())
        assert server.profile_path == tmp_path / "serve.prof.json"
        profile = Profile.read(server.profile_path)
        assert profile.hz == 500.0
        record = json.loads(server.ledger_path.read_text())
        assert record["profile"]["sampler"]["hz"] == 500.0
        assert record["profile"]["artifact"] == str(server.profile_path)
        assert not server.sampler.running
