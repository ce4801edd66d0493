"""Shards: hash-ring routing, kernel semantics over the wire-free API."""

from __future__ import annotations

import asyncio
import collections

import pytest

from repro import FirstFit
from repro.serve.protocol import Request, parse_request
from repro.serve.shard import HashRing, PlacementShard, stable_hash


class TestStableHash:
    def test_deterministic_and_64bit(self):
        assert stable_hash("acme") == stable_hash("acme")
        assert 0 <= stable_hash("acme") < 2**64

    def test_distinct_keys_differ(self):
        assert stable_hash("a") != stable_hash("b")


class TestHashRing:
    def test_single_shard_shortcut(self):
        ring = HashRing(1)
        assert ring.shard_for("anything") == 0

    def test_stable_across_instances(self):
        a, b = HashRing(4), HashRing(4)
        keys = [f"tenant-{i}" for i in range(200)]
        assert [a.shard_for(k) for k in keys] == [b.shard_for(k) for k in keys]

    def test_all_shards_reachable_and_roughly_balanced(self):
        ring = HashRing(4)
        counts = collections.Counter(
            ring.shard_for(f"k{i}") for i in range(4000)
        )
        assert set(counts) == {0, 1, 2, 3}
        assert min(counts.values()) > 4000 / 4 / 4  # no starved shard

    def test_growing_the_ring_moves_few_keys(self):
        # the consistent-hashing property: going 4 -> 5 shards remaps
        # roughly 1/5 of keys, not all of them (mod-hashing would move ~4/5)
        small, big = HashRing(4), HashRing(5)
        keys = [f"k{i}" for i in range(2000)]
        moved = sum(
            small.shard_for(k) != big.shard_for(k) for k in keys
        )
        assert moved < len(keys) / 2

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            HashRing(0)


def arrive(id, arrival, departure, size, seq=None) -> Request:
    return Request(op="arrive", seq=seq, id=str(id), arrival=arrival,
                   departure=departure, size=size)


class TestShardApply:
    @pytest.mark.parametrize("metrics", [True, False])
    def test_arrive_places_and_reports_bin(self, metrics):
        # ``opened`` is the shard's own bins_opened delta, metered or not
        shard = PlacementShard(0, FirstFit(), metrics=metrics)
        r1 = shard.apply(arrive(1, 0.0, 4.0, 0.6, seq=11))
        r2 = shard.apply(arrive(2, 0.0, 4.0, 0.6))
        assert r1["ok"] and r1["opened"] and r1["seq"] == 11
        assert r2["ok"] and r2["opened"]
        assert r1["bin"] != r2["bin"]  # 0.6 + 0.6 > capacity
        r3 = shard.apply(arrive(3, 1.0, 2.0, 0.3))
        assert r3["bin"] == r1["bin"] and not r3["opened"]
        assert shard.accepted == 3

    def test_out_of_order_arrival_is_rejected_not_fatal(self):
        shard = PlacementShard(0, FirstFit())
        shard.apply(arrive(1, 5.0, 9.0, 0.5))
        reply = shard.apply(arrive(2, 1.0, 2.0, 0.5))
        assert not reply["ok"]
        assert reply["error"] == "out-of-order"
        assert reply["clock"] == 5.0
        assert shard.rejected == 1
        # the shard keeps serving
        assert shard.apply(arrive(3, 6.0, 7.0, 0.5))["ok"]

    def test_adaptive_arrive_needs_non_clairvoyant_algorithm(self):
        shard = PlacementShard(0, FirstFit())  # clairvoyant by default
        reply = shard.apply(arrive("job", 0.0, None, 0.5))
        assert reply["error"] == "bad-item"
        assert "unknown departure" in reply["message"]

    def test_rejected_adaptive_arrive_leaves_the_clock(self):
        shard = PlacementShard(0, FirstFit())  # clairvoyant
        assert shard.apply(arrive("a", 0.0, 1.0, 0.5))["ok"]
        reply = shard.apply(arrive("b", 5.0, None, 0.5))
        assert reply["error"] == "bad-item"
        stats = shard.stats()
        assert stats["time"] == 0.0  # the rejected arrive moved nothing
        assert stats["departures"] == 0 and stats["open_bins"] == 1
        # an arrival between the two is still in order
        assert shard.apply(arrive("c", 2.0, 3.0, 0.5))["ok"]

    def test_adaptive_arrive_then_explicit_depart(self):
        shard = PlacementShard(0, FirstFit(clairvoyant=False))
        assert shard.apply(arrive("job", 0.0, None, 0.5))["ok"]
        assert shard.stats()["live_adaptive"] == 1
        reply = shard.apply(Request(op="depart", id="job", time=2.0))
        assert reply["ok"]
        assert shard.stats()["live_adaptive"] == 0
        assert shard.engine.kernel.departures == 1

    def test_duplicate_live_adaptive_id_rejected(self):
        shard = PlacementShard(0, FirstFit(clairvoyant=False))
        shard.apply(arrive("job", 0.0, None, 0.5))
        reply = shard.apply(arrive("job", 1.0, None, 0.5))
        assert reply["error"] == "duplicate-id"
        # ...but the id is reusable once the first item departed
        shard.apply(Request(op="depart", id="job", time=2.0))
        assert shard.apply(arrive("job", 3.0, None, 0.5))["ok"]

    def test_depart_unknown_id(self):
        shard = PlacementShard(0, FirstFit())
        reply = shard.apply(Request(op="depart", id="ghost", time=1.0))
        assert reply["error"] == "unknown-item"

    def test_scheduled_departures_happen_via_advance(self):
        shard = PlacementShard(0, FirstFit())
        shard.apply(arrive(1, 0.0, 2.0, 0.5))
        assert shard.stats()["open_bins"] == 1
        reply = shard.apply(Request(op="advance", time=10.0))
        assert reply["ok"]
        stats = shard.stats()
        assert stats["open_bins"] == 0
        assert stats["departures"] == 1
        assert stats["cost"] == pytest.approx(2.0)

    def test_advance_backwards_rejected(self):
        shard = PlacementShard(0, FirstFit())
        shard.apply(Request(op="advance", time=5.0))
        reply = shard.apply(Request(op="advance", time=1.0))
        assert reply["error"] == "out-of-order"

    def test_unexpected_failure_becomes_internal_error(self):
        class Exploding:
            clairvoyant = True

            def reset(self):
                pass

            def place(self, item, sim):
                raise RuntimeError("kaboom")

        shard = PlacementShard(0, Exploding())
        reply = shard.apply(arrive(1, 0.0, 1.0, 0.5))
        assert not reply["ok"]
        assert reply["error"] == "internal"
        assert "kaboom" in reply["message"]

    def test_wire_parsed_request_round_trip(self):
        shard = PlacementShard(0, FirstFit())
        req = parse_request(
            '{"op": "arrive", "id": 5, "arrival": 0, "size": 0.25, '
            '"departure": 8}'
        )
        assert shard.apply(req)["ok"]


class TestWorker:
    def test_worker_preserves_queue_order_and_sets_futures(self):
        async def main():
            shard = PlacementShard(0, FirstFit())
            shard.start()
            loop = asyncio.get_running_loop()
            jobs = []
            for k in range(6):
                fut = loop.create_future()
                jobs.append(fut)
                await shard.queue.put(
                    [(arrive(k, float(k), k + 1.5, 0.9), fut, None)]
                )
            replies = [await fut for fut in jobs]
            await shard.stop()
            return replies

        replies = asyncio.run(main())
        assert all(r["ok"] for r in replies)
        # 0.9-size items never share: bins open in arrival order
        assert [r["bin"] for r in replies] == sorted(
            r["bin"] for r in replies
        )

    def test_stop_processes_backlog_first(self):
        async def main():
            shard = PlacementShard(0, FirstFit())
            loop = asyncio.get_running_loop()
            futs = []
            for k in range(4):
                fut = loop.create_future()
                futs.append(fut)
                await shard.queue.put(
                    [(arrive(k, 0.0, 1.0, 0.2), fut, None)]
                )
            shard.start()
            await shard.stop()  # must drain the 4 queued jobs before exit
            assert all(f.done() for f in futs)
            return shard.stats()["items"]

        assert asyncio.run(main()) == 4


class TestShardCheckpoint:
    def test_restore_continues_bit_for_bit(self, tmp_path):
        # two shards fed identically, one through a checkpoint boundary:
        # their remaining decision streams must be identical
        reference = PlacementShard(0, FirstFit())
        cut = PlacementShard(0, FirstFit())
        head = [arrive(k, float(k) / 2, float(k) / 2 + 3.0, 0.3)
                for k in range(20)]
        tail = [arrive(20 + k, 10.0 + k / 2, 14.0 + k / 2, 0.3)
                for k in range(20)]
        for req in head:
            assert reference.apply(req)["ok"]
            assert cut.apply(req)["ok"]
        path = cut.checkpoint(tmp_path / "shard.ckpt")
        restored = PlacementShard.restore(0, path)
        def decisions(replies):
            # drop the one wall-clock field; everything else is logical
            return [
                {k: v for k, v in r.items() if k != "latency_us"}
                for r in replies
            ]

        tail_a = decisions(reference.apply(req) for req in tail)
        tail_b = decisions(restored.apply(req) for req in tail)
        assert tail_a == tail_b
        assert restored.accepted == 40
        ref_stats = reference.stats()
        res_stats = restored.stats()
        for key in ("items", "departures", "open_bins", "bins_opened",
                    "max_open", "cost", "time", "accepted"):
            assert res_stats[key] == ref_stats[key], key

    def test_adaptive_ids_survive_restore(self, tmp_path):
        shard = PlacementShard(0, FirstFit(clairvoyant=False))
        shard.apply(arrive("a", 0.0, None, 0.5))
        shard.apply(arrive("b", 0.0, None, 0.3))
        path = shard.checkpoint(tmp_path / "shard.ckpt")
        restored = PlacementShard.restore(0, path)
        assert restored.stats()["live_adaptive"] == 2
        assert restored.apply(
            Request(op="depart", id="a", time=1.0)
        )["ok"]
        # unknown ids still rejected after restore
        assert restored.apply(
            Request(op="depart", id="zz", time=1.0)
        )["error"] == "unknown-item"

    def test_sidecar_written_next_to_checkpoint(self, tmp_path):
        shard = PlacementShard(3, FirstFit())
        shard.apply(arrive(1, 0.0, 1.0, 0.5))
        path = shard.checkpoint(tmp_path / "s.ckpt")
        sidecar = path.with_suffix(path.suffix + ".meta.json")
        assert sidecar.exists()
        import json

        meta = json.loads(sidecar.read_text())
        assert meta["shard"] == 3
        assert meta["accepted"] == 1
