"""Protocol fuzzing: a storm of malformed frames must never kill anything.

One thousand seeded garbage frames — raw bytes, non-object JSON,
truncated JSON, unknown ops, bad versions, invalid item values, bad
``seq`` types — are thrown at a live :class:`PlacementServer` over
SimNet.  The contract under test:

* every non-blank frame gets exactly **one** structured reply
  (``ok: false`` plus an error code from the protocol's registry);
* frames that carried a well-typed ``seq`` get it **echoed** back, so
  a pipelining client can correlate the rejection;
* the connection survives the whole storm (interleaved pings answer),
  the shard never dies, and fresh connections are still accepted;
* the one fatal input — an oversized line — still gets a structured
  ``bad-request`` reply before the server closes that connection, and
  the listener keeps accepting afterwards.

A second storm sends near-canonical ``arrive`` frames at the edges of
the parser's fast path (reordered, duplicate or escaped fields, leading
zeros, ``-0``, ``1e999``, bools and nulls in number fields, missing
departures, ``\r\n`` endings): each gets exactly one reply, ok or
error, with its ``seq`` echoed.
"""

from __future__ import annotations

import asyncio
import json
import random

from repro.serve.protocol import ERROR_CODES
from repro.serve.server import PlacementServer, ServeConfig
from repro.testkit import SimNet, sim_run

N_FRAMES = 1000


def _fuzz_frames(rng: random.Random, n: int):
    """``n`` seeded malformed frames as ``(wire_bytes, seq_or_None)``."""
    frames = []
    for i in range(n):
        seq = f"fz-{i}"
        kind = rng.randrange(8)
        if kind == 0:  # raw bytes, frequently not even UTF-8
            body = bytes(
                rng.randrange(256) for _ in range(rng.randrange(1, 40))
            ).replace(b"\n", b"?")
            frames.append((body + b"\n", None))
        elif kind == 1:  # valid JSON that is not an object
            doc = rng.choice([b"42", b'"str"', b"[1,2,3]", b"null", b"true"])
            frames.append((doc + b"\n", None))
        elif kind == 2:  # object with no op
            frames.append((_enc({"seq": seq}), seq))
        elif kind == 3:  # unknown op
            frames.append(
                (_enc({"op": f"na-{rng.randrange(100)}", "seq": seq}), seq)
            )
        elif kind == 4:  # unsupported protocol version
            frames.append((_enc({"op": "ping", "v": 99, "seq": seq}), seq))
        elif kind == 5:  # arrive with invalid item semantics
            bad = rng.choice([
                {"op": "arrive", "seq": seq, "id": f"i{i}", "arrival": 0.0,
                 "departure": 1.0, "size": rng.choice([0.0, -1.0, 2.0])},
                {"op": "arrive", "seq": seq, "id": f"i{i}", "arrival": 5.0,
                 "departure": 1.0, "size": 0.5},  # departs before arriving
                {"op": "arrive", "seq": seq, "arrival": 0.0,
                 "departure": 1.0, "size": 0.5},  # missing id
                {"op": "arrive", "seq": seq, "id": f"i{i}",
                 "arrival": "soon", "departure": 1.0, "size": 0.5},
            ])
            frames.append((_enc(bad), seq))
        elif kind == 6:  # truncated JSON (a strict prefix is never valid)
            full = json.dumps({
                "op": "arrive", "seq": seq, "id": f"i{i}",
                "arrival": 0.0, "departure": 1.0, "size": 0.5,
            })
            frames.append(
                (full[: rng.randrange(1, len(full))].encode() + b"\n", None)
            )
        else:  # seq of an un-echoable type
            frames.append((_enc({"op": "ping", "seq": [1, 2]}), None))
    return frames


def _near_canonical_frames(rng: random.Random, n: int):
    """``n`` seeded ``arrive`` frames at the edges of the parser's fast
    path, as ``(wire_bytes, seq_or_None)`` (``None``: the frame is not
    a JSON object with a usable ``seq``, so nothing can be echoed)."""
    frames = []
    for i in range(n):
        seq = f"nc-{i}"
        fields = {
            "op": '"arrive"', "id": str(i), "tenant": '"t0"',
            "arrival": repr(float(i)), "departure": repr(i + 5.0),
            "size": "0.25", "seq": json.dumps(seq),
        }
        kind = rng.randrange(9)
        if kind == 1:  # ids and tenants with \u escapes
            fields["id"] = '"i\\u0041%d"' % i
            fields["tenant"] = '"t\\u0030"'
        elif kind == 2:  # a leading zero, an integer -0, an overflow
            key = rng.choice(["arrival", "departure", "size", "id"])
            fields[key] = rng.choice(["0" + fields[key], "-0", "1e999"])
        elif kind == 3:  # bool or null where a number goes
            key = rng.choice(["arrival", "departure", "size"])
            fields[key] = rng.choice(["true", "false", "null"])
        elif kind == 4:  # no departure: an adaptive item
            del fields["departure"]
        pairs = list(fields.items())
        if kind == 5:  # keys in another order
            rng.shuffle(pairs)
        elif kind == 6:  # a duplicate key
            pairs.insert(rng.randrange(len(pairs)), rng.choice(pairs))
        sep, colon = ",", ":"
        if kind == 7:  # whitespace around the separators
            sep, colon = rng.choice([(", ", ": "), (" , ", " : "),
                                     (",\t", ":\t")])
        end = "\r\n" if kind == 8 or rng.random() < 0.2 else "\n"
        line = ("{" + sep.join(f'"{k}"{colon}{v}' for k, v in pairs)
                + "}" + end).encode()
        try:
            obj = json.loads(line)
        except ValueError:
            obj = None
        echo = obj.get("seq") if isinstance(obj, dict) else None
        frames.append((line, echo))
    return frames


def _enc(obj: dict) -> bytes:
    return json.dumps(obj).encode("utf-8") + b"\n"


async def _start_server(net: SimNet) -> PlacementServer:
    server = PlacementServer(
        ServeConfig(shards=1, ledger_dir=None),
        transport=net,
        clock=asyncio.get_running_loop().time,
    )
    await server.start()
    return server


async def _rpc(reader, writer, obj: dict) -> dict:
    writer.write(_enc(obj))
    return json.loads(await reader.readline())


class TestProtocolFuzz:
    def test_thousand_garbage_frames_all_get_structured_errors(self):
        async def main():
            net = SimNet(seed=0)
            server = await _start_server(net)
            reader, writer = await net.open_connection("sim", server.port)
            rng = random.Random("fuzz-proto-0")
            replies = []
            for k, (frame, seq) in enumerate(
                _fuzz_frames(rng, N_FRAMES)
            ):
                writer.write(frame)
                reply = json.loads(await reader.readline())
                replies.append((reply, seq))
                if k % 100 == 99:  # the connection is still conversational
                    pong = await _rpc(
                        reader, writer, {"op": "ping", "seq": f"alive-{k}"}
                    )
                    assert pong["ok"] is True
                    assert pong["seq"] == f"alive-{k}"
            # the storm never landed a single valid request
            stats = await _rpc(reader, writer, {"op": "stats", "seq": "s"})
            writer.close()
            await server.drain()
            return replies, stats

        replies, stats = sim_run(main())
        assert len(replies) == N_FRAMES
        for reply, seq in replies:
            assert reply["ok"] is False
            assert reply["error"] in ERROR_CODES
            assert reply["message"]
            if seq is not None:
                assert reply["seq"] == seq
        assert stats["ok"] is True
        assert stats["totals"]["items"] == 0
        assert stats["totals"]["errors"] >= N_FRAMES

    def test_near_canonical_arrive_frames_get_one_reply_each(self):
        async def main():
            net = SimNet(seed=2)
            server = await _start_server(net)
            reader, writer = await net.open_connection("sim", server.port)
            frames = _near_canonical_frames(random.Random("fz-nc"), 400)
            replies = []
            for k, (frame, _) in enumerate(frames):
                writer.write(frame)
                replies.append(json.loads(await reader.readline()))
                if k % 100 == 99:  # the connection is still conversational
                    pong = await _rpc(
                        reader, writer, {"op": "ping", "seq": f"alive-{k}"}
                    )
                    assert pong["ok"] is True
            stats = await _rpc(reader, writer, {"op": "stats", "seq": "s"})
            writer.close()
            await server.drain()
            return frames, replies, stats

        frames, replies, stats = sim_run(main())
        assert len(replies) == len(frames)
        ok = 0
        for (frame, seq), reply in zip(frames, replies):
            if seq is not None:
                assert reply["seq"] == seq
            if reply["ok"]:
                ok += 1
                assert reply["op"] == "arrive"
            else:
                assert reply["error"] in ERROR_CODES
                assert reply["message"]
        # both outcomes occur, and every accepted frame reached the kernel
        assert 0 < ok < len(frames)
        assert stats["totals"]["items"] == ok

    def test_blank_lines_are_skipped_not_answered(self):
        async def main():
            net = SimNet()
            server = await _start_server(net)
            reader, writer = await net.open_connection("sim", server.port)
            writer.write(b"\n   \n\t\n")
            pong = await _rpc(reader, writer, {"op": "ping", "seq": 1})
            writer.close()
            await server.drain()
            return pong

        pong = sim_run(main())
        assert pong["ok"] is True and pong["seq"] == 1

    def test_oversized_line_gets_reply_then_graceful_close(self):
        async def main():
            net = SimNet()
            server = await _start_server(net)
            reader, writer = await net.open_connection("sim", server.port)
            writer.write(b"x" * 70_000 + b"\n")  # beyond the 64 KiB limit
            reply = json.loads(await reader.readline())
            eof = await reader.readline()
            # the listener (and the shard) survive the rude client
            r2, w2 = await net.open_connection("sim", server.port)
            pong = await _rpc(r2, w2, {"op": "ping", "seq": "after"})
            w2.close()
            await server.drain()
            return reply, eof, pong

        reply, eof, pong = sim_run(main())
        assert reply["ok"] is False
        assert reply["error"] == "bad-request"
        assert "too long" in reply["message"]
        assert eof == b""  # closed gracefully, not reset
        assert pong["ok"] is True and pong["seq"] == "after"

    def test_fuzz_replies_are_deterministic(self):
        async def run_once():
            net = SimNet(seed=1)
            server = await _start_server(net)
            reader, writer = await net.open_connection("sim", server.port)
            replies = []
            for frame, _ in _fuzz_frames(random.Random("fz-d"), 60):
                writer.write(frame)
                replies.append(await reader.readline())
            writer.close()
            await server.drain()
            return replies

        assert sim_run(run_once()) == sim_run(run_once())
