"""Wire protocol: strict validation in, structured errors out."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.item import Item, item_view
from repro.serve import protocol
from repro.serve.protocol import (
    ERROR_CODES,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    decode,
    encode,
    error_reply,
    ok_reply,
    parse_request,
)


def arrive_line(**overrides) -> str:
    obj = {"op": "arrive", "id": 7, "arrival": 0.0, "departure": 4.0,
           "size": 0.5}
    obj.update(overrides)
    return json.dumps(obj)


class TestParseValid:
    def test_arrive(self):
        req = parse_request(arrive_line(seq=12, tenant="acme"))
        assert req.op == "arrive"
        assert req.seq == 12
        assert req.id == "7"  # ids normalise to strings
        assert req.tenant == "acme"
        assert req.arrival == 0.0
        assert req.departure == 4.0
        assert req.size == 0.5

    def test_arrive_bytes_line(self):
        req = parse_request(arrive_line().encode())
        assert req.op == "arrive"

    def test_adaptive_arrive_has_no_departure(self):
        req = parse_request(arrive_line(departure=None))
        assert req.departure is None

    def test_depart(self):
        req = parse_request('{"op": "depart", "id": "x", "time": 3.5}')
        assert req.op == "depart"
        assert req.id == "x"
        assert req.time == 3.5

    def test_advance(self):
        req = parse_request('{"op": "advance", "time": 9}')
        assert req.time == 9.0

    @pytest.mark.parametrize("op", ["stats", "ping"])
    def test_bare_ops(self, op):
        assert parse_request(json.dumps({"op": op})).op == op

    def test_pinned_matching_version_accepted(self):
        req = parse_request(arrive_line(v=PROTOCOL_VERSION))
        assert req.op == "arrive"

    def test_item_view_carries_the_uid(self):
        # the shard builds its kernel item unchecked from the values
        # parse_request validated: it must equal the checked constructor's
        req = parse_request(arrive_line())
        item = item_view(req.arrival, req.departure, req.size, 41)
        assert item == Item(0.0, 4.0, 0.5, uid=41)
        assert item.uid == 41


class TestRoutingKey:
    def test_tenant_wins(self):
        req = parse_request(arrive_line(tenant="t1"))
        assert req.routing_key == "t1"

    def test_falls_back_to_id(self):
        assert parse_request(arrive_line()).routing_key == "7"


def code_of(excinfo) -> str:
    assert excinfo.value.code in ERROR_CODES
    return excinfo.value.code


class TestParseErrors:
    def test_not_json(self):
        with pytest.raises(ProtocolError) as ei:
            parse_request("{nope")
        assert code_of(ei) == "bad-json"

    def test_not_an_object(self):
        with pytest.raises(ProtocolError) as ei:
            parse_request("[1, 2]")
        assert code_of(ei) == "bad-json"

    def test_not_utf8(self):
        with pytest.raises(ProtocolError) as ei:
            parse_request(b"\xff\xfe{}")
        assert code_of(ei) == "bad-json"

    def test_unknown_op(self):
        with pytest.raises(ProtocolError) as ei:
            parse_request('{"op": "explode"}')
        assert code_of(ei) == "bad-request"
        assert "explode" in ei.value.message

    def test_missing_op(self):
        with pytest.raises(ProtocolError) as ei:
            parse_request("{}")
        assert code_of(ei) == "bad-request"

    def test_wrong_version(self):
        with pytest.raises(ProtocolError) as ei:
            parse_request(arrive_line(v=99))
        assert code_of(ei) == "bad-version"

    @pytest.mark.parametrize("field", ["id", "arrival", "size"])
    def test_missing_arrive_field(self, field):
        obj = json.loads(arrive_line())
        del obj[field]
        with pytest.raises(ProtocolError) as ei:
            parse_request(json.dumps(obj))
        assert code_of(ei) == "bad-request"
        assert field in ei.value.message

    @pytest.mark.parametrize(
        "overrides",
        [{"arrival": "soon"}, {"size": True}, {"arrival": float("nan")},
         {"departure": float("inf")}],
        ids=["string", "bool", "nan", "inf"],
    )
    def test_non_numeric_fields(self, overrides):
        # NaN/inf survive json.dumps via allow_nan, so they must be
        # caught by the finiteness check rather than the type check
        with pytest.raises(ProtocolError) as ei:
            parse_request(arrive_line(**overrides))
        assert code_of(ei) == "bad-request"

    @pytest.mark.parametrize(
        "overrides",
        [{"size": 0.0}, {"size": 1.5}, {"departure": -1.0},
         {"departure": 0.0}],
        ids=["zero-size", "oversize", "departs-before", "zero-interval"],
    )
    def test_item_semantics(self, overrides):
        with pytest.raises(ProtocolError) as ei:
            parse_request(arrive_line(**overrides))
        assert code_of(ei) == "bad-item"

    def test_bad_seq_type(self):
        with pytest.raises(ProtocolError) as ei:
            parse_request(arrive_line(seq=[1]))
        assert code_of(ei) == "bad-request"

    def test_seq_is_echoed_in_the_error(self):
        with pytest.raises(ProtocolError) as ei:
            parse_request(arrive_line(size=0.0, seq=77))
        assert ei.value.reply()["seq"] == 77


class TestReplies:
    def test_ok_reply_envelope(self):
        reply = ok_reply("arrive", seq=3, bin=2, opened=True)
        assert reply == {"ok": True, "op": "arrive", "seq": 3, "bin": 2,
                         "opened": True}

    def test_seq_omitted_when_absent(self):
        assert "seq" not in ok_reply("ping")
        assert "seq" not in error_reply("internal", "boom")

    def test_error_reply_envelope(self):
        reply = error_reply("overloaded", "queue full", seq=9,
                            retry_after=0.05)
        assert reply["ok"] is False
        assert reply["error"] == "overloaded"
        assert reply["retry_after"] == 0.05
        assert reply["seq"] == 9

    def test_encode_decode_round_trip(self):
        reply = ok_reply("stats", seq="s-1", totals={"cost": 1.5})
        line = encode(reply)
        assert line.endswith(b"\n")
        assert decode(line) == reply

    def test_decode_rejects_non_object(self):
        with pytest.raises(ValueError):
            decode(b"[]\n")

    def test_every_op_is_listed(self):
        assert set(OPS) == {
            "arrive", "depart", "advance", "stats", "ping", "telemetry",
            "profile",
        }


def reference_encode(obj: dict) -> bytes:
    """What :func:`encode` wrote before it had a template fast path."""
    return (
        json.dumps(obj, separators=(",", ":"), default=float) + "\n"
    ).encode()


ids = st.one_of(
    st.text(),
    st.sampled_from([
        "", '"', "\\", "a\"b\\c", "\x00", "\x1f\n\t\r", "\x7f",
        "é", "漢字", "\U0001f600", "\ud800", "</script>",
    ]),
)
ints = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([0, -1, 2**63, -(2**63), 10**100, -(10**200)]),
)
latencies = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-7, 1e16, 1e22, 38.4, 5e-324]),
)
#: any JSON-encodable value of any type, finite or not
anything = st.one_of(
    st.none(), st.booleans(), ints, st.floats(), st.text(),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@st.composite
def arrive_replies(draw) -> dict:
    """A canonical ``arrive`` ok reply, as the shard builds it."""
    return ok_reply(
        "arrive",
        seq=draw(ints),
        id=draw(ids),
        uid=draw(ints),
        bin=draw(ints),
        opened=draw(st.booleans()),
        shard=draw(ints),
        latency_us=draw(latencies),
    )


@st.composite
def off_template_replies(draw) -> dict:
    """A canonical reply bent into a shape the template must not take."""
    reply = draw(arrive_replies())
    keys = list(reply)
    how = draw(st.sampled_from(
        ["trace", "drop", "retype", "nonfinite", "reorder", "swap", "extra"]
    ))
    if how == "trace":
        reply["trace"] = draw(ids)
    elif how == "drop":
        del reply[draw(st.sampled_from(keys))]
    elif how == "retype":
        reply[draw(st.sampled_from(keys))] = draw(anything)
    elif how == "nonfinite":
        reply["latency_us"] = draw(st.sampled_from(
            [math.inf, -math.inf, math.nan]
        ))
    elif how == "reorder":
        key = draw(st.sampled_from(keys[:-1]))
        reply[key] = reply.pop(key)  # same keys, moved to the end
    elif how == "swap":  # same keys and types, two positions exchanged
        i, j = draw(st.sampled_from([(2, 4), (4, 5), (4, 7), (5, 7)]))
        keys[i], keys[j] = keys[j], keys[i]
        reply = {key: reply[key] for key in keys}
    else:
        del reply[draw(st.sampled_from(keys))]
        reply[draw(st.text(max_size=4))] = draw(anything)
    return reply


other_replies = st.one_of(
    st.builds(
        error_reply, st.sampled_from(ERROR_CODES), st.text(),
        seq=st.one_of(st.none(), ints, st.text()),
        retry_after=st.floats(min_value=0, max_value=1),
    ),
    st.builds(
        lambda op, seq, id_, shard: ok_reply(op, seq=seq, id=id_,
                                             shard=shard),
        st.sampled_from(["depart", "advance", "ping", "stats"]),
        st.one_of(st.none(), ints, st.text()),
        ids, ints,
    ),
    st.builds(
        lambda seq, id_, lat: ok_reply(
            "arrive", seq=seq, id=id_, uid=1, bin=2, opened=True,
            shard=0, latency_us=lat,
        ),
        st.one_of(st.none(), st.text(), st.booleans(), st.floats()),
        st.one_of(ids, ints),
        st.one_of(latencies, st.sampled_from([math.inf, -math.inf,
                                              math.nan, 7])),
    ),
)


class TestEncodeMatchesJsonDumps:
    @given(arrive_replies())
    def test_canonical_arrive_reply(self, reply):
        assert encode(reply) == reference_encode(reply)

    @given(off_template_replies())
    def test_bent_arrive_replies(self, reply):
        assert encode(reply) == reference_encode(reply)

    @given(other_replies)
    def test_every_other_reply_shape(self, reply):
        assert encode(reply) == reference_encode(reply)

    def test_canonical_reply_skips_json_dumps(self, monkeypatch):
        reply = ok_reply("arrive", seq=1, id="7", uid=0, bin=3,
                         opened=False, shard=0, latency_us=38.4)
        expected = reference_encode(reply)

        def refuse(*args, **kwargs):
            raise AssertionError("json.dumps on the template path")

        monkeypatch.setattr(protocol.json, "dumps", refuse)
        assert encode(reply) == expected
        reply["trace"] = "t-1"  # a traced reply leaves the template
        with pytest.raises(AssertionError):
            encode(reply)
