"""Wire protocol: strict validation in, structured errors out."""

from __future__ import annotations

import dataclasses
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
    encode_arrive_ok,
    encode_arrive_oks,
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

    @pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
    def test_integer_beyond_float_range(self, as_bytes):
        line = arrive_line(arrival=10**400, seq=3)
        with pytest.raises(ProtocolError) as ei:
            parse_request(line.encode() if as_bytes else line)
        assert code_of(ei) == "bad-request"
        assert ei.value.reply()["seq"] == 3

    def test_integer_too_long_to_parse(self):
        line = arrive_line(seq=3).replace(
            '"size": 0.5', '"size": ' + "1" * 5000
        )
        with pytest.raises(ProtocolError) as ei:
            parse_request(line)
        assert code_of(ei) == "bad-json"

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
def traced_arrive_replies(draw) -> dict:
    """A canonical ``arrive`` ok reply with the server's trace key last."""
    reply = draw(arrive_replies())
    reply["trace"] = draw(ids)
    return reply


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

    @given(traced_arrive_replies())
    def test_traced_arrive_reply(self, reply):
        assert encode(reply) == reference_encode(reply)

    @given(arrive_replies(), st.one_of(st.none(), ids))
    def test_encode_arrive_ok_writes_the_reply(self, reply, trace):
        if trace is not None:
            reply["trace"] = trace
        fields = {k: v for k, v in reply.items() if k not in ("ok", "op")}
        fields["id_"] = fields.pop("id")
        fields["bin_"] = fields.pop("bin")
        assert encode_arrive_ok(**fields) == reference_encode(reply)

    @given(st.lists(arrive_replies(), max_size=6), ints, latencies)
    def test_encode_arrive_oks_writes_a_run(self, replies, shard, latency):
        # one run's replies share their shard and latency; ``opened``
        # comes as the kernel's 0/1 decision column
        for reply in replies:
            reply.update(shard=shard, latency_us=latency)
        columns = [[r[k] for r in replies]
                   for k in ("seq", "id", "uid", "bin")]
        opened = bytearray(r["opened"] for r in replies)
        assert encode_arrive_oks(*columns, opened, shard, latency) == [
            reference_encode(r) for r in replies
        ]

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
        reply["trace"] = "t-\u00e9\"1"  # a traced reply keeps the template
        monkeypatch.undo()
        expected = reference_encode(reply)
        monkeypatch.setattr(protocol.json, "dumps", refuse)
        assert encode(reply) == expected
        reply["trace"] = 7  # a trace that is not a string leaves it
        with pytest.raises(AssertionError):
            encode(reply)


# ---------------------------------------------------------------------- #
# The fast ``arrive`` parse against the strict one
# ---------------------------------------------------------------------- #
def outcome(parse, line: bytes) -> tuple:
    """What ``parse`` makes of ``line``; ``repr`` of the fields tells
    ``-0.0`` from ``0.0`` and ``1`` from ``"1"``."""
    try:
        return ("ok", repr(dataclasses.astuple(parse(line))))
    except ProtocolError as exc:
        return ("error", exc.code, exc.message, exc.seq)
    except Exception as exc:  # what json itself raises on huge integers
        return ("raises", type(exc).__name__, str(exc))


#: number tokens: plain, at the JSON grammar's edges, and not numbers
number_edges = st.sampled_from([
    "0", "-0", "0.0", "-0.0", "-0e0", "00", "01", "-01", "00.5", "1.",
    ".5", "-.5", "1.e5", "+1", "1e999", "-1e999", "1E5", "1e+5",
    "2.5e-3", "0.5", "1", "4", "true", "false", "null", '"1"', "[1]",
    "NaN", "Infinity", "1" + "0" * 400, "1" + "0" * 5000,
])
number_tokens = st.one_of(
    number_edges,
    number_edges,
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**30), 10**30).map(str),
)
#: id/tenant/seq tokens: strings with and without escapes, integers
ident_edges = st.sampled_from([
    '""', '"a b"', '"a,b"', '"a:b"', '"}"', '"\\u0041"', '"a\\"b"',
    '"\\\\"', '"\\n"', '"é"', "-0", "0", "07", "1.5", "true",
    "null", "[1]", "{}", "1" + "0" * 5000,
])
ident_tokens = st.one_of(
    ident_edges,
    ident_edges,
    st.text(max_size=6).map(json.dumps),
    st.text(max_size=6).map(lambda t: json.dumps(t, ensure_ascii=False)),
    st.integers(-(10**20), 10**20).map(str),
)
op_tokens = st.sampled_from(
    ['"arrive"'] * 6 + ['"arr\\u0069ve"', '"depart"', '"ping"', "1"]
)
values = {
    "op": op_tokens, "id": ident_tokens, "tenant": ident_tokens,
    "seq": ident_tokens, "arrival": number_tokens,
    "departure": number_tokens, "size": number_tokens,
    "v": st.sampled_from(["1", "2"]), "client": ident_tokens,
    "trace": ident_tokens, "x": number_tokens,
}
#: plain values the fast path takes
plain_idents = st.one_of(
    st.integers(-(10**12), 10**12).map(str),
    st.text(alphabet="abc 019-_:,{}", max_size=5).map(json.dumps),
)


@st.composite
def near_arrive_lines(draw) -> bytes:
    """A valid flat ``arrive`` line, compact or ``json.dumps``-spaced and
    in any key order, mostly bent by one edit at the fast path's edge:
    an odd value, a duplicate, extra or missing key, odd whitespace, or
    another line end."""
    arrival = draw(st.floats(-1e6, 1e6))
    departure = arrival + draw(st.floats(1e-3, 1e3))
    fields = {
        "op": '"arrive"',
        "id": draw(plain_idents),
        "arrival": draw(st.sampled_from([repr(arrival), str(int(arrival))])),
        "size": repr(draw(st.floats(1e-9, 1.0))),
    }
    for key in draw(st.sets(st.sampled_from(["tenant", "departure", "seq"]))):
        fields[key] = (
            repr(departure) if key == "departure" else draw(plain_idents)
        )
    pairs = draw(st.permutations(list(fields.items())))
    sep, colon = draw(st.sampled_from([(",", ":"), (", ", ": ")]))
    lead, end = "", "\n"
    edit = draw(st.sampled_from([
        "none", "value", "value", "value", "duplicate", "extra", "drop",
        "space", "lead", "end",
    ]))
    if edit == "value":
        i = draw(st.integers(0, len(pairs) - 1))
        pairs[i] = (pairs[i][0], draw(values[pairs[i][0]]))
    elif edit == "duplicate":
        key, value = draw(st.sampled_from(pairs))
        value = draw(st.sampled_from([value, draw(values[key])]))
        pairs.insert(draw(st.integers(0, len(pairs))), (key, value))
    elif edit == "extra":
        key = draw(st.sampled_from(["v", "client", "trace", "x"]))
        pairs.insert(draw(st.integers(0, len(pairs))),
                     (key, draw(values[key])))
    elif edit == "drop":
        del pairs[draw(st.integers(0, len(pairs) - 1))]
    elif edit == "space":
        sep, colon = draw(st.sampled_from(
            [(" ,", ":"), (",\t", ":"), (",", " :"), (" , ", " : "),
             (",\r", ":"), (",  ", ":")]))
    elif edit == "lead":
        lead = draw(st.sampled_from([" ", "\t", "\r", "\ufeff"]))
    elif edit == "end":
        end = draw(st.sampled_from(["", "\r\n", " \n", "\t\n", "\n\n"]))
    body = sep.join(f'"{k}"{colon}{v}' for k, v in pairs)
    return (lead + "{" + body + "}" + end).encode("utf-8")


class TestFastArriveParse:
    """``parse_request`` on bytes tries :func:`protocol._parse_arrive`
    first; whatever it accepts must equal the strict parse, and what it
    declines must fail exactly as the strict parse fails."""

    @given(near_arrive_lines())
    def test_fast_parse_equals_strict(self, line):
        strict = outcome(protocol._parse_strict, line)
        assert outcome(parse_request, line) == strict
        fast = protocol._parse_arrive(line)
        if fast is not None:
            assert ("ok", repr(dataclasses.astuple(fast))) == strict

    @given(st.binary(max_size=40), near_arrive_lines())
    def test_mangled_bytes_agree(self, junk, line):
        cut = len(line) // 2
        for mangled in (junk, line[:cut] + junk + line[cut:]):
            assert outcome(parse_request, mangled) == outcome(
                protocol._parse_strict, mangled
            )

    @pytest.mark.parametrize("line", [
        # the benchmark driver's compact shape
        b'{"op":"arrive","id":12,"tenant":"t0","arrival":8.574862323926506'
        b',"departure":261.6228259189759,"size":0.0580075715764348'
        b',"seq":12}\n',
        # json.dumps' default separators, keys reordered, no tenant
        b'{"size": 0.5, "seq": "s-1", "op": "arrive", "arrival": 2, '
        b'"id": "job-7", "departure": 3.5}\n',
        # the load generator's shape (encode() of its dict plus seq)
        encode({"op": "arrive", "id": 4, "tenant": "t1", "arrival": 0.5,
                "departure": 1.5, "size": 0.25, "seq": 9}),
        # adaptive (no departure), \r\n ending, negative integer seq
        b'{"op":"arrive","id":"a","arrival":1e3,"size":1,"seq":-4}\r\n',
    ])
    def test_takes_client_shapes(self, line):
        fast = protocol._parse_arrive(line)
        assert fast is not None
        assert repr(dataclasses.astuple(fast)) == repr(
            dataclasses.astuple(protocol._parse_strict(line))
        )

    @pytest.mark.parametrize("line", [
        b'{"op":"arrive","id":1,"id":2,"arrival":0,"size":0.5}',
        b'{"op":"arrive","id":1,"arrival":0,"size":0.5,"size":0.7}',
        b'{"op":"arrive","id":"\\u0041","arrival":0,"size":0.5}',
        b'{"op":"arrive","id":1,"tenant":"t\\u0030","arrival":0,'
        b'"size":0.5}',
        b'{"op":"arrive","id":07,"arrival":0,"size":0.5}',
        b'{"op":"arrive","id":1,"arrival":00,"size":0.5}',
        b'{"op":"arrive","id":1,"arrival":01.5,"size":0.5}',
        b'{"op":"arrive","id":1,"arrival":-0,"size":0.5}',
        b'{"op":"arrive","id":-0,"arrival":0,"size":0.5}',
        b'{"op":"arrive","id":1,"arrival":1e999,"size":0.5}',
        b'{"op":"arrive","id":1,"arrival":0,"departure":1e999,"size":0.5}',
        b'{"op":"arrive","id":1,"arrival":true,"size":0.5}',
        b'{"op":"arrive","id":1,"arrival":0,"departure":null,"size":0.5}',
        b'{"op":"arrive","id":1,"arrival":0,"size":false}',
        b'{"op":"arrive","id":1,"arrival":0,"size":0.5,"v":1}',
        b'{"op":"arrive","id":1,"arrival":0,"size":0.5,"client":"c"}',
        b'{"op":"arrive","id":1,"arrival":0,"size":0.5,"trace":"t"}',
        b'{"op":"depart","id":1,"time":0}',
        b'{"op":"arrive","id":"\xc3\xa9","arrival":0,"size":0.5}',
        b'{"op":"arrive","id":1,"arrival":0,"size":0}',
        b'{"op":"arrive","id":1,"arrival":5,"departure":5,"size":0.5}',
        b'{"op":"arrive",\t"id":1,"arrival":0,"size":0.5}',
        b' {"op":"arrive","id":1,"arrival":0,"size":0.5}',
    ], ids=[
        "duplicate-id", "duplicate-size", "escaped-id", "escaped-tenant",
        "leading-zero-id", "double-zero", "leading-zero-float",
        "minus-zero", "minus-zero-id", "overflow", "overflow-departure",
        "bool-arrival", "null-departure", "bool-size", "version",
        "client", "trace", "other-op", "non-ascii", "zero-size",
        "empty-interval", "tab", "leading-space",
    ])
    def test_declines_edges_and_strict_decides(self, line):
        assert protocol._parse_arrive(line) is None
        assert outcome(parse_request, line) == outcome(
            protocol._parse_strict, line
        )
