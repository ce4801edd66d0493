"""The wire protocol of the placement service: JSONL over TCP, v1.

One request per line, one JSON object per request; one JSON object per
reply.  The protocol is deliberately boring — newline-delimited JSON is
greppable, replayable with ``nc``, and needs no dependency — and
deliberately strict: every malformed line gets a **structured error
reply** (``{"ok": false, "error": "<code>", ...}``) and the connection
stays open.  A bad client can never crash a server, and a good client
can always tell *why* a request was refused.

Requests
--------
::

    {"op": "arrive", "id": 7, "arrival": 0.0, "departure": 4.0,
     "size": 0.5, "tenant": "acme", "seq": 1}
    {"op": "depart", "id": 7, "time": 3.0}      # adaptive items only
    {"op": "advance", "time": 10.0}             # move every shard's clock
    {"op": "stats"}                             # service-wide snapshot
    {"op": "telemetry"}                         # RED/tracing snapshot
    {"op": "profile"}                           # live profiling snapshot
    {"op": "ping"}

``seq`` is an optional client-chosen correlation token echoed verbatim
in the reply; pipelined clients need it because replies from different
shards may interleave.  ``trace`` is an optional client-chosen trace id
(string or int): when telemetry is enabled the server records a span
tree under that id and echoes it in the reply.  ``tenant`` (falling back to ``id``) is the
consistent-hash **routing key** — requests sharing a key always land on
the same shard, which is what keeps per-shard decision streams
deterministic.  ``v`` optionally pins the protocol version.

Replies
-------
Successful placement::

    {"ok": true, "op": "arrive", "seq": 1, "id": 7, "bin": 3,
     "opened": false, "shard": 0, "latency_us": 38.4}

Errors carry a machine-readable code (see :data:`ERROR_CODES`) plus a
human message; ``overloaded`` replies additionally carry
``retry_after`` (seconds), the service's explicit backpressure signal::

    {"ok": false, "error": "overloaded", "retry_after": 0.05, "seq": 1}

Timestamps are the *paper's* logical clock (the ``arrival``/
``departure`` coordinates of the trace), not wall time; the kernel
advances when requests say so, exactly as in the batch simulator.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Optional, Tuple, Union

from ..core.errors import InvalidItemError
from ..core.store import validate_item_values

__all__ = [
    "PROTOCOL_VERSION",
    "OPS",
    "ERROR_CODES",
    "RETRYABLE_ERROR_CODES",
    "ProtocolError",
    "Request",
    "parse_request",
    "ok_reply",
    "error_reply",
    "encode",
    "encode_arrive_ok",
    "decode",
]

#: bumped on incompatible request/reply schema changes
PROTOCOL_VERSION = 1

#: operations a client may request
OPS = ("arrive", "depart", "advance", "stats", "ping", "telemetry", "profile")

#: machine-readable error codes a reply's ``error`` field may carry
ERROR_CODES = (
    "bad-json",      # line is not a JSON object
    "bad-version",   # client pinned an unsupported protocol version
    "bad-request",   # missing/mistyped field, unknown op
    "bad-item",      # arrive payload violates item semantics
    "out-of-order",  # arrival/advance behind the shard's clock
    "unknown-item",  # depart for an id this shard does not hold
    "duplicate-id",  # adaptive arrive reusing a live id
    "overloaded",    # shard queue full — back off and retry
    "unavailable",   # shard crashed/restarting — back off and retry
    "draining",      # server is shutting down, no new work
    "internal",      # unexpected server-side failure
)

#: error codes a well-behaved client may retry (with backoff); all other
#: codes describe the request itself and will fail identically on resend
RETRYABLE_ERROR_CODES = frozenset({"overloaded", "unavailable"})


class ProtocolError(Exception):
    """A request that must be answered with a structured error reply."""

    def __init__(self, code: str, message: str, *, seq=None, **fields):
        super().__init__(message)
        self.code = code
        self.message = message
        self.seq = seq
        self.fields = fields

    def reply(self) -> dict:
        return error_reply(
            self.code, self.message, seq=self.seq, **self.fields
        )


@dataclass(slots=True)
class Request:
    """One validated client request (the parsed form of a wire line).

    An ``arrive`` request from :func:`parse_request` carries item values
    that already passed :func:`~repro.core.store.validate_item_values`,
    so the shard builds its kernel item without checking them again.
    """

    op: str
    seq: Optional[Union[int, str]] = None
    id: Optional[str] = None
    tenant: Optional[str] = None
    arrival: Optional[float] = None
    departure: Optional[float] = None
    size: Optional[float] = None
    time: Optional[float] = None
    #: stable client identity for at-most-once retry dedup: an
    #: ``arrive``/``depart`` carrying both ``client`` and ``seq`` is
    #: applied exactly once per ``(client, seq)`` — a resend of an
    #: already-applied request returns the original reply verbatim
    client: Optional[str] = None
    #: optional client-chosen trace id, echoed in the reply and used by
    #: the telemetry plane to label this request's span tree; when
    #: absent the server derives one (``client:seq`` or a local counter)
    trace: Optional[str] = None

    @property
    def dedup_key(self) -> Optional[tuple]:
        """The idempotency key, or ``None`` when dedup is not requested."""
        if self.client is None or self.seq is None:
            return None
        return (self.client, self.seq)

    @property
    def routing_key(self) -> str:
        """Consistent-hash key: the tenant when given, else the item id."""
        return self.tenant if self.tenant is not None else (self.id or "")


def _number(obj: dict, field: str, seq, *, required: bool = True):
    value = obj.get(field)
    if value is None:
        if required:
            raise ProtocolError(
                "bad-request", f"missing field {field!r}", seq=seq
            )
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(
            "bad-request",
            f"field {field!r} must be a number, got {value!r}",
            seq=seq,
        )
    try:
        value = float(value)
    except OverflowError:  # a JSON integer beyond float range
        value = math.inf
    if not math.isfinite(value):
        raise ProtocolError(
            "bad-request", f"field {field!r} must be finite", seq=seq
        )
    return value


def _ident(obj: dict, field: str, seq, *, required: bool):
    value = obj.get(field)
    if value is None:
        if required:
            raise ProtocolError(
                "bad-request", f"missing field {field!r}", seq=seq
            )
        return None
    if not isinstance(value, (str, int)):
        raise ProtocolError(
            "bad-request",
            f"field {field!r} must be a string or integer, got {value!r}",
            seq=seq,
        )
    return str(value)


def parse_request(line: Union[str, bytes]) -> Request:
    """Validate one wire line into a :class:`Request`.

    Raises :class:`ProtocolError` — never a raw ``json`` or item
    exception — so the server can always turn a bad line into a reply
    instead of a dropped connection.

    A ``bytes`` line holding the flat ``arrive`` object clients send
    takes a fast path (:func:`_parse_arrive`); every other line, and
    every line the fast path declines, is parsed strictly by
    ``json.loads``.  Both give the same :class:`Request`.
    """
    if type(line) is bytes:
        req = _parse_arrive(line)
        if req is not None:
            return req
    return _parse_strict(line)


def _parse_strict(line: Union[str, bytes]) -> Request:
    """:func:`parse_request` by ``json.loads`` and field-by-field checks."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("bad-json", f"not UTF-8: {exc}") from exc
    try:
        obj = json.loads(line)
    except ValueError as exc:  # JSONDecodeError, or an over-long integer
        raise ProtocolError("bad-json", f"not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            "bad-json", f"expected a JSON object, got {type(obj).__name__}"
        )
    seq = obj.get("seq")
    if seq is not None and not isinstance(seq, (int, str)):
        raise ProtocolError(
            "bad-request", f"field 'seq' must be int or string, got {seq!r}"
        )
    version = obj.get("v")
    if version is not None and version != PROTOCOL_VERSION:
        raise ProtocolError(
            "bad-version",
            f"protocol v{version!r} unsupported (server speaks "
            f"v{PROTOCOL_VERSION})",
            seq=seq,
        )
    op = obj.get("op")
    if op not in OPS:
        raise ProtocolError(
            "bad-request", f"unknown op {op!r} (expected one of {OPS})",
            seq=seq,
        )
    tenant = _ident(obj, "tenant", seq, required=False)
    client = _ident(obj, "client", seq, required=False)
    trace = _ident(obj, "trace", seq, required=False)
    if op == "arrive":
        req = Request(
            op=op,
            seq=seq,
            id=_ident(obj, "id", seq, required=True),
            tenant=tenant,
            arrival=_number(obj, "arrival", seq),
            departure=_number(obj, "departure", seq, required=False),
            size=_number(obj, "size", seq),
            client=client,
            trace=trace,
        )
        try:  # full item semantics (size in (0,1], departure > arrival, …)
            # columnar validation: same checks and messages as Item,
            # without allocating a throwaway dataclass per request
            validate_item_values(req.arrival, req.departure, req.size)
        except InvalidItemError as exc:
            raise ProtocolError("bad-item", str(exc), seq=seq) from exc
        return req
    if op == "depart":
        return Request(
            op=op,
            seq=seq,
            id=_ident(obj, "id", seq, required=True),
            tenant=tenant,
            time=_number(obj, "time", seq),
            client=client,
            trace=trace,
        )
    if op == "advance":
        return Request(
            op=op, seq=seq, time=_number(obj, "time", seq), trace=trace
        )
    # stats / ping / telemetry / profile
    return Request(op=op, seq=seq, trace=trace)


# ---------------------------------------------------------------------- #
# The fast ``arrive`` parse
# ---------------------------------------------------------------------- #
# A line is accepted only when one regular expression, built for its key
# order, matches all of it; the grammar pieces are strict subsets of
# JSON's.  Anything outside them is declined and parsed strictly:
# escapes, non-ASCII, duplicate or unknown keys (``v``, ``client``,
# ``trace``, ...), ``true``/``false``/``null``, ids or tenants that are
# not strings or integers, the integer ``-0`` (which JSON reads as 0),
# whitespace other than one space after ``:`` or ``,`` (``json.dumps``'s
# default separators) or at the end, and values that fail validation.
# Possessive quantifiers (``*+``) spare the matcher backtracking state.
_INT = rb"(?:-?[1-9][0-9]*+|0)"
#: a JSON number other than the integer ``-0``
_NUMBER = (
    rb"((?:-?[1-9][0-9]*+|-?0(?=[.eE])|0)(?:\.[0-9]++)?+"
    rb"(?:[eE][-+]?[0-9]++)?+)"
)
#: a string of printable ASCII without escapes, or an integer
_IDENT = rb'(?:"([ !#-\[\]-~]*+)"|(' + _INT + rb"))"
#: value pattern and groups (string, integer or number) per key
_ARRIVE_FIELDS = {
    b"op": (rb'"arrive"', ()),
    b"id": (_IDENT, ("id", "id_int")),
    b"tenant": (_IDENT, ("tenant", "tenant_int")),
    b"seq": (_IDENT, ("seq", "seq_int")),
    b"arrival": (_NUMBER, ("arrival",)),
    b"departure": (_NUMBER, ("departure",)),
    b"size": (_NUMBER, ("size",)),
}
_ARRIVE_REQUIRED = frozenset((b"op", b"id", b"arrival", b"size"))
#: the groups :func:`_parse_arrive` reads, in its order
_ARRIVE_GROUPS = (
    "id", "id_int", "tenant", "tenant_int", "seq", "seq_int", "arrival",
    "departure", "size",
)
#: the keys of a line, in order (a key is any quoted text before a colon)
_KEYS = re.compile(rb'"([^"\\]*)"[ \t\r]*:')
#: longer lines are parsed strictly: no integer in a shorter one reaches
#: the digit limit past which ``json`` refuses to convert integers
_FAST_MAX_LINE = 4096

#: the plan of the last key order that matched, tried first (clients
#: keep their order); a memo: which plan it holds never changes a result
_last_plan = None


@lru_cache(maxsize=64)
def _arrive_plan(keys: Tuple[bytes, ...]):
    """``(regex, group numbers)`` for ``arrive`` lines with ``keys`` in
    this order, or ``None`` when those keys are not a fast-path
    ``arrive`` (unknown, duplicate or missing keys)."""
    fields = set(keys)
    if (
        len(fields) != len(keys)
        or not _ARRIVE_REQUIRED <= fields
        or not fields <= _ARRIVE_FIELDS.keys()
    ):
        return None
    parts, number = [], {}
    for key in keys:
        pattern, groups = _ARRIVE_FIELDS[key]
        parts.append(b'"' + key + b'": ?' + pattern)
        for name in groups:
            number[name] = len(number) + 1
    # a last group that never takes part: where absent keys point
    regex = re.compile(
        rb"\{" + b", ?".join(parts) + rb"\}[ \t\r\n]*+(?:()(?!))?"
    )
    absent = len(number) + 1
    return regex, tuple(number.get(name, absent) for name in _ARRIVE_GROUPS)


def _parse_arrive(line: bytes) -> Optional[Request]:
    """The fast path of :func:`parse_request`: an ``arrive`` line parsed
    by one regular expression, or ``None`` when the line is anything
    else and must be parsed strictly.

    An accepted line gives the :class:`Request` the strict path gives,
    validated item values included.
    """
    global _last_plan
    if len(line) > _FAST_MAX_LINE:
        return None
    plan = _last_plan
    match = plan[0].fullmatch(line) if plan is not None else None
    if match is None:
        plan = _arrive_plan(tuple(_KEYS.findall(line)))
        if plan is None:
            return None
        match = plan[0].fullmatch(line)
        if match is None:
            return None
        _last_plan = plan
    (id_, id_int, tenant, tenant_int, seq, seq_int, arrival, departure,
     size) = match.group(*plan[1])
    if id_ is None:  # an integer id is named by its decimal form
        id_ = id_int
    if tenant is None:
        tenant = tenant_int
    if tenant is not None:
        tenant = tenant.decode()
    if seq is not None:
        seq = seq.decode()
    elif seq_int is not None:
        seq = int(seq_int)
    arrival = float(arrival)
    size = float(size)
    if departure is not None:
        departure = float(departure)
    try:  # an invalid item gets the strict path's error
        validate_item_values(arrival, departure, size)
    except InvalidItemError:
        return None
    return Request("arrive", seq, id_.decode(), tenant, arrival,
                   departure, size)


def ok_reply(op: str, *, seq=None, **fields) -> dict:
    """A successful reply envelope (``seq`` echoed only when present)."""
    reply = {"ok": True, "op": op}
    if seq is not None:
        reply["seq"] = seq
    reply.update(fields)
    return reply


def error_reply(code: str, message: str, *, seq=None, **fields) -> dict:
    """A structured error reply (``code`` must be in :data:`ERROR_CODES`)."""
    reply = {"ok": False, "error": code, "message": message}
    if seq is not None:
        reply["seq"] = seq
    reply.update(fields)
    return reply


#: key order of the canonical ``arrive`` ok reply (see :func:`encode`)
_ARRIVE_KEYS = (
    "ok", "op", "seq", "id", "uid", "bin", "opened", "shard", "latency_us",
)
#: ... and of a traced one, which carries its trace id last
_TRACED_ARRIVE_KEYS = _ARRIVE_KEYS + ("trace",)


def encode_arrive_ok(
    seq: int,
    id_: str,
    uid: int,
    bin_: int,
    opened: bool,
    shard: int,
    latency_us: float,
    trace: Optional[str] = None,
) -> bytes:
    """The canonical ``arrive`` ok reply, written straight to its wire line.

    Equals ``encode(ok_reply("arrive", seq=seq, id=id_, uid=uid,
    bin=bin_, opened=opened, shard=shard, latency_us=latency_us))``
    (plus ``trace`` last when given) for an int ``seq``, ``uid``,
    ``bin_`` and ``shard``, str ``id_`` and ``trace``, and a finite
    float ``latency_us``: strings go through ``json``'s own ASCII
    escaper and the float through ``repr``, as ``json.dumps`` does.
    """
    traced = "" if trace is None else (
        f',"trace":{encode_basestring_ascii(trace)}'
    )
    return (
        f'{{"ok":true,"op":"arrive","seq":{seq},'
        f'"id":{encode_basestring_ascii(id_)},"uid":{uid},'
        f'"bin":{bin_},"opened":{"true" if opened else "false"},'
        f'"shard":{shard},"latency_us":{latency_us!r}{traced}}}\n'
    ).encode()


def encode(obj: dict) -> bytes:
    """One reply/request as a wire line (compact JSON + newline).

    The canonical ``arrive`` ok reply — the one nearly every request
    gets, traced (a str ``trace`` key last) or not — is written by
    :func:`encode_arrive_ok`; its bytes equal ``json.dumps``'s.  Every
    other shape, including one with a non-int ``seq``, goes through
    ``json.dumps``.
    """
    n = len(obj)
    if n == 9 and tuple(obj) == _ARRIVE_KEYS:
        ok, op, seq, id_, uid, bin_, opened, shard, latency = obj.values()
        trace = None
    elif n == 10 and tuple(obj) == _TRACED_ARRIVE_KEYS:
        ok, op, seq, id_, uid, bin_, opened, shard, latency, trace = (
            obj.values()
        )
    else:
        ok = None
    if (
        ok is True
        and op == "arrive"
        and type(seq) is int
        and type(id_) is str
        and type(uid) is int
        and type(bin_) is int
        and type(opened) is bool
        and type(shard) is int
        and type(latency) is float
        and -math.inf < latency < math.inf
        and (trace is None or type(trace) is str)
    ):
        return encode_arrive_ok(seq, id_, uid, bin_, opened, shard,
                                latency, trace)
    return (
        json.dumps(obj, separators=(",", ":"), default=float) + "\n"
    ).encode("utf-8")


def decode(line: Union[str, bytes]) -> dict:
    """Parse one reply line into a dict (client-side counterpart)."""
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object reply, got {obj!r}")
    return obj
