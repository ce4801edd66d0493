"""Trace-loader fuzzing: one malformed row must be named by its line.

Modelled on the protocol fuzz (``tests/chaos/test_protocol_fuzz.py``):
hypothesis builds a valid JSONL or CSV trace (blank lines included, so
the numbering is physical), puts one malformed row at a random line,
and every loader — the whole-text ones and the chunked store readers at
several ``chunk_rows`` — must raise :class:`InvalidInstanceError` whose
message starts with exactly that line number, and all of them the same
message.  No raw ``ValueError``/``TypeError``/``OverflowError`` may
escape.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidInstanceError
from repro.workloads.io import (
    iter_csv_stores,
    iter_jsonl_stores,
    load_csv,
    load_jsonl,
    loads_csv,
    loads_jsonl,
)

CHUNK_ROWS = (1, 2, 3, 64)

BIG_INT = "1" + "0" * 400  # beyond float range
HUGE_INT = "7" * 5000  # beyond the int-string conversion limit

BAD_JSONL = [
    "{not json",
    "[0.0, 2.0, 0.5]",
    '"a string"',
    '{"arrival": 0.0, "size": 0.5}',
    '{"arrival": 0.0, "departure": "x", "size": 0.5}',
    '{"arrival": 0.0, "departure": [2], "size": 0.5}',
    '{"arrival": 0.0, "departure": 2.0, "size": "big"}',
    '{"arrival": 0.0, "departure": 2.0, "size": 2.5}',
    '{"arrival": 0.0, "departure": 2.0, "size": -0.5}',
    '{"arrival": 3.0, "departure": 2.0, "size": 0.5}',
    '{"arrival": NaN, "departure": 2.0, "size": 0.5}',
    '{"arrival": 1e999, "departure": 2.0, "size": 0.5}',
    '{"arrival": %s, "departure": 2.0, "size": 0.5}' % BIG_INT,
    '{"arrival": 0.0, "departure": %s, "size": 0.5}' % BIG_INT,
    '{"arrival": 0.0, "departure": 2.0, "size": %s}' % HUGE_INT,
    '{"arrival": 0.0, "departure": 2.0, "size": 0.5}, {"x": 1}',
]

BAD_CSV = [
    "0.0,2.0",
    "0.0,2.0,0.5,9",
    "0.0,2.0,nope",
    "x,2.0,0.5",
    "0.0,2.0,2.5",
    "0.0,inf,0.5",
    "3.0,2.0,0.5",
    f"0.0,{HUGE_INT},0.5",
    f"{BIG_INT},2.0,0.5",
]


@st.composite
def traces(draw, fmt):
    """``(text, bad_lineno)``: a valid trace with one malformed row."""
    n = draw(st.integers(min_value=0, max_value=30))
    rows = []
    t = 0.0
    for _ in range(n):
        t += draw(st.sampled_from([0.0, 0.5, 1.0, 2.25]))
        length = draw(st.sampled_from([1.0, 1.5, 4.0, 16.0]))
        size = draw(st.sampled_from([0.1, 0.25, 1 / 3, 0.5, 1.0]))
        if fmt == "jsonl":
            rows.append(json.dumps(
                {"arrival": t, "departure": t + length, "size": size}
            ))
        else:
            rows.append(f"{t!r},{t + length!r},{size!r}")
    bad = draw(st.sampled_from(BAD_JSONL if fmt == "jsonl" else BAD_CSV))
    rows.insert(draw(st.integers(min_value=0, max_value=n)), bad)
    lines = [] if fmt == "jsonl" else ["arrival,departure,size"]
    for row in rows:
        lines += [""] * draw(st.integers(min_value=0, max_value=2))
        lines.append(row)
    return "\n".join(lines) + "\n", lines.index(bad) + 1


def _message(load, *args, **kwargs) -> str:
    with pytest.raises(InvalidInstanceError) as info:
        list(load(*args, **kwargs))  # the store readers raise as iterated
    return str(info.value)


@settings(max_examples=80, deadline=None)
@given(case=traces("jsonl"))
def test_jsonl_loaders_name_the_bad_line(case, tmp_path_factory):
    text, lineno = case
    path = tmp_path_factory.mktemp("fuzz") / "t.jsonl"
    path.write_text(text)
    boxed = _message(loads_jsonl, text)
    assert boxed.startswith(f"line {lineno}: "), boxed
    assert _message(load_jsonl, path) == boxed
    for rows in CHUNK_ROWS:
        assert _message(iter_jsonl_stores, path, chunk_rows=rows) == boxed


@settings(max_examples=80, deadline=None)
@given(case=traces("csv"))
def test_csv_loaders_name_the_bad_line(case, tmp_path_factory):
    text, lineno = case
    path = tmp_path_factory.mktemp("fuzz") / "t.csv"
    path.write_text(text)
    boxed = _message(loads_csv, text)
    assert boxed.startswith(f"line {lineno}: "), boxed
    assert _message(load_csv, path) == boxed
    for rows in CHUNK_ROWS:
        assert _message(iter_csv_stores, path, chunk_rows=rows) == boxed


@pytest.mark.parametrize("row", BAD_JSONL)
def test_every_malformed_jsonl_row_is_named(row):
    good = '{"arrival": 0.0, "departure": 2.0, "size": 0.5}'
    with pytest.raises(InvalidInstanceError, match="^line 2: "):
        loads_jsonl(f"{good}\n{row}\n{good}\n")
