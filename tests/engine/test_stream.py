"""Trace sources: lazy file streaming and format sniffing."""

import pytest

from repro.core.errors import InvalidInstanceError
from repro.engine import open_trace, trace_format
from repro.workloads import dump_jsonl, load_jsonl, save_csv, uniform_random


@pytest.fixture
def inst():
    return uniform_random(60, 8, seed=12)


def items_of(chunks):
    """The boxed items of a chunked source, in order."""
    return [item for chunk in chunks for item in chunk]


class TestFileSources:
    def test_iter_jsonl_matches_load(self, inst, tmp_path):
        path = tmp_path / "t.jsonl"
        dump_jsonl(inst, path)
        # small chunks: uids must continue across chunk boundaries
        streamed = items_of(open_trace(path, chunk_rows=7))
        assert streamed == list(load_jsonl(path))
        assert [it.uid for it in streamed] == list(range(len(inst)))

    def test_iter_jsonl_is_lazy(self, inst, tmp_path):
        path = tmp_path / "t.jsonl"
        dump_jsonl(inst, path)
        it = open_trace(path, chunk_rows=1)
        chunk = next(it)
        assert len(chunk) == 1
        assert chunk[0].arrival == inst[0].arrival

    def test_iter_csv_matches_instance(self, inst, tmp_path):
        path = tmp_path / "t.csv"
        save_csv(inst, path)
        assert items_of(open_trace(path)) == list(inst)

    def test_iter_csv_bad_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n1,2,0.5\n")
        with pytest.raises(InvalidInstanceError):
            items_of(open_trace(path))

    def test_open_trace_auto(self, inst, tmp_path):
        j = tmp_path / "t.jsonl"
        c = tmp_path / "t.csv"
        dump_jsonl(inst, j)
        save_csv(inst, c)
        assert items_of(open_trace(j)) == items_of(open_trace(c))

    def test_open_trace_unknown_extension(self, tmp_path):
        with pytest.raises(InvalidInstanceError):
            open_trace(tmp_path / "t.parquet")
        assert trace_format("x.jsonl") == "jsonl"
        assert trace_format("x.csv") == "csv"


class TestAdapters:
    def test_instance_iterator_is_a_boxed_source(self, inst):
        # an instance's own iterator is the boxed item source
        from repro.algorithms import FirstFit
        from repro.engine import Engine

        assert list(iter(inst)) == list(inst)
        boxed = Engine(FirstFit()).run(iter(inst))
        assert boxed == Engine(FirstFit()).run(inst)
