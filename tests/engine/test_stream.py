"""Trace sources: lazy file streaming, ordering, merging, format sniffing."""

import pytest

from repro.core.errors import InvalidInstanceError, SimulationError
from repro.core.item import Item
from repro.engine import (
    iter_tuples,
    merge,
    open_trace,
    ordered,
    trace_format,
)
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

    def test_iter_tuples_lazy_no_sort(self):
        items = list(iter_tuples([(0.0, 1.0, 0.5), (2.0, 3.0, 0.4)]))
        assert [it.uid for it in items] == [0, 1]
        assert items[1].arrival == 2.0

    def test_ordered_passes_sorted(self, inst):
        assert list(ordered(iter(inst))) == list(inst)

    def test_ordered_rejects_regression(self):
        bad = [Item(2.0, 3.0, 0.5, uid=0), Item(1.0, 2.0, 0.5, uid=1)]
        with pytest.raises(SimulationError):
            list(ordered(iter(bad)))

    def test_merge_interleaves_and_reassigns_uids(self):
        a = [Item(0.0, 1.0, 0.1, uid=0), Item(4.0, 5.0, 0.2, uid=1)]
        b = [Item(1.0, 2.0, 0.3, uid=0), Item(4.0, 6.0, 0.4, uid=1)]
        merged = list(merge(iter(a), iter(b)))
        assert [it.arrival for it in merged] == [0.0, 1.0, 4.0, 4.0]
        assert [it.uid for it in merged] == [0, 1, 2, 3]
        # tie at t=4 keeps source priority: a's item first
        assert merged[2].size == 0.2 and merged[3].size == 0.4

    def test_merged_shards_equal_whole_trace(self, inst):
        from repro.algorithms import FirstFit
        from repro.core.simulation import simulate
        from repro.engine import Engine

        items = list(inst)
        shard_a = [it for k, it in enumerate(items) if k % 2 == 0]
        shard_b = [it for k, it in enumerate(items) if k % 2 == 1]
        summary = Engine(FirstFit()).run(merge(iter(shard_a), iter(shard_b)))
        # arrival ties may be ordered differently than the original
        # instance, so compare against a simulate() over the merged order
        from repro.core.instance import Instance

        merged_inst = Instance(list(merge(iter(shard_a), iter(shard_b))),
                               reassign_uids=False)
        assert summary.cost == simulate(FirstFit(), merged_inst).cost
