"""Unit tests for instance CSV and JSONL I/O."""

import json

import pytest

from repro.core.errors import InvalidInstanceError
from repro.core.instance import Instance
from repro.workloads.io import (
    dump_jsonl,
    dumps_csv,
    dumps_jsonl,
    iter_jsonl_stores,
    load_csv,
    load_jsonl,
    loads_csv,
    loads_jsonl,
    save_csv,
)


class TestRoundTrip:
    def test_simple(self, tiny_instance):
        assert loads_csv(dumps_csv(tiny_instance)) == tiny_instance

    def test_file_round_trip(self, tmp_path, tiny_instance):
        path = tmp_path / "inst.csv"
        save_csv(tiny_instance, path)
        assert load_csv(path) == tiny_instance

    def test_empty(self):
        assert loads_csv(dumps_csv(Instance([]))) == Instance([])

    def test_float_exactness(self):
        inst = Instance.from_tuples([(0.1, 0.30000000000000004, 1 / 3)])
        assert loads_csv(dumps_csv(inst)) == inst

    def test_random_instances(self):
        from repro.workloads.random_general import uniform_random

        for seed in range(3):
            inst = uniform_random(60, 16, seed=seed)
            assert loads_csv(dumps_csv(inst)) == inst

    def test_tie_order_preserved(self):
        inst = Instance.from_tuples([(0, 1, 0.1), (0, 2, 0.2), (0, 3, 0.3)])
        back = loads_csv(dumps_csv(inst))
        assert [it.size for it in back] == [0.1, 0.2, 0.3]


class TestJsonlRoundTrip:
    def test_simple(self, tiny_instance):
        assert loads_jsonl(dumps_jsonl(tiny_instance)) == tiny_instance

    def test_file_round_trip(self, tmp_path, tiny_instance):
        path = tmp_path / "inst.jsonl"
        dump_jsonl(tiny_instance, path)
        assert load_jsonl(path) == tiny_instance

    def test_empty(self):
        assert loads_jsonl(dumps_jsonl(Instance([]))) == Instance([])

    def test_float_exactness(self):
        inst = Instance.from_tuples([(0.1, 0.30000000000000004, 1 / 3)])
        assert loads_jsonl(dumps_jsonl(inst)) == inst

    def test_random_instances(self):
        from repro.workloads.random_general import uniform_random

        for seed in range(3):
            inst = uniform_random(60, 16, seed=seed)
            assert loads_jsonl(dumps_jsonl(inst)) == inst

    def test_tie_order_preserved(self):
        inst = Instance.from_tuples([(0, 1, 0.1), (0, 2, 0.2), (0, 3, 0.3)])
        back = loads_jsonl(dumps_jsonl(inst))
        assert [it.size for it in back] == [0.1, 0.2, 0.3]

    def test_one_object_per_line(self, tiny_instance):
        lines = dumps_jsonl(tiny_instance).splitlines()
        assert len(lines) == len(tiny_instance)
        obj = json.loads(lines[0])
        assert set(obj) == {"arrival", "departure", "size"}

    def test_blank_lines_ignored(self, tiny_instance):
        text = dumps_jsonl(tiny_instance).replace("\n", "\n\n")
        assert loads_jsonl(text) == tiny_instance

    def test_whitespace_only_lines_ignored(self, tiny_instance):
        text = "  \n" + dumps_jsonl(tiny_instance) + "\t\n   \n"
        assert loads_jsonl(text) == tiny_instance

    def test_missing_trailing_newline(self, tiny_instance):
        text = dumps_jsonl(tiny_instance).rstrip("\n")
        assert loads_jsonl(text) == tiny_instance

    def test_csv_jsonl_agree(self, tiny_instance):
        assert loads_jsonl(dumps_jsonl(tiny_instance)) == loads_csv(
            dumps_csv(tiny_instance)
        )


def iter_rows(path, chunk_rows=3):
    """Every item :func:`iter_jsonl_stores` yields, across its chunks
    (small chunks, so uid continuity across boundaries is exercised)."""
    return [
        item
        for chunk in iter_jsonl_stores(path, chunk_rows=chunk_rows)
        for item in chunk
    ]


class TestIterJsonl:
    def test_streaming_matches_load(self, tmp_path):
        from repro.workloads.random_general import uniform_random

        inst = uniform_random(50, 8, seed=1)
        path = tmp_path / "t.jsonl"
        dump_jsonl(inst, path)
        assert iter_rows(path) == list(load_jsonl(path))

    def test_file_order_not_sorted(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"arrival": 5.0, "departure": 6.0, "size": 0.5}\n'
            '{"arrival": 1.0, "departure": 2.0, "size": 0.5}\n'
        )
        arrivals = [it.arrival for it in iter_rows(path)]
        assert arrivals == [5.0, 1.0]  # streaming never reorders

    def test_uids_sequential(self, tmp_path, tiny_instance):
        path = tmp_path / "t.jsonl"
        dump_jsonl(tiny_instance, path)
        assert [it.uid for it in iter_rows(path)] == list(
            range(len(tiny_instance))
        )

    def test_blank_lines_skipped_without_uid_gaps(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '\n{"arrival": 0.0, "departure": 1.0, "size": 0.5}\n'
            '   \n'
            '{"arrival": 2.0, "departure": 3.0, "size": 0.5}\n\n'
        )
        items = iter_rows(path)
        assert [it.uid for it in items] == [0, 1]
        assert [it.arrival for it in items] == [0.0, 2.0]

    def test_missing_trailing_newline(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"arrival": 0.0, "departure": 1.0, "size": 0.5}\n'
            '{"arrival": 2.0, "departure": 3.0, "size": 0.5}'
        )
        assert len(iter_rows(path)) == 2


class TestJsonlErrors:
    def test_bad_json(self):
        with pytest.raises(InvalidInstanceError, match="line 1"):
            loads_jsonl("{not json}\n")

    def test_missing_field(self):
        with pytest.raises(InvalidInstanceError, match="size"):
            loads_jsonl('{"arrival": 0.0, "departure": 1.0}\n')

    def test_non_object_line(self):
        with pytest.raises(InvalidInstanceError, match="line 1"):
            loads_jsonl("[1, 2, 0.5]\n")

    def test_non_numeric(self):
        with pytest.raises(InvalidInstanceError):
            loads_jsonl('{"arrival": 0.0, "departure": 1.0, "size": "big"}\n')

    def test_iter_jsonl_bad_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"arrival": 0.0, "departure": 1.0, "size": 0.5}\nnope\n')
        with pytest.raises(InvalidInstanceError, match="line 2"):
            iter_rows(path)

    def test_invalid_item_reports_line_number(self):
        # departs before it arrives: an Item-level failure that must
        # surface as a line-numbered instance error, not InvalidItemError
        with pytest.raises(InvalidInstanceError, match="line 2"):
            loads_jsonl(
                '{"arrival": 0.0, "departure": 1.0, "size": 0.5}\n'
                '{"arrival": 5.0, "departure": 2.0, "size": 0.5}\n'
            )

    def test_iter_jsonl_invalid_item_reports_line_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '\n{"arrival": 0.0, "departure": 1.0, "size": 0.0}\n'
        )
        with pytest.raises(InvalidInstanceError, match="line 2"):
            iter_rows(path)


class TestErrors:
    def test_bad_header(self):
        with pytest.raises(InvalidInstanceError):
            loads_csv("a,b,c\n1,2,0.5\n")

    def test_wrong_column_count(self):
        with pytest.raises(InvalidInstanceError):
            loads_csv("arrival,departure,size\n1,2\n")

    def test_non_numeric(self):
        with pytest.raises(InvalidInstanceError):
            loads_csv("arrival,departure,size\n1,2,big\n")

    def test_invalid_item_reports_line_number(self):
        with pytest.raises(InvalidInstanceError, match="line 2"):
            loads_csv("arrival,departure,size\n5,2,0.5\n")  # dep < arr
