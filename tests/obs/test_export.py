"""Exporters: the JSON sink and trace aggregation."""

import json

import pytest

from repro import FirstFit, uniform_random
from repro.engine import EngineMetrics
from repro.obs import JSONSink, Tracer, summarize_trace


@pytest.fixture
def snapshot():
    ml = EngineMetrics()
    from repro import simulate

    simulate(FirstFit(), uniform_random(80, 8, seed=1), listener=ml)
    return ml.snapshot()


class TestSinks:
    def test_json_sink_overwrites(self, tmp_path, snapshot):
        path = tmp_path / "m.json"
        sink = JSONSink(path)
        sink.emit({"counters": {"arrivals": 1}})
        sink.emit(snapshot)
        assert json.loads(path.read_text()) == snapshot


class TestSummarizeTrace:
    def test_round_trip(self, tmp_path):
        tr = Tracer()
        for _ in range(5):
            tr.event("kernel.place")
        with tr.span("replay"):
            tr.event("kernel.close")
        path = tmp_path / "t.jsonl"
        tr.write_jsonl(path)
        text = summarize_trace(path)
        assert "7 events" in text
        assert "kernel.place" in text and "replay" in text
        # spans sort above zero-duration events (by total duration)
        lines = text.splitlines()
        assert lines.index(
            next(ln for ln in lines if "replay" in ln)
        ) < lines.index(next(ln for ln in lines if "kernel.place" in ln))

    def test_empty_trace_raises(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty trace"):
            summarize_trace(path)

    def test_whitespace_only_trace_raises(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text("\n\n  \n")
        with pytest.raises(ValueError, match="empty trace"):
            summarize_trace(path)

    def test_bad_line_raises_with_location(self, tmp_path):
        # corruption mid-file is fatal; only a truncated *final* line
        # (a crash mid-write) is tolerated with a warning
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "ok"}\nnot json\n{"name": "ok"}\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            summarize_trace(path)

    def test_truncated_final_line_warns(self, tmp_path):
        path = tmp_path / "cut.jsonl"
        path.write_text('{"name": "ok"}\n{"name": "ok", "t_n')
        summary = summarize_trace(path)
        assert "warning: final line 2 is truncated" in summary

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            summarize_trace(tmp_path / "nope.jsonl")
