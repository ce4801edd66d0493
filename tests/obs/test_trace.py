"""Tracer semantics: span nesting, ring truncation, JSONL round-trip,
and the TracingListener's agreement with the kernel's own event log."""

import time

import pytest

from repro import FirstFit, simulate, uniform_random
from repro.core.kernel import PlacementKernel
from repro.engine import Engine
from repro.obs import DEFAULT_CAPACITY, TraceEvent, Tracer, TracingListener, read_trace


class TestSpans:
    def test_event_is_instantaneous(self):
        tr = Tracer()
        tr.event("tick", n=1)
        (ev,) = tr.events()
        assert ev.kind == "event" and ev.dur_ns == 0 and ev.depth == 0
        assert ev.fields == {"n": 1}

    def test_nested_spans_record_depth_and_exit_order(self):
        tr = Tracer()
        with tr.span("outer"):
            assert tr.depth == 1
            with tr.span("inner"):
                assert tr.depth == 2
                tr.event("leaf")
        assert tr.depth == 0
        names = [e.name for e in tr.events()]
        # exit-ordered: children land in the buffer before their parent
        assert names == ["leaf", "inner", "outer"]
        leaf, inner, outer = tr.events()
        assert (leaf.depth, inner.depth, outer.depth) == (2, 1, 0)

    def test_span_containment(self):
        tr = Tracer()
        with tr.span("outer"):
            time.sleep(0.001)
            with tr.span("inner"):
                time.sleep(0.001)
        inner, outer = tr.events()
        assert outer.t_ns <= inner.t_ns
        assert inner.end_ns <= outer.end_ns
        assert inner.dur_ns > 0 and outer.dur_ns >= inner.dur_ns

    def test_span_recorded_on_exception(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("doomed"):
                raise RuntimeError("boom")
        assert [e.name for e in tr.events()] == ["doomed"]
        assert tr.depth == 0  # stack unwound

    def test_disabled_tracer_records_nothing(self):
        tr = Tracer(enabled=False)
        tr.event("e")
        with tr.span("s"):
            pass
        assert len(tr) == 0 and tr.total == 0 and tr.depth == 0


class TestRingBuffer:
    def test_truncation_keeps_newest_and_counts_dropped(self):
        tr = Tracer(capacity=10)
        for i in range(25):
            tr.event("e", i=i)
        assert len(tr) == 10
        assert tr.total == 25
        assert tr.dropped == 15
        kept = [e.fields["i"] for e in tr.events()]
        assert kept == list(range(15, 25))  # oldest evicted first

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_default_capacity(self):
        assert Tracer().capacity == DEFAULT_CAPACITY

    def test_clear_resets_counters(self):
        tr = Tracer(capacity=4)
        for _ in range(9):
            tr.event("e")
        tr.clear()
        assert len(tr) == 0 and tr.total == 0 and tr.dropped == 0


class TestJsonlRoundTrip:
    def test_write_and_read_back(self, tmp_path):
        tr = Tracer()
        tr.event("a", x=1)
        with tr.span("b", tag="t"):
            tr.event("c")
        path = tmp_path / "trace.jsonl"
        assert tr.write_jsonl(path) == 3
        loaded = read_trace(path)
        assert loaded == tr.events()
        assert all(isinstance(e, TraceEvent) for e in loaded)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"name": "x"}\n\n{"name": "y"}\n')
        loaded = read_trace(path)
        assert [e.name for e in loaded] == ["x", "y"]
        assert loaded[0].kind == "event"  # defaults fill the gaps


class TestTracingListener:
    def test_kernel_events_traced(self, tiny_instance):
        tr = Tracer()
        simulate(FirstFit(), tiny_instance, listener=TracingListener(tr))
        kinds = {e.name for e in tr.events()}
        assert kinds == {
            "kernel.advance",
            "kernel.open",
            "kernel.place",
            "kernel.depart",
            "kernel.close",
        }
        places = [e for e in tr.events() if e.name == "kernel.place"]
        assert len(places) == len(tiny_instance)

    def test_open_close_subsequence_matches_kernel_log(self):
        """The traced open/close events reproduce ON_t exactly."""
        inst = uniform_random(120, 16, seed=3)
        tr = Tracer()
        kernel = PlacementKernel(
            FirstFit(), record_events=True, listener=TracingListener(tr)
        )
        for item in inst:
            kernel.release(item)
        kernel.drain()
        traced = [
            (e.fields["time"], +1 if e.name == "kernel.open" else -1)
            for e in tr.events()
            if e.name in ("kernel.open", "kernel.close")
        ]
        assert traced == kernel.open_count_events

    def test_engine_skips_disabled_tracer(self):
        inst = uniform_random(50, 8, seed=4)
        tr = Tracer(enabled=False)
        eng = Engine(FirstFit(), tracer=tr)
        eng.run(iter(inst))
        # construct-time switch: no listener attached, nothing recorded
        assert tr.total == 0
        assert eng._kernel._listener is None

    def test_engine_traces_when_enabled(self):
        inst = uniform_random(50, 8, seed=4)
        tr = Tracer()
        eng = Engine(FirstFit(), tracer=tr)
        summary = eng.run(iter(inst))
        places = sum(1 for e in tr.events() if e.name == "kernel.place")
        opens = sum(1 for e in tr.events() if e.name == "kernel.open")
        assert places == summary.items == 50
        assert opens == summary.bins_opened
