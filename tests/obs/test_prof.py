"""Unit tests for the continuous profiling plane (repro.obs.prof):
the statistical stack sampler, the flamegraph exporters, and the
trace critical-path analytics."""

import json
import signal
import socket
import threading
import time

import pytest

from repro.obs.prof import (
    DEFAULT_HZ,
    Frame,
    Profile,
    Stack,
    StackSampler,
    analyze_events,
    analyze_trace,
    frame_label,
    merge_profiles,
    render_top,
    to_collapsed,
    to_speedscope,
    top_functions,
    write_speedscope,
)
from repro.obs.trace import TraceEvent


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #
def _profile(stacks, frames, **kw):
    defaults = dict(hz=DEFAULT_HZ, samples=sum(s.count for s in stacks),
                    missed=0, truncated=0, duration_s=1.0)
    defaults.update(kw)
    return Profile(frames=tuple(frames), stacks=tuple(stacks), **defaults)


FRAMES = (
    Frame("main", "/app/main.py", 1),
    Frame("work", "/app/jobs/work.py", 10),
    Frame("leaf", "/app/jobs/work.py", 42),
)

STACKS = (
    Stack("MainThread", (0, 1), 3),
    Stack("MainThread", (0, 1, 2), 5),
    Stack("worker", (0, 2), 2),
)


def _spin(n=2000):
    """Pure-Python CPU work, no I/O."""
    total = 0
    for k in range(n):
        total += k * k
    return total


def _spin_other(n=2000):
    total = 0
    for k in range(n):
        total -= k
    return total


def _burn(cpu_s, *work):
    """Run ``work`` in turn until ``cpu_s`` of process CPU time is spent."""
    work = work or (_spin,)
    deadline = time.process_time() + cpu_s
    while time.process_time() < deadline:
        for fn in work:
            fn()


def _leaf_weight(profile, name):
    return sum(
        s.count for s in profile.stacks
        if profile.frames[s.frames[-1]].name == name
    )


# ---------------------------------------------------------------------- #
# StackSampler
# ---------------------------------------------------------------------- #
class TestStackSampler:
    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            StackSampler(0.0)
        with pytest.raises(ValueError):
            StackSampler(-5)
        with pytest.raises(ValueError):
            StackSampler(97.0, max_stacks=0)

    def test_samples_a_busy_thread(self):
        # the main thread: the only one a SIGPROF handler runs on
        with StackSampler(500.0) as sampler:
            _burn(0.25)
        profile = sampler.profile
        assert profile.samples > 0
        assert profile.total_weight == profile.samples
        assert profile.threads == ("MainThread",)
        assert _leaf_weight(profile, "_spin") > 0

    def test_cpu_work_between_socket_round_trips_draws_the_samples(self):
        # pure-Python work interleaved with tiny non-blocking I/O: the
        # samples must follow the CPU time, which is nearly all in _spin,
        # not land only where the loop calls into the socket layer
        a, b = socket.socketpair()
        a.setblocking(False)
        b.setblocking(False)
        try:
            with StackSampler(997.0) as sampler:
                deadline = time.process_time() + 0.5
                while time.process_time() < deadline:
                    _spin()
                    a.send(b"x")
                    b.recv(1)
        finally:
            a.close()
            b.close()
        profile = sampler.profile
        # ITIMER_PROF fires at the kernel's tick granularity, so 997 Hz
        # may yield only 100-250 samples per CPU second
        assert profile.samples >= 20
        assert _leaf_weight(profile, "_spin") >= 0.6 * profile.total_weight

    def test_sleeping_draws_no_samples(self):
        with StackSampler(997.0) as sampler:
            time.sleep(0.05)
        assert sampler.profile.samples <= 2  # entry and exit CPU only

    def test_stop_is_idempotent_and_sets_profile(self):
        sampler = StackSampler(200.0)
        sampler.start()
        first = sampler.stop()
        second = sampler.stop()
        assert not sampler.running
        assert sampler.profile is second
        assert second.samples == first.samples

    def test_stop_disarms_the_timer_and_restores_the_handler(self):
        def prior(signum, frame):
            pass

        old = signal.signal(signal.SIGPROF, prior)
        try:
            sampler = StackSampler(500.0).start()
            assert signal.getitimer(signal.ITIMER_PROF) != (0.0, 0.0)
            assert signal.getsignal(signal.SIGPROF) is not prior
            sampler.stop()
            assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
            assert signal.getsignal(signal.SIGPROF) is prior
        finally:
            signal.signal(signal.SIGPROF, old)

    def test_a_second_armed_sampler_is_refused(self):
        with StackSampler(200.0) as first:
            second = StackSampler(200.0)
            with pytest.raises(RuntimeError, match="already armed"):
                second.start()
            assert first.running and not second.running
        # once the first is stopped the slot is free again
        with StackSampler(200.0) as third:
            assert third.running

    def test_start_off_the_main_thread_is_refused(self):
        errors = []

        def body():
            try:
                StackSampler(200.0).start()
            except RuntimeError as exc:
                errors.append(str(exc))

        worker = threading.Thread(target=body)
        worker.start()
        worker.join()
        assert errors and "main thread" in errors[0]
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)

    def test_disabled_sampler_is_a_no_op(self):
        # never started: nothing installed, an empty profile on stop()
        sampler = StackSampler(97.0)
        assert not sampler.running
        profile = sampler.stop()
        assert profile.samples == 0
        assert profile.stacks == ()
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)

    def test_context_manager(self):
        with StackSampler(200.0) as sampler:
            assert sampler.running
            time.sleep(0.02)
        assert not sampler.running
        assert sampler.profile is not None

    def test_snapshot_while_running_is_safe(self):
        with StackSampler(500.0) as sampler:
            _burn(0.05)
            snap = sampler.snapshot()
            assert sampler.running  # snapshot does not stop
            _burn(0.05)
        assert 0 < snap.samples <= sampler.profile.samples
        assert snap.duration_s <= sampler.profile.duration_s
        Profile.from_dict(snap.to_dict())  # frame indices all in range

    def test_overflow_folds_into_truncated_bucket(self):
        # a one-stack budget with two alternating leaf functions: every
        # stack after the first lands in (truncated), and total weight
        # must still be conserved
        with StackSampler(997.0, max_stacks=1) as sampler:
            _burn(0.2, _spin, _spin_other)
        profile = sampler.profile
        assert profile.truncated >= 1
        assert _leaf_weight(profile, "(truncated)") == profile.truncated
        assert profile.total_weight == profile.samples


class TestProfileSerialization:
    def test_round_trip_through_dict(self):
        profile = _profile(STACKS, FRAMES, missed=2, truncated=1)
        assert Profile.from_dict(profile.to_dict()) == profile

    def test_write_read_round_trip(self, tmp_path):
        profile = _profile(STACKS, FRAMES)
        path = profile.write(tmp_path / "p.prof.json")
        assert Profile.read(path) == profile
        # deterministic bytes: rewriting yields the same file
        text = path.read_text()
        profile.write(path)
        assert path.read_text() == text

    def test_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            Profile.from_dict({"schema": 99})

    def test_rejects_out_of_range_frame_index(self):
        data = _profile(STACKS, FRAMES).to_dict()
        data["stacks"][0]["frames"] = [17]
        with pytest.raises(ValueError, match="frame table"):
            Profile.from_dict(data)

    def test_stats_summary(self):
        stats = _profile(STACKS, FRAMES, missed=4).stats()
        assert stats["unique_stacks"] == 3
        assert stats["threads"] == 2
        assert stats["missed"] == 4


class TestMergeProfiles:
    def test_merge_reinterns_and_sums(self):
        a = _profile(STACKS, FRAMES)
        # same logical stacks, different frame-table order
        frames_b = (FRAMES[2], FRAMES[0], FRAMES[1])
        b = _profile(
            [Stack("MainThread", (1, 2), 10), Stack("worker", (1, 0), 1)],
            frames_b,
        )
        merged = merge_profiles([a, b])
        assert merged.samples == a.samples + b.samples
        weights = {(s.thread, s.frames): s.count for s in merged.stacks}
        main_chain = next(
            (k for k in weights
             if k[0] == "MainThread" and len(k[1]) == 2), None
        )
        assert weights[main_chain] == 3 + 10  # (main, work) from both
        assert merged.total_weight == a.total_weight + b.total_weight

    def test_merge_empty_is_empty_profile(self):
        merged = merge_profiles([])
        assert merged.samples == 0
        assert merged.stacks == ()


# ---------------------------------------------------------------------- #
# flame exporters
# ---------------------------------------------------------------------- #
class TestFlame:
    def test_frame_label_short_and_escaped(self):
        frame = Frame("run;batch", "/deep/path/mod.py", 7)
        assert frame_label(frame) == "run:batch (mod.py:7)"
        assert frame_label(frame, short=False) == \
            "run:batch (/deep/path/mod.py:7)"
        assert frame_label(Frame("(truncated)", "", 0)) == "(truncated)"

    def test_collapsed_is_sorted_and_weighted(self):
        text = to_collapsed(_profile(STACKS, FRAMES))
        lines = text.strip().splitlines()
        assert lines == sorted(lines)
        assert len(lines) == 3
        parsed = {}
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            parsed[stack] = int(count)
        key = "MainThread;main (main.py:1);work (work.py:10);leaf (work.py:42)"
        assert parsed[key] == 5
        assert sum(parsed.values()) == 10

    def test_speedscope_round_trips_and_conserves_weight(self):
        profile = _profile(STACKS, FRAMES)
        scope = to_speedscope(profile, name="unit")
        assert scope == json.loads(json.dumps(scope))
        assert scope["$schema"].startswith("https://www.speedscope.app")
        assert [p["name"] for p in scope["profiles"]] == \
            ["MainThread", "worker"]
        for prof in scope["profiles"]:
            assert prof["type"] == "sampled"
            assert len(prof["samples"]) == len(prof["weights"])
            assert prof["endValue"] == sum(prof["weights"])
        total = sum(sum(p["weights"]) for p in scope["profiles"])
        assert total == profile.total_weight

    def test_write_speedscope(self, tmp_path):
        path = write_speedscope(_profile(STACKS, FRAMES), tmp_path / "s.json")
        scope = json.loads(path.read_text())
        assert scope["shared"]["frames"][0]["name"] == "main"

    def test_top_functions_self_vs_cumulative(self):
        rows = top_functions(_profile(STACKS, FRAMES))
        by_name = {frame.name: (self_w, cum_w)
                   for frame, self_w, cum_w in rows}
        assert by_name["leaf"] == (7, 7)    # leaf of stacks 2 and 3
        assert by_name["work"] == (3, 8)    # leaf once, on-stack twice
        assert by_name["main"] == (0, 10)   # never the leaf, always on
        # sorted by self weight descending
        assert [frame.name for frame, _, _ in rows] == \
            ["leaf", "work", "main"]

    def test_top_functions_count_recursion_once(self):
        frames = (Frame("fib", "fib.py", 1),)
        rows = top_functions(
            _profile([Stack("MainThread", (0, 0, 0), 4)], frames)
        )
        ((frame, self_w, cum_w),) = rows
        assert (self_w, cum_w) == (4, 4)  # once per sample, not per frame

    def test_render_top_table(self):
        text = render_top(_profile(STACKS, FRAMES, missed=3), top=2)
        assert "10 samples at 97 Hz" in text
        assert "3 ticks missed" in text
        assert "leaf" in text and "work" in text
        assert "main" not in text.split("\n", 1)[1]  # cut by top=2

    def test_render_top_empty_profile(self):
        text = render_top(_profile([], []))
        assert "(no samples captured)" in text


# ---------------------------------------------------------------------- #
# critical-path analytics
# ---------------------------------------------------------------------- #
def _span(name, t_ns, dur_ns, depth=0, **fields):
    return TraceEvent(name=name, kind="span", t_ns=t_ns, dur_ns=dur_ns,
                      depth=depth, fields=fields)


def _request_events(trace="t-1", shard=0):
    """One fully-instrumented request with gaps between every phase."""
    base = {"trace": trace}
    return [
        _span("request", 0, 1000, depth=0, op="arrive", shard=shard,
              status="ok", **base),
        _span("req.parse", 0, 100, depth=1, **base),
        _span("req.batch", 150, 180, depth=1, **base),
        _span("req.queue", 350, 100, depth=1, **base),
        _span("req.kernel", 500, 300, depth=1, **base),
        _span("req.write", 850, 100, depth=1, **base),
    ]


class TestCriticalPathRequests:
    def test_attribution_is_exhaustive(self):
        report = analyze_events(_request_events())
        (req,) = report.requests
        assert req.coverage == 1.0
        assert req.attributed_ns == req.dur_ns == 1000
        # gaps got their stable derived names
        names = [s.name for s in req.slices]
        assert names == ["parse", "dispatch", "batch", "handoff", "queue",
                         "dequeue", "kernel", "resolve", "write", "post"]
        derived = {s.name for s in req.slices if s.derived}
        assert derived == {"dispatch", "handoff", "dequeue", "resolve",
                           "post"}

    def test_queueing_delay_is_batch_plus_queue(self):
        (req,) = analyze_events(_request_events()).requests
        assert req.queueing_ns == 180 + 100
        assert 0 < req.instrumented_coverage < 1.0

    def test_children_clip_to_root_window(self):
        events = [
            _span("request", 100, 200, depth=0, trace="t", op="arrive",
                  shard=0, status="ok"),
            # starts before the root and ends after it
            _span("req.kernel", 0, 1000, depth=1, trace="t"),
        ]
        (req,) = analyze_events(events).requests
        assert req.attributed_ns == 200
        assert req.coverage == 1.0

    def test_requests_join_children_on_trace_field(self):
        events = _request_events("t-a", shard=0) + \
            _request_events("t-b", shard=1)
        report = analyze_events(events)
        assert [r.trace for r in report.requests] == ["t-a", "t-b"]
        for req in report.requests:
            assert req.coverage == 1.0
        assert report.phases["kernel"]["count"] == 2

    def test_report_is_deterministic(self):
        events = _request_events("t-a") + _request_events("t-b", shard=1)
        a = json.dumps(analyze_events(events).to_dict(), sort_keys=True)
        b = json.dumps(analyze_events(events).to_dict(), sort_keys=True)
        assert a == b

    def test_render_mentions_phases_and_attribution(self):
        text = analyze_events(_request_events()).render()
        assert "critical-path phases" in text
        assert "queueing delay (batch+queue)" in text
        assert "attribution: 100.0% minimum per-request" in text
        assert "slowest request" in text

    def test_summary_block(self):
        out = analyze_events(_request_events()).to_dict()
        assert out["mode"] == "requests"
        assert out["summary"]["requests"] == 1
        assert out["summary"]["min_coverage"] == 1.0


class TestCriticalPathSpans:
    def _events(self):
        # exit order: children close before their parent
        return [
            _span("feed", 10, 400, depth=1),
            _span("place", 420, 100, depth=1),
            _span("replay", 0, 600, depth=0),
        ]

    def test_forest_reconstruction_and_self_time(self):
        report = analyze_events(self._events())
        assert report.mode == "spans"
        assert report.orphans == 0
        assert report.names["replay"]["self_ns"] == 600 - 400 - 100
        assert report.names["feed"]["total_ns"] == 400

    def test_critical_path_follows_heaviest_child(self):
        report = analyze_events(self._events())
        assert [h["name"] for h in report.critical_path] == \
            ["replay", "feed"]
        assert report.critical_path[0]["depth"] == 0

    def test_non_contained_children_become_orphans(self):
        events = [
            _span("stray", 900, 500, depth=1),  # outside the root window
            _span("root", 0, 600, depth=0),
        ]
        report = analyze_events(events)
        assert report.orphans == 1
        assert report.names["root"]["self_ns"] == 600

    def test_render_spans(self):
        text = analyze_events(self._events()).render()
        assert "self time by span name" in text
        assert "critical path" in text


class TestAnalyzeTrace:
    def test_span_free_file_raises(self, tmp_path):
        path = tmp_path / "flat.jsonl"
        path.write_text(json.dumps(
            {"name": "kernel.place", "t_ns": 1, "dur_ns": 0, "depth": 0}
        ) + "\n")
        with pytest.raises(ValueError, match="no spans"):
            analyze_trace(path)

    def test_file_round_trip_matches_in_memory(self, tmp_path):
        events = _request_events()
        path = tmp_path / "serve.jsonl"
        with open(path, "w") as fh:
            for ev in events:
                fh.write(json.dumps({
                    "name": ev.name, "kind": ev.kind, "t_ns": ev.t_ns,
                    "dur_ns": ev.dur_ns, "depth": ev.depth,
                    "fields": ev.fields,
                }) + "\n")
        from_file = analyze_trace(path)
        in_memory = analyze_events(events, path=str(path))
        assert from_file.to_dict() == in_memory.to_dict()
