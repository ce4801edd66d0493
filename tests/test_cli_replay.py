"""Tests for the `repro-dbp replay` CLI command."""

import json

import pytest

from repro.cli import main
from repro.workloads import dump_jsonl, save_csv, uniform_random


@pytest.fixture
def instance():
    return uniform_random(200, 16, seed=0)


@pytest.fixture
def jsonl_path(tmp_path, instance):
    path = tmp_path / "trace.jsonl"
    dump_jsonl(instance, path)
    return str(path)


@pytest.fixture
def csv_path(tmp_path, instance):
    path = tmp_path / "trace.csv"
    save_csv(instance, path)
    return str(path)


class TestReplay:
    def test_basic(self, jsonl_path, capsys):
        assert main(["replay", jsonl_path, "-a", "FirstFit"]) == 0
        out = capsys.readouterr().out
        assert "FirstFit: cost=" in out
        assert "200 items replayed" in out

    def test_matches_pack_cost(self, jsonl_path, csv_path, capsys):
        assert main(["replay", jsonl_path, "-a", "FirstFit"]) == 0
        replay_out = capsys.readouterr().out
        assert main(["pack", csv_path, "-a", "FirstFit"]) == 0
        pack_out = capsys.readouterr().out
        cost = [l for l in replay_out.splitlines() if "cost=" in l][0]
        cost = cost.split("cost=")[1].split()[0]
        assert f"cost={cost}" in pack_out

    def test_csv_trace(self, csv_path, capsys):
        assert main(["replay", csv_path]) == 0
        assert "HybridAlgorithm" in capsys.readouterr().out

    def test_verify(self, jsonl_path, capsys):
        assert main(["replay", jsonl_path, "--verify"]) == 0
        assert "parity vs simulate(): Δcost=0" in capsys.readouterr().out

    def test_verify_fails_on_a_perturbed_decision(
        self, jsonl_path, monkeypatch, capsys
    ):
        """One streamed item's bin changed: --verify must exit 1 and
        name the decision."""
        import dataclasses

        from repro.engine import Engine

        result = Engine.result

        def perturbed(self):
            res = result(self)
            assignment = dict(res.assignment)
            assignment[10] += 1
            return dataclasses.replace(res, assignment=assignment)

        monkeypatch.setattr(Engine, "result", perturbed)
        rc = main(["replay", jsonl_path, "--verify", "--no-ledger"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "parity vs simulate(): MISMATCH" in out
        assert "1 bin decisions differ (first: item 10" in out

    @pytest.mark.parametrize(
        "bad",
        [
            '{"arrival": 1.0, "departure": "x", "size": 0.5}',
            '{"arrival": 1.0, "departure": [2], "size": 0.5}',
            '{"arrival": 1%s, "departure": 2.0, "size": 0.5}' % ("0" * 400),
            '{"arrival": 1.0, "departure": 2.0, "size": %s}' % ("7" * 5000),
        ],
    )
    def test_malformed_trace_is_one_error_line(self, tmp_path, capsys, bad):
        good = '{"arrival": 0.0, "departure": 2.0, "size": 0.5}'
        path = tmp_path / "bad.jsonl"
        path.write_text(f"{good}\n{good}\n{bad}\n{good}\n")
        assert main(["replay", str(path), "--no-ledger"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: line 3: "), err

    def test_unknown_trace_extension_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "trace.parquet"
        path.write_text('{"arrival": 0.0, "departure": 2.0, "size": 0.5}\n')
        assert main(["replay", str(path), "--no-ledger"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot infer"), err

    @pytest.mark.parametrize(
        "payload,message",
        [
            (b"\x80\x05K\x01.", "error: this is a pre-v4 pickle checkpoint"),
            (b'{"format": "repro-dbp checkp', "error: checkpoint data is unreadable"),
            (None, "error: [Errno 2]"),
        ],
        ids=["pickle", "truncated", "missing"],
    )
    def test_bad_resume_file_is_one_error_line(
        self, jsonl_path, tmp_path, capsys, payload, message
    ):
        ckpt = tmp_path / "run.ckpt"
        if payload is not None:
            ckpt.write_bytes(payload)
        rc = main(["replay", jsonl_path, "--resume", str(ckpt), "--no-ledger"])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(message), err

    def test_limit(self, jsonl_path, capsys):
        assert main(["replay", jsonl_path, "--limit", "50"]) == 0
        assert "50 items replayed" in capsys.readouterr().out

    def test_metrics_written(self, jsonl_path, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        assert main(["replay", jsonl_path, "--metrics", str(out)]) == 0
        snap = json.loads(out.read_text())
        assert snap["counters"]["arrivals"] == 200
        assert snap["cost"] > 0  # summary travels in the snapshot

    def test_unknown_algorithm(self, jsonl_path, capsys):
        assert main(["replay", jsonl_path, "-a", "Nope"]) == 1

    def test_checkpoint_and_resume_identical_cost(
        self, jsonl_path, tmp_path, capsys
    ):
        ckpt = tmp_path / "engine.ckpt"
        assert (
            main(
                [
                    "replay", jsonl_path, "-a", "HybridAlgorithm",
                    "--checkpoint-every", "75", "--checkpoint", str(ckpt),
                ]
            )
            == 0
        )
        full_out = capsys.readouterr().out
        assert ckpt.exists()
        assert (
            main(
                ["replay", jsonl_path, "-a", "HybridAlgorithm",
                 "--resume", str(ckpt)]
            )
            == 0
        )
        resume_out = capsys.readouterr().out
        assert "resumed from" in resume_out
        cost_line = [l for l in full_out.splitlines() if "cost=" in l][0]
        assert cost_line in resume_out  # bit-identical summary line

    def test_resume_verify_needs_recording_checkpoint(
        self, jsonl_path, tmp_path, capsys
    ):
        ckpt = tmp_path / "engine.ckpt"
        main(
            ["replay", jsonl_path, "--checkpoint-every", "100",
             "--checkpoint", str(ckpt)]
        )
        capsys.readouterr()
        assert (
            main(["replay", jsonl_path, "--resume", str(ckpt), "--verify"])
            == 1
        )

    @pytest.mark.parametrize(
        "flags",
        [["-a", "BestFit"], ["-a", "FirstFit", "--capacity", "2"], []],
        ids=["algorithm", "capacity", "default-algorithm"],
    )
    def test_resume_with_other_run_flags_is_one_error_line(
        self, jsonl_path, tmp_path, capsys, flags
    ):
        # --verify, the invariant monitor and the ledger read -a and
        # --capacity: on another run's values they would check the
        # restored run against the wrong algorithm or capacity
        ckpt = tmp_path / "engine.ckpt"
        assert main(
            ["replay", jsonl_path, "-a", "FirstFit", "--verify",
             "--checkpoint-every", "150", "--checkpoint", str(ckpt),
             "--no-ledger"]
        ) == 0
        capsys.readouterr()
        rc = main(["replay", jsonl_path, *flags, "--resume", str(ckpt),
                   "--verify", "--no-ledger"])
        out, err = capsys.readouterr()
        assert rc == 2
        err = err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "FirstFit run at capacity 1;" in err[0]
        assert "MISMATCH" not in out

    def test_resume_verify_invariants_trace(self, jsonl_path, tmp_path,
                                            capsys):
        ckpt = tmp_path / "engine.ckpt"
        trace = tmp_path / "resumed.jsonl"
        led = tmp_path / "led"
        assert main(
            ["replay", jsonl_path, "-a", "FirstFit", "--verify",
             "--checkpoint-every", "150", "--checkpoint", str(ckpt),
             "--no-ledger"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["replay", jsonl_path, "-a", "FirstFit", "--no-index",
             "--resume", str(ckpt), "--verify", "--invariants",
             "--trace", str(trace), "--ledger-dir", str(led)]
        ) == 0
        out = capsys.readouterr().out
        assert "parity vs simulate(): Δcost=0" in out and "-> ok" in out
        assert "invariants:" in out and "-> ok" in out.split("invariants:")[1]
        assert trace.read_text().strip()
        from repro.obs.ledger import read_ledger

        (rec,) = read_ledger(led)
        # the checkpoint's engine is indexed; --no-index does not reach it
        assert rec.config["indexed"] is True

    def test_no_index_bit_identical_costs_and_counters(
        self, jsonl_path, tmp_path, capsys
    ):
        """The open-bin index is a pure accelerator: costs AND the
        deterministic obs sections must match the linear-scan fallback
        exactly (not just approximately)."""
        m_fast = tmp_path / "fast.json"
        m_slow = tmp_path / "slow.json"
        assert main(["replay", jsonl_path, "--metrics", str(m_fast)]) == 0
        fast_out = capsys.readouterr().out
        assert (
            main(["replay", jsonl_path, "--no-index",
                  "--metrics", str(m_slow)])
            == 0
        )
        slow_out = capsys.readouterr().out
        cost_line = [l for l in fast_out.splitlines() if "cost=" in l][0]
        assert cost_line in slow_out  # bit-identical summary line
        fast = json.loads(m_fast.read_text())
        slow = json.loads(m_slow.read_text())
        # the registry reads no clock: the whole snapshot is deterministic
        assert fast == slow


class TestReplayObservability:
    def test_trace_written_and_well_formed(self, jsonl_path, tmp_path, capsys):
        out = tmp_path / "events.jsonl"
        assert main(["replay", jsonl_path, "--trace", str(out)]) == 0
        assert f"-> {out}" in capsys.readouterr().out
        names = set()
        with out.open() as fh:
            for line in fh:
                rec = json.loads(line)  # every line is valid JSON
                assert {"name", "kind", "t_ns", "dur_ns", "depth"} <= set(rec)
                names.add(rec["name"])
        assert "kernel.place" in names and "kernel.close" in names

    def test_trace_capacity_caps_the_file(self, jsonl_path, tmp_path, capsys):
        out = tmp_path / "events.jsonl"
        assert (
            main(["replay", jsonl_path, "--trace", str(out),
                  "--trace-capacity", "64"])
            == 0
        )
        assert "dropped" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 64

    def test_sample_hz_writes_a_profile(self, tmp_path, capsys):
        from repro.obs.prof import Profile

        # enough items for the replay to span several CPU-time ticks
        trace = tmp_path / "big.jsonl"
        dump_jsonl(uniform_random(8000, 16, seed=0), trace)
        out = tmp_path / "replay.prof.json"
        assert main(
            ["replay", str(trace), "--sample-hz", "997",
             "--profile-out", str(out), "--no-ledger"]
        ) == 0
        assert f"-> {out}" in capsys.readouterr().out
        profile = Profile.read(out)
        assert profile.hz == 997.0
        assert profile.samples > 0

    def test_trace_survives_resume(self, jsonl_path, tmp_path, capsys):
        ckpt = tmp_path / "engine.ckpt"
        main(["replay", jsonl_path, "--checkpoint-every", "100",
              "--checkpoint", str(ckpt)])
        capsys.readouterr()
        out = tmp_path / "resumed.jsonl"
        assert (
            main(["replay", jsonl_path, "--resume", str(ckpt),
                  "--trace", str(out)])
            == 0
        )
        assert out.exists() and out.read_text().strip()


class TestObsSummarize:
    def test_summarize_round_trip(self, jsonl_path, tmp_path, capsys):
        out = tmp_path / "events.jsonl"
        main(["replay", jsonl_path, "--trace", str(out)])
        capsys.readouterr()
        assert main(["obs", "summarize", str(out)]) == 0
        text = capsys.readouterr().out
        assert "kernel.place" in text and "events over" in text

    def test_summarize_missing_file(self, tmp_path, capsys):
        assert main(["obs", "summarize", str(tmp_path / "nope.jsonl")]) == 1
        assert "obs summarize:" in capsys.readouterr().err

    def test_summarize_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('not json at all\n{"name": "ok"}\n')
        assert main(["obs", "summarize", str(bad)]) == 1
        assert "not a JSONL trace line" in capsys.readouterr().err
