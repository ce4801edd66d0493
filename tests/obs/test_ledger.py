"""The run ledger and the regression sentinel (repro.obs.ledger)."""

import json
import pathlib

import pytest

from repro import FirstFit, simulate, uniform_random
from repro.obs.invariants import InvariantMonitor
from repro.obs.ledger import (
    DEFAULT_LEDGER_DIR,
    LEDGER_ENV,
    Drift,
    LedgerSink,
    RunRecord,
    config_hash,
    diff_records,
    flatten_metrics,
    git_sha,
    parse_tolerances,
    read_baseline,
    read_ledger,
    read_record,
    regress,
    resolve_ledger_dir,
)


def make_record(**overrides):
    base = dict(
        kind="replay",
        algorithm="FirstFit",
        generator="uniform_1k.jsonl",
        config={"capacity": 1.0},
        metrics={"cost": 100.0, "bins": 10},
    )
    base.update(overrides)
    return RunRecord(**base)


class TestResolution:
    def test_explicit_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(LEDGER_ENV, str(tmp_path / "env"))
        assert resolve_ledger_dir(tmp_path / "flag") == tmp_path / "flag"

    def test_env_beats_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(LEDGER_ENV, str(tmp_path / "env"))
        assert resolve_ledger_dir(None) == tmp_path / "env"

    def test_default(self, monkeypatch):
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        assert str(resolve_ledger_dir(None)) == DEFAULT_LEDGER_DIR

    def test_git_sha_in_repo(self):
        sha = git_sha()
        assert sha is None or (len(sha) == 40 and set(sha) <= set("0123456789abcdef"))

    def test_config_hash_is_order_insensitive(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})
        assert config_hash(None) == config_hash({})


class TestRunRecord:
    def test_round_trip(self, tmp_path):
        rec = make_record(seed=7)
        path = rec.write(tmp_path)
        assert path.parent == tmp_path
        assert path.name.startswith("replay-")
        loaded = read_record(path)
        assert loaded.key == rec.key
        assert loaded.metrics == rec.metrics
        assert loaded.seed == 7

    def test_run_id_deterministic_and_content_sensitive(self):
        a, b = make_record(), make_record()
        assert a.run_id == b.run_id
        c = make_record(metrics={"cost": 101.0, "bins": 10})
        assert c.run_id != a.run_id

    def test_key_ignores_metrics_but_not_config(self):
        a = make_record()
        b = make_record(metrics={"cost": 5.0})
        assert a.key == b.key
        c = make_record(config={"capacity": 2.0})
        assert a.key != c.key

    def test_damaged_record_raises_value_error(self, tmp_path):
        bad = tmp_path / "x.json"
        bad.write_text("{truncated")
        with pytest.raises(ValueError, match="not a ledger record"):
            read_record(bad)
        bad.write_text('{"no": "kind"}')
        with pytest.raises(ValueError, match="no 'kind' field"):
            read_record(bad)

    def test_read_ledger_skips_baseline_and_sorts(self, tmp_path):
        make_record(algorithm="B").write(tmp_path)
        make_record(algorithm="A").write(tmp_path)
        (tmp_path / "baseline.json").write_text(json.dumps({"records": []}))
        recs = read_ledger(tmp_path)
        assert [r.algorithm for r in recs] == ["A", "B"]

    def test_read_ledger_missing_dir_is_empty(self, tmp_path):
        assert read_ledger(tmp_path / "nope") == []

    def test_read_baseline_both_shapes(self, tmp_path):
        rec = make_record()
        as_list = tmp_path / "list.json"
        as_list.write_text(json.dumps([rec.to_dict()]))
        as_dict = tmp_path / "dict.json"
        as_dict.write_text(json.dumps({"records": [rec.to_dict()]}))
        assert read_baseline(as_list)[0].key == rec.key
        assert read_baseline(as_dict)[0].key == rec.key
        bad = tmp_path / "bad.json"
        bad.write_text('"just a string"')
        with pytest.raises(ValueError, match="list of records"):
            read_baseline(bad)


class TestLedgerSink:
    def test_emit_writes_record_with_provenance(self, tmp_path):
        sink = LedgerSink(
            kind="simulate",
            algorithm="FirstFit",
            generator="uniform",
            config={"n": 10},
            seed=3,
            ledger_dir=tmp_path,
        )
        sink.emit({"cost": 12.5})
        assert sink.last_path is not None and sink.last_path.exists()
        rec = read_record(sink.last_path)
        assert rec.kind == "simulate"
        assert rec.metrics == {"cost": 12.5}
        assert rec.seed == 3
        assert rec.wall_s is not None and rec.wall_s >= 0
        assert rec.created_unix is not None

    def test_emit_attaches_invariant_verdicts(self, tmp_path):
        inst = uniform_random(50, 8, seed=1)
        monitor = InvariantMonitor(algorithm="FirstFit")
        result = simulate(FirstFit(), inst, listener=monitor)
        monitor.finalize()
        sink = LedgerSink(
            kind="simulate", algorithm="FirstFit", generator="uniform",
            ledger_dir=tmp_path, invariants=monitor,
        )
        sink.emit({"cost": result.cost})
        rec = read_record(sink.last_path)
        assert rec.invariants["ok"] is True
        assert rec.n_violations == 0

    def test_wall_s_override(self, tmp_path):
        sink = LedgerSink(
            kind="bench", algorithm="X", generator="g",
            ledger_dir=tmp_path, wall_s=1.25,
        )
        sink.emit({})
        assert read_record(sink.last_path).wall_s == 1.25


class TestFlattenAndDiff:
    def test_flatten_drops_nondeterministic_sections(self):
        rec = make_record(
            metrics={"cost": 1.0, "timings": {"place": {"mean_us": 3.0}}},
            wall_s=9.9,
        )
        flat = flatten_metrics(rec)
        assert flat["metrics.cost"] == 1.0
        assert not any(k.startswith("metrics.timings") for k in flat)
        assert "wall_s" not in flat
        assert flat["invariants.n_violations"] == 0.0

    def test_flatten_counts_violations_not_their_bodies(self):
        rec = make_record(
            invariants={"ok": False, "span": 2.0,
                        "violations": [{"invariant": "capacity"}]},
        )
        flat = flatten_metrics(rec)
        assert flat["invariants.n_violations"] == 1.0
        assert flat["invariants.span"] == 2.0
        assert not any("violations." in k for k in flat)

    def test_identical_records_have_zero_drift(self):
        drifts = diff_records(make_record(), make_record())
        assert all(d.ok for d in drifts)
        assert all(d.rel == 0.0 for d in drifts)

    def test_cost_drift_beyond_tolerance_fails(self):
        a = make_record()
        b = make_record(metrics={"cost": 110.0, "bins": 10})
        drifts = {d.metric: d for d in diff_records(a, b)}
        assert not drifts["metrics.cost"].ok
        assert drifts["metrics.cost"].rel == pytest.approx(10 / 110)
        assert drifts["metrics.bins"].ok

    def test_custom_tolerance_pattern(self):
        a = make_record()
        b = make_record(metrics={"cost": 101.0, "bins": 10})
        loose = diff_records(a, b, {"metrics.cost": 0.05})
        assert all(d.ok for d in loose)

    def test_missing_metric_is_infinite_drift(self):
        a = make_record()
        b = make_record(metrics={"cost": 100.0})  # "bins" vanished
        drifts = {d.metric: d for d in diff_records(a, b)}
        assert drifts["metrics.bins"].rel == float("inf")
        assert not drifts["metrics.bins"].ok

    def test_new_violations_always_fail_even_with_loose_tol(self):
        a = make_record(invariants={"ok": True, "violations": []})
        b = make_record(
            invariants={"ok": False, "violations": [{"invariant": "span-cost"}]}
        )
        drifts = {
            d.metric: d
            for d in diff_records(a, b, {"invariants.n_violations": 100.0})
        }
        assert not drifts["invariants.n_violations"].ok

    def test_disappearing_violations_are_tolerated(self):
        a = make_record(
            invariants={"ok": False, "violations": [{"invariant": "x"}]}
        )
        b = make_record(invariants={"ok": True, "violations": []})
        drifts = {d.metric: d for d in diff_records(a, b)}
        assert drifts["invariants.n_violations"].ok

    def test_failing_drifts_sort_first(self):
        a = make_record()
        b = make_record(metrics={"cost": 200.0, "bins": 10})
        drifts = diff_records(a, b)
        assert not drifts[0].ok


class TestRegress:
    def test_matched_clean_records_pass(self):
        report = regress([make_record()], [make_record()])
        assert report.ok
        assert "PASS" in report.render()

    def test_drifted_cost_fails_with_nonempty_failures(self):
        current = make_record(metrics={"cost": 150.0, "bins": 10})
        report = regress([current], [make_record()])
        assert not report.ok
        assert report.failures
        text = report.render()
        assert "FAIL" in text and "metrics.cost" in text

    def test_unmatched_records_never_gate(self):
        baseline = make_record()
        newcomer = make_record(algorithm="BestFit")
        report = regress([newcomer], [baseline])
        assert report.ok  # nothing compared, nothing failed
        assert report.new and report.missing
        text = report.render()
        assert "not gated" in text

    def test_stale_config_baseline_fails_naming_the_keys(self):
        # the baseline predates a config key the current run now records
        current = make_record(config={"capacity": 1.0, "resumed": False})
        report = regress([current], [make_record()])
        assert not report.ok
        assert not report.compared and not report.missing
        ((base, cur, keys),) = report.stale
        assert keys == ["resumed"] and cur is current
        text = report.render()
        assert "STALE" in text and "resumed" in text
        assert "regress: FAIL" in text

    def test_stale_names_every_differing_key(self):
        current = make_record(config={"capacity": 2.0, "limit": 5})
        report = regress([current], [make_record()])
        assert report.stale[0][2] == ["capacity", "limit"]

    def test_matched_baseline_is_not_stale(self):
        # a second current run under another config is just new
        other = make_record(config={"capacity": 1.0, "resumed": True})
        report = regress([make_record(), other], [make_record()])
        assert report.ok and not report.stale
        assert report.new == [other]

    def test_empty_everything_passes(self):
        report = regress([], [])
        assert report.ok
        assert "nothing to compare" in report.render()

    def test_corrupted_run_trips_the_gate(self, tmp_path):
        # end-to-end: a deliberately skewed monitor must fail regress
        inst = uniform_random(60, 8, seed=5)

        def record_for(corrupt):
            monitor = InvariantMonitor(algorithm="FirstFit")
            result = simulate(FirstFit(), inst, listener=monitor)
            if corrupt:
                monitor._corrupt("span", result.cost + 10.0)
            monitor.finalize()
            sink = LedgerSink(
                kind="simulate", algorithm="FirstFit", generator="uniform",
                ledger_dir=tmp_path, invariants=monitor,
            )
            sink.emit({"cost": result.cost})
            return read_record(sink.last_path)

        clean, corrupted = record_for(False), record_for(True)
        report = regress([corrupted], [clean])
        assert not report.ok
        assert any(
            d.metric == "invariants.n_violations" for _, d in report.failures
        )


class TestFrozenBaseline:
    """The committed ``.ledger/baseline.json`` against the CI sentinel's
    own replays: both records gate, and the gate can fail."""

    ROOT = pathlib.Path(__file__).resolve().parents[2]
    TRACE = ROOT / "examples" / "traces" / "uniform_1k.jsonl"
    BASELINE = ROOT / ".ledger" / "baseline.json"

    @pytest.fixture(scope="class")
    def ledger(self, tmp_path_factory):
        from repro.cli import main

        led = tmp_path_factory.mktemp("sentinel")
        for algorithm in ("FirstFit", "HybridAlgorithm"):
            assert main(
                ["replay", str(self.TRACE), "-a", algorithm, "--invariants",
                 "--ledger-dir", str(led)]
            ) == 0
        return led

    def _regress(self, ledger, baseline, capsys):
        from repro.cli import main

        capsys.readouterr()
        rc = main(["obs", "regress", "--ledger-dir", str(ledger),
                   "--baseline", str(baseline)])
        return rc, capsys.readouterr().out

    def test_exact_match_passes_and_gates_both_records(self, ledger):
        report = regress(read_ledger(ledger), read_baseline(self.BASELINE))
        assert report.ok, report.render()
        assert len(report.compared) == 2
        assert not (report.missing or report.new or report.stale)

    def test_drifted_cost_fails(self, ledger, tmp_path, capsys):
        base = json.loads(self.BASELINE.read_text())
        base["records"][0]["metrics"]["cost"] += 1.0
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(base))
        rc, out = self._regress(ledger, path, capsys)
        assert rc == 1
        assert "metrics.cost" in out and "regress: FAIL" in out

    def test_stale_config_key_fails(self, ledger, tmp_path, capsys):
        base = json.loads(self.BASELINE.read_text())
        for rec in base["records"]:
            del rec["config"]["resumed"]  # as frozen before the key existed
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(base))
        rc, out = self._regress(ledger, path, capsys)
        assert rc == 1
        assert out.count("STALE") == 2 and "resumed" in out


class TestParseTolerances:
    def test_parses_patterns(self):
        assert parse_tolerances(["metrics.cost=0.01", "x*=2"]) == {
            "metrics.cost": 0.01, "x*": 2.0,
        }

    def test_rejects_malformed(self):
        with pytest.raises(ValueError, match="PATTERN=REL"):
            parse_tolerances(["nope"])
        with pytest.raises(ValueError, match="not a number"):
            parse_tolerances(["metrics.cost=abc"])

    def test_drift_dataclass_roundtrip(self):
        d = Drift(metric="m", baseline=1.0, current=2.0, rel=0.5, tolerance=0.1)
        assert not d.ok
        assert d.to_dict()["ok"] is False
