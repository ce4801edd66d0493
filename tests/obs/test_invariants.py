"""The online theory-invariant monitors (repro.obs.invariants)."""

import pytest

from repro import (
    FirstFit,
    HybridAlgorithm,
    aligned_random,
    simulate,
    uniform_random,
)
from repro.engine import Engine
from repro.obs import Tracer
from repro.obs.invariants import (
    RATIO_BOUNDS,
    InvariantMonitor,
    InvariantViolationError,
    ratio_bound_for,
)

from ..conftest import aligned_algorithm_factories, all_algorithm_factories


def run_monitored(factory, instance, *, algorithm=None, **kwargs):
    monitor = InvariantMonitor(
        algorithm=algorithm if algorithm is not None else factory(), **kwargs
    )
    result = simulate(factory(), instance, listener=monitor)
    monitor.finalize()
    return monitor, result


class TestCleanRuns:
    @pytest.mark.parametrize(
        "name,factory", all_algorithm_factories(),
        ids=[n for n, _ in all_algorithm_factories()],
    )
    def test_general_workload_has_no_violations(self, name, factory):
        inst = uniform_random(200, 32, seed=7)
        monitor, result = run_monitored(factory, inst)
        assert monitor.ok, monitor.violations
        assert monitor.checks > 0
        # the independently re-derived cost agrees with the result
        assert monitor.recomputed_cost() == pytest.approx(result.cost)

    @pytest.mark.parametrize(
        "name,factory", aligned_algorithm_factories(),
        ids=[n for n, _ in aligned_algorithm_factories()],
    )
    def test_aligned_workload_has_no_violations(self, name, factory):
        inst = aligned_random(16, 150, seed=3)
        monitor, result = run_monitored(factory, inst)
        assert monitor.ok, monitor.violations
        assert monitor.recomputed_cost() == pytest.approx(result.cost)

    def test_span_and_demand_bracket_cost(self):
        inst = uniform_random(300, 64, seed=11)
        monitor, result = run_monitored(FirstFit, inst)
        assert monitor.span <= result.cost + 1e-6
        assert monitor.demand / monitor.capacity <= result.cost + 1e-6
        st = inst.stats
        assert monitor.span == pytest.approx(st.span)
        assert monitor.demand == pytest.approx(st.demand)
        assert monitor.mu == pytest.approx(st.mu)

    def test_engine_path_finalizes_monitor(self):
        inst = uniform_random(120, 16, seed=5)
        monitor = InvariantMonitor(algorithm="FirstFit")
        engine = Engine(FirstFit(), invariants=monitor)
        for item in inst:
            engine.feed(item)
        summary = engine.finish()
        assert monitor.ok, monitor.violations
        verdicts = monitor.verdicts()
        assert verdicts["finalized"] is True
        assert verdicts["recomputed_cost"] == pytest.approx(summary.cost)

    def test_disjoint_instance_span_equals_cost(self, disjoint_instance):
        monitor, result = run_monitored(FirstFit, disjoint_instance)
        assert monitor.ok
        assert monitor.span == pytest.approx(3.0)
        assert result.cost == pytest.approx(3.0)


class TestRatioBounds:
    def test_registry_names(self):
        assert "HybridAlgorithm" in RATIO_BOUNDS
        assert "CDFF" in RATIO_BOUNDS
        assert ratio_bound_for("FirstFit") is not None
        assert ratio_bound_for("NoSuchAlgorithm") is None
        assert ratio_bound_for(HybridAlgorithm()) is RATIO_BOUNDS["HA"]

    def test_explicit_bound_overrides_algorithm(self):
        monitor = InvariantMonitor(algorithm="FirstFit", bound=lambda mu: 2.0)
        assert monitor.bound(10.0) == 2.0

    def test_violated_bound_is_reported(self):
        # a bound of 0 is unsatisfiable: any positive cost violates it
        inst = uniform_random(50, 8, seed=1)
        monitor = InvariantMonitor(bound=lambda mu: 0.0)
        simulate(FirstFit(), inst, listener=monitor)
        monitor.finalize()
        kinds = {v.invariant for v in monitor.violations}
        assert kinds == {"ratio-bound"}


class TestCorruptionHook:
    def test_cost_corruption_trips_cost_identity(self):
        inst = uniform_random(80, 8, seed=2)
        monitor = InvariantMonitor(algorithm="FirstFit")
        kernel_events = simulate(FirstFit(), inst, listener=monitor)
        monitor._corrupt("cost", 5.0)
        assert monitor.recomputed_cost() != pytest.approx(kernel_events.cost)

    def test_span_corruption_trips_span_cost_at_finalize(self):
        inst = uniform_random(80, 8, seed=2)
        monitor = InvariantMonitor()
        result = simulate(FirstFit(), inst, listener=monitor)
        monitor._corrupt("span", result.cost + 100.0)
        monitor.finalize()
        kinds = {v.invariant for v in monitor.violations}
        assert "span-cost" in kinds

    def test_invariant_sweep_gate_fails_on_corruption(
        self, monkeypatch, capsys
    ):
        """The CI invariant sweep must exit non-zero when a monitor's
        accounting is corrupted, and zero when it is not."""
        import importlib.util
        import pathlib
        import sys

        script = (
            pathlib.Path(__file__).resolve().parents[2]
            / "scripts" / "invariant_sweep.py"
        )
        spec = importlib.util.spec_from_file_location("invariant_sweep", script)
        sweep = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sweep)
        monkeypatch.setattr(sys, "argv", ["invariant_sweep.py", "--n-items", "30"])
        assert sweep.main() == 0
        finalize = InvariantMonitor.finalize

        def corrupted(self):
            self._corrupt("span", 1e6)
            return finalize(self)

        monkeypatch.setattr(InvariantMonitor, "finalize", corrupted)
        assert sweep.main() == 1
        assert "VIOLATION" in capsys.readouterr().out

    def test_demand_corruption_trips_demand_cost(self):
        inst = uniform_random(80, 8, seed=2)
        monitor = InvariantMonitor()
        result = simulate(FirstFit(), inst, listener=monitor)
        monitor._corrupt("demand", (result.cost + 50.0) * monitor.capacity)
        monitor.finalize()
        kinds = {v.invariant for v in monitor.violations}
        assert "demand-cost" in kinds

    def test_unknown_corruption_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown corruption kind"):
            InvariantMonitor()._corrupt("nonsense")

    def test_violation_emits_structured_trace_event(self):
        inst = uniform_random(60, 8, seed=4)
        tracer = Tracer(256)
        monitor = InvariantMonitor(tracer=tracer)
        result = simulate(FirstFit(), inst, listener=monitor)
        monitor._corrupt("span", result.cost + 10.0)
        monitor.finalize()
        assert not monitor.ok
        events = [e for e in tracer.events() if e.name == "invariant.violation"]
        assert events, "violation must surface as a trace event"
        fields = events[0].fields
        assert fields["invariant"] == "span-cost"
        assert fields["observed"] > fields["expected"]

    def test_strict_mode_raises(self):
        inst = uniform_random(60, 8, seed=4)
        monitor = InvariantMonitor(strict=True)
        result = simulate(FirstFit(), inst, listener=monitor)
        monitor._corrupt("span", result.cost + 10.0)
        with pytest.raises(InvariantViolationError, match="span-cost"):
            monitor.finalize()

    def test_lenient_mode_records_and_continues(self):
        inst = uniform_random(60, 8, seed=4)
        monitor = InvariantMonitor(strict=False)
        result = simulate(FirstFit(), inst, listener=monitor)
        monitor._corrupt("span", result.cost + 10.0)
        monitor._corrupt("demand", (result.cost + 10.0) * monitor.capacity)
        monitor.finalize()
        assert len(monitor.violations) == 2


class TestVerdicts:
    def test_verdicts_shape_is_json_friendly(self):
        import json

        inst = uniform_random(40, 8, seed=6)
        monitor, result = run_monitored(FirstFit, inst)
        verdicts = monitor.verdicts()
        json.dumps(verdicts)
        assert verdicts["ok"] is True
        assert verdicts["arrivals"] == 40
        assert verdicts["departures"] == 40
        assert verdicts["bins_opened"] == verdicts["bins_closed"]
        assert verdicts["violations"] == []

    def test_finalize_is_idempotent(self):
        inst = uniform_random(40, 8, seed=6)
        monitor = InvariantMonitor()
        result = simulate(FirstFit(), inst, listener=monitor)
        monitor._corrupt("span", result.cost + 1.0)
        first = list(monitor.finalize())
        second = list(monitor.finalize())
        assert first == second  # checks don't re-run / re-append

    def test_empty_run_verdicts(self):
        monitor = InvariantMonitor()
        monitor.finalize()
        verdicts = monitor.verdicts()
        assert verdicts["ok"] is True
        assert verdicts["mu"] is None
        assert verdicts["recomputed_cost"] == 0.0


class TestCheckpointInteraction:
    def test_restored_engine_drops_monitor(self, tmp_path):
        from repro.engine import load_checkpoint, save_checkpoint

        inst = uniform_random(50, 8, seed=9)
        items = list(inst)
        monitor = InvariantMonitor()
        engine = Engine(FirstFit(), invariants=monitor)
        for item in items[:25]:
            engine.feed(item)
        path = tmp_path / "mid.ckpt"
        save_checkpoint(engine, path)
        resumed = load_checkpoint(path)
        assert resumed.invariants is None
        # a fresh monitor attached mid-stream adopts the open-bin state
        # and accrued cost (bind sync), keeps the per-event checks clean,
        # and marks itself partial so the whole-run bounds are skipped
        fresh = InvariantMonitor()
        resumed.invariants = fresh
        resumed.add_listener(fresh)
        for item in items[25:]:
            resumed.feed(item)
        summary = resumed.finish()
        fresh.finalize()
        assert fresh.ok, fresh.violations
        verdicts = fresh.verdicts()
        assert verdicts["partial"] is True
        assert fresh.recomputed_cost() == pytest.approx(summary.cost)

    def test_from_start_monitor_is_not_partial(self):
        inst = uniform_random(50, 8, seed=9)
        monitor = InvariantMonitor()
        engine = Engine(FirstFit(), invariants=monitor)
        for item in inst:
            engine.feed(item)
        engine.finish()
        assert monitor.ok
        assert monitor.verdicts()["partial"] is False
