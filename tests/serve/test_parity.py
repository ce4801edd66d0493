"""Service parity: a served trace matches batch ``simulate()`` exactly."""

from __future__ import annotations

import asyncio

import pytest

import repro.serve.shard as shard_module
from repro.engine.metrics import EngineMetrics
from repro.engine.parity import (
    ALIGNED_ALGORITHMS,
    GENERAL_ALGORITHMS,
    ParityReport,
    default_parity_cells,
)
from repro.serve.parity import (
    _serve_instance,
    check_service_parity,
    served_problems,
    service_parity_suite,
)
from repro.workloads import aligned_random, uniform_random


def _served(algorithm, inst):
    """One unbatched served run: (arrive replies, final stats)."""
    return asyncio.run(
        _serve_instance(
            algorithm, inst, capacity=1.0, batch_max=1, batch_delay=0.0
        )
    )


class TestSingleCells:
    def test_first_fit_uniform(self):
        inst = uniform_random(120, 16.0, seed=3)
        report = check_service_parity("FirstFit", inst, workload="uniform")
        assert report.ok, str(report)
        assert report.layer == "serve" and report.n_items == 120
        # no error replies, decisions, opened flags and the exact cost
        # all agree: the core reports nothing
        assert report.problems == ()

    def test_hybrid_micro_batched(self):
        # batching must not perturb a single decision
        inst = uniform_random(100, 16.0, seed=5)
        report = check_service_parity(
            "HybridAlgorithm", inst, workload="uniform",
            batch_max=8, batch_delay=0.005,
        )
        assert report.ok, str(report)

    def test_aligned_algorithm_on_aligned_input(self):
        inst = aligned_random(32, 90, seed=1)
        report = check_service_parity("CDFF", inst, workload="aligned")
        assert report.ok, str(report)


class TestSweep:
    def test_default_cells_cover_the_registry(self):
        # the service sweep runs the engine sweep's cells
        names = {name for name, _, _ in default_parity_cells(seed=0)}
        assert set(GENERAL_ALGORITHMS) <= names
        assert set(ALIGNED_ALGORITHMS) <= names

    def test_suite_over_selected_cells(self):
        inst = uniform_random(60, 8.0, seed=2)
        cells = [
            ("FirstFit", "uniform-small", inst),
            ("NextFit", "uniform-small", inst),
        ]
        reports = service_parity_suite(cells)
        assert len(reports) == 2
        assert all(r.ok for r in reports), "\n".join(map(str, reports))


class TestReport:
    def test_mismatch_is_flagged(self):
        report = ParityReport(
            "serve", "FirstFit", "w", 10, ("cost 6.0 vs batch 5.0",)
        )
        assert not report.ok
        assert "MISMATCH" in str(report)
        assert "cost 6.0 vs batch 5.0" in str(report)

    def test_errors_spoil_parity(self):
        inst = uniform_random(30, 8.0, seed=4)
        replies, stats = _served("FirstFit", inst)
        assert served_problems(replies, stats, "FirstFit", inst) == ()
        replies[5] = {"ok": False, "error": "overloaded", "seq": 5}
        problems = served_problems(replies, stats, "FirstFit", inst)
        assert problems and "1 error replies" in problems[0]

    def test_perturbed_decision_fails(self):
        """One served bin changed: the serve parity path must fail."""
        inst = uniform_random(30, 8.0, seed=4)
        replies, stats = _served("FirstFit", inst)
        replies[7] = dict(replies[7], bin=replies[7]["bin"] + 1)
        problems = served_problems(replies, stats, "FirstFit", inst)
        assert any("1 bin decisions differ (first: item 7" in p
                   for p in problems), problems


class DropsLastClose(EngineMetrics):
    """A registry whose fold loses the last close it has buffered."""

    def fold(self):
        del self._closed[-3:]
        super().fold()


class TestMetricsGate:
    """Serve parity compares the served registry with a batch one."""

    def test_served_snapshot_is_compared(self):
        inst = uniform_random(60, 8.0, seed=6)
        replies, stats = _served("HybridAlgorithm", inst)
        assert stats["metrics"]["counters"]["arrivals"] == 60
        assert served_problems(replies, stats, "HybridAlgorithm", inst) == ()
        stats["metrics"]["counters"]["bins_closed"] += 1
        problems = served_problems(replies, stats, "HybridAlgorithm", inst)
        assert any(p.startswith("metrics counters.bins_closed")
                   for p in problems), problems

    @pytest.mark.parametrize("batch", [(1, 0.0), (16, 0.0005)])
    def test_fold_dropping_its_last_close_fails(self, batch, monkeypatch):
        monkeypatch.setattr(shard_module, "EngineMetrics", DropsLastClose)
        inst = uniform_random(80, 8.0, seed=7)
        report = check_service_parity(
            "FirstFit", inst, workload="uniform",
            batch_max=batch[0], batch_delay=batch[1],
        )
        assert not report.ok
        assert any(p.startswith("metrics histograms.bin_occupancy")
                   for p in report.problems), report.problems
