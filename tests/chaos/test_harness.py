"""run_chaos end to end: every fault kind, healed and judged by oracles."""

from __future__ import annotations

import dataclasses
import json
import time

import pytest

from repro.testkit import (
    FaultPlan,
    NetWindow,
    ShardEvent,
    SimNetPolicy,
    run_chaos,
)


def _assert_clean(report):
    assert report.ok, report.summary()
    assert report.client.abandoned == 0
    assert not report.client.terminal
    assert len(report.client.acked) == report.client.sent == report.plan.n_items


class TestNoFault:
    def test_all_items_ack_first_try(self):
        report = run_chaos(FaultPlan(seed=1, shards=2, n_items=40))
        _assert_clean(report)
        assert report.client.resends == 0
        assert all(r.attempts == 1 for r in report.client.acked)
        assert sum(report.net_faults.values()) == 0

    def test_single_shard(self):
        _assert_clean(run_chaos(FaultPlan(seed=2, shards=1, n_items=30)))

    @pytest.mark.parametrize(
        "algorithm", ["FirstFit", "BestFit", "HybridAlgorithm"]
    )
    def test_parity_across_algorithms(self, algorithm):
        report = run_chaos(
            FaultPlan(seed=3, shards=2, n_items=40, algorithm=algorithm)
        )
        _assert_clean(report)
        for detail in report.verdict.per_shard:
            # served cost, max_open and bins_opened all equal batch's
            assert detail["served_cost"] is not None
            assert detail["served_max_open"] is not None
            assert detail["problems"] == []

    def test_perturbed_decision_fails_the_oracle(self, monkeypatch):
        """One acked item's bin changed before judging: the chaos oracle
        must fail and name the shard and the decision."""
        from repro.testkit import harness

        judge = harness.check_oracles

        def perturbed(plan, report, stats, **kwargs):
            rec = next(r for r in report.acked if r.shard == 1)
            i = report.acked.index(rec)
            report.acked[i] = dataclasses.replace(rec, bin=rec.bin + 1)
            return judge(plan, report, stats, **kwargs)

        monkeypatch.setattr(harness, "check_oracles", perturbed)
        report = run_chaos(FaultPlan(seed=3, shards=2, n_items=40))
        assert not report.ok
        assert any(
            f.startswith("shard 1: served vs simulate(): 1 bin decisions")
            for f in report.failures
        ), report.failures


class TestCrashRecovery:
    def test_crash_then_explicit_recover(self):
        report = run_chaos(FaultPlan(
            seed=4, shards=2, n_items=60,
            events=[
                ShardEvent(kind="crash", at=0.06, shard=0),
                ShardEvent(kind="recover", at=0.12, shard=0),
            ],
        ))
        _assert_clean(report)
        assert report.client.resends > 0  # the outage was actually felt

    def test_crash_healed_implicitly(self):
        # no recover event: the harness's heal point must revive it
        report = run_chaos(FaultPlan(
            seed=5, shards=2, n_items=60,
            events=[ShardEvent(kind="crash", at=0.06, shard=0)],
        ))
        _assert_clean(report)
        assert any(e.startswith("heal@") for e in report.events_fired)

    def test_mid_batch_crash(self):
        report = run_chaos(FaultPlan(
            seed=6, shards=2, n_items=60, batch_max=4, batch_delay=0.001,
            events=[
                ShardEvent(
                    kind="crash", at=0.04, shard=0, after_applies=2
                ),
                ShardEvent(kind="recover", at=0.14, shard=0),
            ],
        ))
        _assert_clean(report)

    def test_stall_overload_window(self):
        report = run_chaos(FaultPlan(
            seed=7, shards=2, n_items=60, max_queue=8,
            events=[
                ShardEvent(
                    kind="stall", at=0.03, shard=0, duration=0.15
                ),
            ],
        ))
        _assert_clean(report)

    def test_crash_during_stall(self):
        # Regression (found by the 200-schedule sweep, seed 50): a crash
        # landing while the worker is parked in a stall cancels it with a
        # dequeued job in hand; that job is invisible to _fail_queue, and
        # its unanswered futures deadlocked the connection's drain.
        report = run_chaos(FaultPlan(
            seed=50, shards=1, n_items=60,
            events=[
                ShardEvent(kind="stall", at=0.05, shard=0, duration=0.2),
                ShardEvent(kind="crash", at=0.1, shard=0),
            ],
        ))
        _assert_clean(report)

    def test_graceful_restart_under_traffic(self):
        report = run_chaos(FaultPlan(
            seed=8, shards=2, n_items=80,
            events=[ShardEvent(kind="restart", at=0.08)],
        ))
        _assert_clean(report)
        # both senders lost their connection and came back
        assert report.client.reconnects > report.plan.shards


class TestNetworkWindows:
    def test_lossy_window_heals(self):
        report = run_chaos(FaultPlan(
            seed=11, shards=2, n_items=80, timeout=0.05, backoff=0.01,
            net_windows=[NetWindow(
                at=0.02, duration=0.15,
                policy=SimNetPolicy(
                    drop=0.1, delay=0.4, delay_s=0.02, reorder=0.15,
                    truncate=0.05, disconnect=0.05,
                ),
            )],
        ))
        _assert_clean(report)
        assert sum(report.net_faults.values()) > 0
        assert report.client.resends > 0

    def test_total_blackout_window(self):
        report = run_chaos(FaultPlan(
            seed=12, shards=1, n_items=30, timeout=0.05, backoff=0.01,
            net_windows=[NetWindow(
                at=0.02, duration=0.06,
                policy=SimNetPolicy(drop=1.0),
            )],
        ))
        _assert_clean(report)
        assert report.net_faults["frames_dropped"] > 0


class TestDeterminismAndShape:
    def test_same_plan_same_report(self):
        plan = FaultPlan(
            seed=13, shards=2, n_items=50,
            events=[
                ShardEvent(kind="crash", at=0.05, shard=1),
                ShardEvent(kind="recover", at=0.11, shard=1),
            ],
            net_windows=[NetWindow(
                at=0.02, duration=0.08,
                policy=SimNetPolicy(drop=0.1, delay=0.3, delay_s=0.01),
            )],
        )
        first = run_chaos(plan)
        second = run_chaos(plan)
        assert first.to_dict() == second.to_dict()

    def test_report_is_json_serializable(self):
        report = run_chaos(FaultPlan(seed=14, shards=2, n_items=20))
        decoded = json.loads(json.dumps(report.to_dict()))
        assert decoded["ok"] is True
        assert decoded["client"]["acked"] == 20

    def test_no_wall_clock_sleeps(self):
        # ~0.5s of virtual time incl. a long stall must run much faster
        wall0 = time.perf_counter()
        report = run_chaos(FaultPlan(
            seed=15, shards=2, n_items=40,
            events=[ShardEvent(
                kind="stall", at=0.02, shard=0, duration=2.0
            )],
        ))
        wall = time.perf_counter() - wall0
        _assert_clean(report)
        assert report.virtual_duration > 2.0
        assert wall < 10.0

    def test_exactly_once_uid_streams(self):
        report = run_chaos(FaultPlan(
            seed=16, shards=3, n_items=60,
            events=[
                ShardEvent(kind="crash", at=0.03, shard=0),
                ShardEvent(kind="recover", at=0.09, shard=0),
            ],
        ))
        _assert_clean(report)
        for shard in range(3):
            uids = sorted(
                r.uid for r in report.client.acked if r.shard == shard
            )
            assert uids == list(range(len(uids)))


class TestSharedSampler:
    """An injected stack sampler rides across restarts and lands in the
    report; the harness never stops a sampler it does not own mid-plan."""

    def test_sampler_survives_restart_and_reports_stats(self):
        from repro.obs.prof import StackSampler

        sampler = StackSampler(500.0)
        report = run_chaos(
            FaultPlan(
                seed=8, shards=2, n_items=80,
                events=[ShardEvent(kind="restart", at=0.08)],
            ),
            sampler=sampler,
        )
        _assert_clean(report)
        assert not sampler.running  # harness stops it at plan end
        assert report.profile is not None
        assert report.profile["hz"] == 500.0
        assert report.profile["samples"] >= 0
        assert report.to_dict()["profile"] == report.profile

    def test_no_sampler_leaves_profile_empty(self):
        report = run_chaos(FaultPlan(seed=1, shards=1, n_items=20))
        assert report.profile is None
        assert report.to_dict()["profile"] is None
