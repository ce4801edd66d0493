"""Unit tests for the parallel sweep helpers."""

import math

import pytest

from repro.parallel import (
    ALGORITHM_REGISTRY,
    parallel_map,
    ratio_task,
    replay_sharded,
    replay_task,
)
from repro.workloads.random_general import uniform_random


def square(x: int) -> int:
    return x * x


class TestParallelMap:
    def test_serial(self):
        assert parallel_map(square, [1, 2, 3]) == [1, 4, 9]

    def test_order_preserved_parallel(self):
        assert parallel_map(square, list(range(20)), workers=2) == [
            x * x for x in range(20)
        ]

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            parallel_map(square, [1], workers=0)

    def test_empty(self):
        assert parallel_map(square, []) == []

    def test_serial_fallback_when_pool_unavailable(self, monkeypatch):
        """Sandboxed/no-fork environments must degrade, not crash."""

        def broken_pool(*args, **kwargs):
            raise PermissionError("fork blocked by sandbox")

        # parallel_map imports the pool class when it first needs a pool
        monkeypatch.setattr(
            "concurrent.futures.ProcessPoolExecutor", broken_pool
        )
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            out = parallel_map(square, [1, 2, 3], workers=4)
        assert out == [1, 4, 9]

    def test_fn_errors_not_swallowed(self):
        def boom(x):
            raise ValueError("from fn")

        with pytest.raises(ValueError, match="from fn"):
            parallel_map(boom, [1], workers=1)

    def test_default_chunksize(self):
        # 100 items / (4 * 2 workers) = 12; just exercise the path
        assert parallel_map(square, list(range(100)), workers=2) == [
            x * x for x in range(100)
        ]

    def test_accepts_iterables(self):
        assert parallel_map(square, iter([1, 2, 3])) == [1, 4, 9]


class TestRatioTask:
    def test_serial_ratio(self):
        inst = uniform_random(60, 8, seed=0)
        r = ratio_task(("FirstFit", inst))
        assert r >= 1.0 - 1e-9

    def test_unknown_algorithm(self):
        inst = uniform_random(10, 4, seed=0)
        with pytest.raises(KeyError):
            ratio_task(("Nope", inst))

    def test_registry_names(self):
        assert "HybridAlgorithm" in ALGORITHM_REGISTRY
        assert "CDFF" in ALGORITHM_REGISTRY

    def test_parallel_equals_serial(self):
        cells = [
            (name, uniform_random(40, 8, seed=s))
            for s in (0, 1)
            for name in ("FirstFit", "HybridAlgorithm")
        ]
        serial = parallel_map(ratio_task, cells, workers=1)
        par = parallel_map(ratio_task, cells, workers=2)
        assert all(
            math.isclose(a, b, rel_tol=1e-12) for a, b in zip(serial, par)
        )


class TestShardedReplay:
    @pytest.fixture
    def shards(self, tmp_path):
        from repro.workloads import dump_jsonl

        paths = []
        for s in (0, 1, 2):
            path = tmp_path / f"shard{s}.jsonl"
            dump_jsonl(uniform_random(40, 8, seed=s), path)
            paths.append(path)
        return paths

    def test_replay_task(self, shards):
        from repro.core.simulation import simulate
        from repro.parallel import _registry
        from repro.workloads import load_jsonl

        summary = replay_task(("FirstFit", str(shards[0])))
        batch = simulate(_registry()["FirstFit"](), load_jsonl(shards[0]))
        assert summary["cost"] == batch.cost
        assert summary["items"] == 40

    def test_replay_task_unknown_algorithm(self, shards):
        with pytest.raises(KeyError):
            replay_task(("Nope", str(shards[0])))

    def test_sharded_aggregates(self, shards):
        agg = replay_sharded(shards, "FirstFit", workers=1)
        assert agg["n_shards"] == 3
        assert agg["items"] == 120
        assert agg["cost"] == pytest.approx(
            sum(s["cost"] for s in agg["shards"])
        )
        assert agg["cost"] == pytest.approx(
            sum(replay_task(("FirstFit", str(p)))["cost"] for p in shards)
        )

    def test_sharded_parallel_equals_serial(self, shards):
        serial = replay_sharded(shards, "HybridAlgorithm", workers=1)
        par = replay_sharded(shards, "HybridAlgorithm", workers=2)
        assert serial["cost"] == pytest.approx(par["cost"], rel=1e-12)
        assert serial["max_open"] == par["max_open"]
