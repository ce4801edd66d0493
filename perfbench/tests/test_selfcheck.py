"""The benchmark's own checks: its contract, and that it can fail.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

Each falsifiability case runs the benchmark on a known-bad variant of
the program, chosen with existing program options only, and requires
the benchmark to flag it:

- ``replay-bestfit`` with the kernel's open-bin index off
  (``indexed=False``) must read as an ``items_per_ref_s`` regression
  larger than the metric's bound;
- ``serve-hybrid-sharded`` against ``serve --telemetry`` must read as
  an ``items_per_ref_s`` regression larger than the bound;
- one altered decision must fail the parity check (``correct: false``,
  every attempted item failed), untraced and traced.

These runs take several minutes; they are not part of the program's
test suite.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import statistics
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: measurement seconds per self-check run (shorter than the real runs)
SECONDS = "8"
SEEDS = (101, 102, 103)


def bench(workload, seed, *, trace=0, variant="none", cwd=ROOT,
          seconds=SECONDS):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace),
         "--variant", variant],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.splitlines()[-1])


def median_metric(workload, metric, variant) -> float:
    return statistics.median(
        result(bench(workload, seed, variant=variant))["metrics"][metric]
        ["value"] for seed in SEEDS)


def bound(metric: str) -> float:
    return next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == metric)


# ------------------------------------------------------------------ #
# The contract of BENCHMARK.json
# ------------------------------------------------------------------ #
def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    every = SPEC["end_to_end"] + SPEC["per_layer"]
    assert len({m["name"] for m in every}) == len(every)
    for m in every:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len(json.dumps(SPEC)) <= 64 * 1024


@pytest.mark.parametrize("trace", [0, 1])
def test_prints_every_metric_and_passes_parity(trace):
    out = result(bench("serve-hybrid-sharded", 7, trace=trace))
    key = "per_layer" if trace else "end_to_end"
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in SPEC[key]}
    units = {m["name"]: m["unit"] for m in SPEC[key]}
    for name, metric in out["metrics"].items():
        assert metric["unit"] == units[name]
    if not trace:
        assert all(out["metrics"][m["name"]]["value"] != 0
                   for m in SPEC["end_to_end"])


def test_refuses_a_directory_without_the_program():
    bare = ROOT / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "serve-hybrid-sharded", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()  # only when no benchmark run is using it
        except OSError:
            pass


@pytest.mark.parametrize("workload,trace,variant", [
    ("replay-bestfit", 0, "telemetry"),
    ("replay-bestfit", 1, "no-index"),
    ("serve-hybrid-sharded", 0, "no-index"),
    ("serve-hybrid-sharded", 1, "telemetry"),
])
def test_refuses_a_variant_it_would_not_apply(workload, trace, variant):
    proc = bench(workload, 1, trace=trace, variant=variant, seconds="1")
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout


# ------------------------------------------------------------------ #
# Known defects must be flagged
# ------------------------------------------------------------------ #
def test_linear_scan_kernel_reads_as_throughput_regression():
    base = median_metric("replay-bestfit", "items_per_ref_s", "none")
    slow = median_metric("replay-bestfit", "items_per_ref_s", "no-index")
    assert slow < base * (1 - bound("items_per_ref_s")), (base, slow)


def test_telemetry_on_reads_as_throughput_regression():
    base = median_metric("serve-hybrid-sharded", "items_per_ref_s", "none")
    slow = median_metric("serve-hybrid-sharded", "items_per_ref_s",
                         "telemetry")
    assert slow < base * (1 - bound("items_per_ref_s")), (base, slow)


@pytest.mark.parametrize("workload,trace", [
    ("replay-bestfit", 0),
    ("serve-hybrid-sharded", 0),
    ("replay-bestfit", 1),
])
def test_perturbed_decision_fails_parity(workload, trace):
    out = result(bench(workload, 5, trace=trace, variant="perturb",
                       seconds="4"))
    assert not out["correct"]
    assert out["failed"] == out["attempted"] > 0
