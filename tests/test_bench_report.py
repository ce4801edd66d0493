"""The CI perf floors in ``scripts/bench_report.py`` can fail.

Each floor reads one headline metric from a ``BENCH_*.json`` record; a
synthetic record below the floor, or one missing the metric, must make
the script exit 1, and a record at or above the floor must pass.
"""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

SCRIPT = pathlib.Path(__file__).parent.parent / "scripts" / "bench_report.py"

#: floor flag -> (record file stem, metric name the floor reads)
FLOORS = {
    "--min-speedup": ("KERNEL", "speedup"),
    "--min-serve-ratio": ("SERVE", "telemetry_off_ratio"),
    "--min-profiler-ratio": ("PROFILER", "profiler_on_ratio"),
}


def load_script():
    spec = importlib.util.spec_from_file_location("bench_report", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_report():
    return load_script()


def write_record(out: pathlib.Path, bench: str, metrics: dict) -> None:
    record = {"algorithm": "FirstFit", "generator": "synthetic",
              "metrics": metrics}
    (out / f"BENCH_{bench}.json").write_text(json.dumps(record))


@pytest.mark.parametrize("flag", sorted(FLOORS))
class TestFloors:
    def test_below_the_floor_fails(self, bench_report, tmp_path, flag):
        bench, metric = FLOORS[flag]
        write_record(tmp_path, bench, {metric: 0.90})
        assert bench_report.main(
            ["--output-dir", str(tmp_path), flag, "0.95"]
        ) == 1

    def test_missing_metric_fails(self, bench_report, tmp_path, flag):
        bench, _ = FLOORS[flag]
        write_record(tmp_path, bench, {"unrelated": 2.0})
        assert bench_report.main(
            ["--output-dir", str(tmp_path), flag, "0.95"]
        ) == 1

    def test_missing_record_fails(self, bench_report, tmp_path, flag):
        # some other bench's record is there, the floor's own is not
        other = next(b for b, _ in FLOORS.values() if b != FLOORS[flag][0])
        write_record(tmp_path, other, {"speedup": 9.0})
        assert bench_report.main(
            ["--output-dir", str(tmp_path), flag, "0.95"]
        ) == 1

    @pytest.mark.parametrize("value", [0.95, 1.40])
    def test_at_or_above_the_floor_passes(
        self, bench_report, tmp_path, flag, value
    ):
        bench, metric = FLOORS[flag]
        write_record(tmp_path, bench, {metric: value})
        assert bench_report.main(
            ["--output-dir", str(tmp_path), flag, "0.95"]
        ) == 0


def test_floors_gate_independently(bench_report, tmp_path):
    # all three records present, only the profiler one is slow
    write_record(tmp_path, "KERNEL", {"speedup": 1.2})
    write_record(tmp_path, "SERVE", {"telemetry_off_ratio": 1.0})
    write_record(tmp_path, "PROFILER", {"profiler_on_ratio": 0.5})
    argv = ["--output-dir", str(tmp_path), "--min-speedup", "1.05",
            "--min-serve-ratio", "0.95"]
    assert bench_report.main(argv) == 0
    assert bench_report.main(argv + ["--min-profiler-ratio", "0.95"]) == 1


def test_process_exit_status(tmp_path):
    write_record(tmp_path, "KERNEL", {"speedup": 1.0})
    base = [sys.executable, str(SCRIPT), "--output-dir", str(tmp_path)]
    slow = subprocess.run(base + ["--min-speedup", "1.05"],
                          capture_output=True, text=True)
    assert slow.returncode == 1
    assert "below the 1.05x floor" in slow.stderr
    ok = subprocess.run(base + ["--min-speedup", "1.0"],
                        capture_output=True, text=True)
    assert ok.returncode == 0
