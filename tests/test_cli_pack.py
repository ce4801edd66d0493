"""Tests for the `repro-dbp pack` CLI command."""

import pytest

from repro.cli import main
from repro.workloads import save_csv, uniform_random


@pytest.fixture
def trace_path(tmp_path):
    path = tmp_path / "trace.csv"
    save_csv(uniform_random(25, 8, seed=0), path)
    return str(path)


class TestPack:
    def test_basic(self, trace_path, capsys):
        assert main(["pack", trace_path, "-a", "FirstFit"]) == 0
        out = capsys.readouterr().out
        assert "FirstFit: cost=" in out
        assert "OPT_R ∈" in out

    def test_default_algorithm(self, trace_path, capsys):
        assert main(["pack", trace_path]) == 0
        assert "HybridAlgorithm" in capsys.readouterr().out

    def test_render(self, trace_path, capsys):
        assert main(["pack", trace_path, "--render"]) == 0
        assert "bin " in capsys.readouterr().out

    def test_capacity_skips_opt(self, trace_path, capsys):
        assert main(["pack", trace_path, "--capacity", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "OPT_R ∈" not in out  # unit-capacity bounds don't apply

    def test_list_algorithms(self, capsys):
        assert main(["pack", "--list-algorithms"]) == 0
        out = capsys.readouterr().out
        assert "CDFF" in out and "FirstFit" in out

    def test_unknown_algorithm(self, trace_path, capsys):
        assert main(["pack", trace_path, "-a", "Nope"]) == 1

    def test_missing_csv(self, capsys):
        assert main(["pack"]) == 1

    def test_malformed_csv_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("arrival,departure,size\n0,1,0.5\n1,nope,0.3\n")
        assert main(["pack", str(path), "--no-ledger"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: line 3: "), err
