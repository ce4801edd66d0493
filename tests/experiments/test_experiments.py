"""Tests for the experiment harness (fast, reduced-size parameterisations).

The full-size experiments run in ``benchmarks/``; here each experiment is
exercised with small parameters to verify it runs, passes its own bound
checks, and produces well-formed tables.
"""

from repro.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    aligned_experiment,
    anyfit_ablation,
    cor34_experiment,
    cor58_experiment,
    dc_experiment,
    figure1_experiment,
    figure2_experiment,
    figure3_experiment,
    format_table,
    general_lower_experiment,
    general_upper_experiment,
    lemma31_experiment,
    lemma33_experiment,
    lemma59_experiment,
    nonclairvoyant_experiment,
    prop53_experiment,
    rows_ablation,
)


class TestRunner:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 3.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.500" in text

    def test_registry_populated(self):
        expected = {
            "T1.GEN.UB", "T1.GEN.LB", "T1.ALIGN.UB", "T1.NC",
            "LEM3.1", "LEM3.3", "COR3.4", "THM4.2",
            "COR5.8", "LEM5.9", "PROP5.3",
            "ABL.THRESH", "ABL.ANYFIT", "ABL.ROWS",
            "FIG1", "FIG2", "FIG3",
        }
        assert expected <= set(EXPERIMENTS)

    def test_render_and_csv(self):
        res = ExperimentResult("X", "t", ["a"], [[1], [2]], ["note"], True)
        assert "PASS" in res.render()
        assert res.to_csv().startswith("a")

    def test_fail_status_rendered(self):
        res = ExperimentResult("X", "t", ["a"], [[1]], [], False)
        assert "FAIL" in res.render()

    def test_csv_quotes_commas_newlines_and_quotes(self):
        # cells with CSV metacharacters must round-trip through a
        # standard reader, not shift columns
        import csv
        import io

        headers = ["name", "note"]
        rows = [
            ["a,b", 'says "hi"'],
            ["multi\nline", 3.5],
        ]
        res = ExperimentResult("X", "t", headers, rows, [], True)
        text = res.to_csv()
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == headers
        assert parsed[1] == ["a,b", 'says "hi"']
        assert parsed[2] == ["multi\nline", "3.5"]

    def test_csv_uses_unix_line_endings(self):
        res = ExperimentResult("X", "t", ["a"], [[1], [2]], [], True)
        text = res.to_csv()
        assert "\r" not in text
        assert text == "a\n1\n2\n"


class TestTable1Small:
    def test_general_upper(self):
        res = general_upper_experiment(mus=(4, 16), seeds=(0,), n_items=80)
        assert res.passed
        assert len(res.rows) == 6  # 2 μ × 3 workloads

    def test_general_lower(self):
        res = general_lower_experiment(mus=(4, 16))
        assert res.passed

    def test_aligned(self):
        res = aligned_experiment(mus=(4, 16), seeds=(0,), n_items=60)
        assert res.passed

    def test_nonclairvoyant(self):
        res = nonclairvoyant_experiment(
            gs=(4, 8), random_mus=(4,), seeds=(0,), n_items=60
        )
        assert res.passed


class TestLemmasSmall:
    def test_lemma31(self):
        assert lemma31_experiment(mus=(4,), seeds=(0,), n_items=60).passed

    def test_lemma33(self):
        assert lemma33_experiment(mus=(4, 16), seeds=(0,), n_items=120).passed

    def test_cor34(self):
        assert cor34_experiment(mus=(4,), seeds=(0, 1), n_items=50).passed

    def test_dc(self):
        assert dc_experiment(mus=(4, 16), seeds=(0,), n_items=80).passed


class TestBinarySmall:
    def test_cor58(self):
        assert cor58_experiment(mus=(2, 8, 32)).passed

    def test_lemma59(self):
        assert lemma59_experiment(ns=(2, 6, 10)).passed

    def test_prop53(self):
        assert prop53_experiment(mus=(4, 64)).passed


class TestAblationsSmall:
    def test_rows(self):
        assert rows_ablation(mus=(16, 64)).passed

    def test_anyfit(self):
        res = anyfit_ablation(mus=(16,), seeds=(0,), n_items=80)
        assert len(res.rows) == 3


class TestFigures:
    def test_fig1(self):
        assert figure1_experiment(mu=8, n_items=30, seed=1).passed

    def test_fig2(self):
        res = figure2_experiment(mu=8)
        assert res.passed and "σ_8" in res.notes[0]

    def test_fig3(self):
        assert figure3_experiment(mu=8).passed


class TestCLI:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "T1.GEN.UB" in out

    def test_run_single(self, capsys):
        from repro.cli import main

        assert main(["run", "LEM5.9"]) == 0
        assert "Lemma 5.9" in capsys.readouterr().out

    def test_run_unknown(self, capsys):
        from repro.cli import main

        assert main(["run", "NOPE"]) == 1

    def test_demo(self, capsys):
        from repro.cli import main

        assert main(["demo"]) == 0
        assert "CDFF" in capsys.readouterr().out
