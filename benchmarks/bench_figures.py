"""FIG1–FIG3 — regenerate the paper's three figures.

Each test renders the figure, writes it to ``benchmarks/output/``, and
asserts structural fidelity against the paper (class counts for Figure 2,
the Lemma 5.5 packing for Figure 3).
"""

from conftest import record

from repro.experiments.figures_exp import (
    figure1_experiment,
    figure2_experiment,
    figure3_experiment,
)


def test_figure1(benchmark, output_dir):
    result = benchmark.pedantic(
        lambda: figure1_experiment(mu=16, n_items=60, seed=7),
        rounds=1,
        iterations=1,
    )
    record(output_dir, result)
    assert result.passed
    text = result.notes[0]
    assert "row" in text and "[#" in text  # rows with load gauges


def test_figure2(benchmark, output_dir):
    result = benchmark.pedantic(lambda: figure2_experiment(mu=8), rounds=1,
                                iterations=1)
    record(output_dir, result)
    assert result.passed
    text = result.notes[0]
    # σ_8 has 4 classes; each class line plus stacking sub-lines
    for cls in range(4):
        assert f"class {cls}" in text


def test_figure3(benchmark, output_dir):
    result = benchmark.pedantic(lambda: figure3_experiment(mu=8), rounds=1,
                                iterations=1)
    record(output_dir, result)
    assert result.passed
    text = result.notes[0]
    # the paper's packing: 7 bins, cost 19 (with the corrected load)
    assert "7 bins" in text
    assert "cost 19" in text
