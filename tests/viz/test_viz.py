"""Unit tests for the ASCII renderers and figure regeneration."""

from repro.algorithms.cdff import CDFF
from repro.core.instance import Instance
from repro.core.item import Item
from repro.core.simulation import IncrementalSimulation, simulate
from repro.viz.ascii import render_instance, render_packing, render_rows, timeline_scale
from repro.viz.figures import figure1, figure2, figure3
from repro.workloads.aligned import binary_input


class TestTimelineScale:
    def test_endpoints(self):
        to_col = timeline_scale(0.0, 10.0, 51)
        assert to_col(0.0) == 0
        assert to_col(10.0) == 50
        assert to_col(5.0) == 25

    def test_clamps(self):
        to_col = timeline_scale(0.0, 10.0, 11)
        assert to_col(-5.0) == 0
        assert to_col(50.0) == 10


class TestRenderInstance:
    def test_empty(self):
        assert "empty" in render_instance(Instance([]))

    def test_sigma8_has_four_class_lines(self):
        text = render_instance(binary_input(8))
        for cls in range(4):
            assert f"class {cls}" in text

    def test_item_bars_present(self):
        text = render_instance(Instance.from_tuples([(0, 4, 0.5)]))
        assert "[" in text and ")" in text

    def test_overlapping_same_class_stacked(self):
        inst = Instance.from_tuples([(0, 4, 0.2), (1, 5, 0.2)])
        text = render_instance(inst)
        # two sub-lines → more lines than a single-item render
        assert text.count("|") >= 4


class TestRenderPacking:
    def test_no_bins(self):
        res = simulate(CDFF(), Instance([]))
        assert "no bins" in render_packing(res)

    def test_one_line_per_bin(self):
        res = simulate(CDFF(), binary_input(8))
        text = render_packing(res)
        assert sum(1 for l in text.splitlines() if l.startswith("bin")) == res.n_bins

    def test_cost_in_header(self):
        res = simulate(CDFF(), binary_input(8))
        assert f"cost {res.cost:g}" in render_packing(res)

    def test_occupancy_digits(self):
        res = simulate(CDFF(), binary_input(8))
        text = render_packing(res)
        # bin b_0^1 holds up to 4 items at t=7
        assert "4" in text


class TestRenderRows:
    def test_empty(self):
        assert "no open rows" in render_rows({})

    def test_gauge_proportional(self):
        from repro.core.bins import Bin

        b = Bin(0, 1.0, 0.0)
        b._add(Item(0, 1, 0.5, uid=0))
        text = render_rows({0: [b]}, gauge=10)
        assert "[#####.....]" in text

    def test_live_snapshot(self):
        alg = CDFF()
        sim = IncrementalSimulation(alg)
        for uid, length in enumerate([1.0, 2.0, 4.0]):
            sim.release(Item(0.0, length, 0.3, uid=uid))
        text = render_rows(alg.rows_snapshot())
        assert "row  0" in text and "row  2" in text


class TestFigures:
    def test_figure1_renders_rows(self):
        text = figure1(mu=16, n_items=40, seed=3)
        assert "Figure 1" in text
        assert "row" in text

    def test_figure1_explicit_time(self):
        text = figure1(mu=16, n_items=40, seed=3, stop_at=0)
        assert "t=0" in text

    def test_figure1_custom_instance(self):
        from repro.workloads.aligned import binary_input

        text = figure1(instance=binary_input(8), stop_at=0)
        assert "μ=8" in text
        # σ_8's t=0 batch opens one bin in each of rows 0..3
        assert sum(1 for l in text.splitlines() if l.startswith("row")) == 4

    def test_figure2_structure(self):
        text = figure2(mu=8)
        assert "σ_8" in text
        # 2μ−1 = 15 item bars (count only inside the timeline lines)
        bars = sum(l.count("[") for l in text.splitlines() if l.rstrip().endswith("|"))
        assert bars == 15

    def test_figure3_matches_lemma55(self):
        """Figure 3's bins must realise the Lemma 5.5 mapping: the length-8
        item's bin also hosts length-1 items at odd times."""
        text = figure3(mu=8)
        assert "Figure 3" in text
        assert "CDFF" in text

    def test_figure3_bin_count(self):
        res = simulate(CDFF(), binary_input(8))
        text = figure3(mu=8)
        assert sum(1 for l in text.splitlines() if l.startswith("bin")) == res.n_bins
