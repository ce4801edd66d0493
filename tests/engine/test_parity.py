"""Engine/batch parity: the streaming engine must reproduce ``simulate()``
bit-for-bit — cost, max_open, and assignment — for every registered
algorithm on every workload-generator family, including on random
(hypothesis-generated) instances."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import Instance
from repro.core.simulation import simulate
from repro.engine import Engine, check_parity, default_parity_cells, parity_suite
from repro.engine.parity import ALIGNED_ALGORITHMS, GENERAL_ALGORITHMS, LEGS
from repro.parallel import _registry

sizes = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)
times = st.floats(min_value=0.0, max_value=60.0, allow_nan=False)
lengths = st.floats(min_value=1.0, max_value=40.0, allow_nan=False)


@st.composite
def instances(draw, n_max=25):
    n = draw(st.integers(min_value=1, max_value=n_max))
    triples = []
    for _ in range(n):
        a = draw(times)
        triples.append((a, a + draw(lengths), draw(sizes)))
    return Instance.from_tuples(triples)


class TestParitySweep:
    """The default registry × generator sweep, cell by cell."""

    @pytest.mark.parametrize(
        "algorithm,workload,instance",
        [
            pytest.param(a, w, i, id=f"{a}-{w}")
            for a, w, i in default_parity_cells(seed=0)
        ],
    )
    def test_cell(self, algorithm, workload, instance):
        report = check_parity(
            _registry()[algorithm], instance, workload=workload
        )
        assert report.ok, str(report)
        # the contract is stated with 1e-9 slack; observed equality is exact
        assert report.engine_cost == report.batch_cost

    def test_suite_runner(self):
        reports = parity_suite(
            [("FirstFit", "binary-ish", default_parity_cells(seed=1)[0][2])]
        )
        assert len(reports) == 1 and reports[0].ok

    def test_every_cell_covers_every_feed_path(self):
        instance = default_parity_cells(seed=0)[0][2]
        report = check_parity(_registry()["BestFit"], instance)
        assert report.ok and report.legs == LEGS == (
            "boxed",
            "columnar",
            "chunked",
        )

    def test_columnar_defect_is_caught_and_named(self, monkeypatch):
        """A feed_store that loses each window's last row fails the
        columnar leg, which the boxed leg alone would never notice."""
        feed_store = Engine.feed_store

        def lossy(self, store, start=0, stop=None):
            stop = len(store) if stop is None else stop
            return feed_store(self, store, start, stop - 1)

        monkeypatch.setattr(Engine, "feed_store", lossy)
        instance = default_parity_cells(seed=0)[0][2]
        report = check_parity(_registry()["FirstFit"], instance)
        # legs run in order, so the boxed leg passed before this one
        assert not report.ok and report.legs == ("columnar",)

    def test_missing_total_update_is_caught_and_named(self, monkeypatch):
        """Drop the ``util_area`` update from ``release_store``'s
        no-departure clock move: cost, bins and assignment stay intact,
        so only the totals comparison catches it, on the columnar leg."""
        import inspect
        import textwrap

        from repro.core import kernel as kernel_mod

        source = textwrap.dedent(
            inspect.getsource(kernel_mod.PlacementKernel.release_store)
        )
        update = "self.util_area += self.load * (arrival - self.time)"
        assert source.count(update) == 1
        namespace: dict = {}
        exec(
            compile(source.replace(update, "pass"), kernel_mod.__file__, "exec"),
            vars(kernel_mod),
            namespace,
        )
        monkeypatch.setattr(
            kernel_mod.PlacementKernel, "release_store", namespace["release_store"]
        )
        instance = default_parity_cells(seed=0)[0][2]
        report = check_parity(_registry()["BestFit"], instance)
        assert not report.ok and report.legs == ("columnar",)
        assert not report.totals_equal
        assert report.assignment_equal and report.bins_equal
        assert report.engine_cost == report.batch_cost
        assert "totals differ" in str(report)

    def test_registry_fully_covered(self):
        from repro.parallel import ALGORITHM_REGISTRY

        covered = set(GENERAL_ALGORITHMS) | set(ALIGNED_ALGORITHMS)
        assert covered == set(ALGORITHM_REGISTRY)


class TestParityProperty:
    """Random instances: streaming == batch for the general algorithms."""

    @settings(max_examples=40, deadline=None)
    @given(inst=instances(), name=st.sampled_from(GENERAL_ALGORITHMS))
    def test_random_instances(self, inst, name):
        factory = _registry()[name]
        batch = simulate(factory(), inst)
        eng = Engine(factory(), record=True)
        summary = eng.run(iter(inst))
        assert summary.cost == batch.cost
        assert summary.max_open == batch.max_open
        assert eng.result().assignment == batch.assignment

    @settings(max_examples=15, deadline=None)
    @given(inst=instances(), cap=st.floats(min_value=1.0, max_value=4.0))
    def test_nonunit_capacity(self, inst, cap):
        from repro.algorithms import FirstFit

        batch = simulate(FirstFit(), inst, capacity=cap)
        summary = Engine(FirstFit(), capacity=cap).run(iter(inst))
        assert summary.cost == batch.cost
        assert summary.max_open == batch.max_open

    @settings(max_examples=15, deadline=None)
    @given(inst=instances())
    def test_nonclairvoyant_masking(self, inst):
        """Masked views reach the algorithm identically in both paths."""
        from repro.algorithms import FirstFit

        batch = simulate(FirstFit(clairvoyant=False), inst)
        summary = Engine(FirstFit(clairvoyant=False)).run(iter(inst))
        assert summary.cost == batch.cost

    @settings(max_examples=20, deadline=None)
    @given(inst=instances(), name=st.sampled_from(GENERAL_ALGORITHMS))
    def test_mid_stream_cost_is_consistent(self, inst, name):
        """cost_so_far after the k-th release matches the batch
        incremental simulation at the same point."""
        from repro.core.simulation import IncrementalSimulation

        factory = _registry()[name]
        k = max(1, len(inst) // 2)
        sim = IncrementalSimulation(factory())
        eng = Engine(factory())
        for it in list(inst)[:k]:
            sim.release(it)
            eng.feed(it)
        assert eng.cost_so_far == pytest.approx(sim.cost_so_far, abs=1e-9)
        assert eng.open_bin_count == sim.open_bin_count
