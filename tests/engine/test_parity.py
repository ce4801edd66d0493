"""Engine/batch parity: the streaming engine must reproduce ``simulate()``
bit-for-bit — cost, max_open, and assignment — for every registered
algorithm on every workload-generator family, including on random
(hypothesis-generated) instances; batch must match the kernel-independent
reference; and every leg of the gate must fail on a known defect."""

import dataclasses
import heapq
import inspect
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import Instance
from repro.core.simulation import simulate
from repro.engine import Engine
from repro.engine.parity import (
    ALIGNED_ALGORITHMS,
    GENERAL_ALGORITHMS,
    LEGS,
    Outcome,
    check_against_batch,
    check_parity,
    default_parity_cells,
    parity_suite,
)
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
        # the core compares the cost bit for bit, so ok means Δcost == 0
        assert report.ok, str(report)

    def test_suite_runner(self):
        reports = parity_suite(
            [("FirstFit", "binary-ish", default_parity_cells(seed=1)[0][2])]
        )
        assert len(reports) == 1 and reports[0].ok

    def test_every_cell_covers_every_feed_path(self):
        instance = default_parity_cells(seed=0)[0][2]
        report = check_parity(_registry()["BestFit"], instance)
        assert report.ok and LEGS == (
            "boxed",
            "columnar",
            "chunked",
            "reference",
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
        # the boxed leg never calls feed_store, so only the columnar
        # paths (the whole store, and its chunked windows) are named
        assert not report.ok
        legs = {p.split(":")[0] for p in report.problems}
        assert legs == {"columnar", "chunked"}, report.problems

    def test_missing_total_update_is_caught_and_named(self, monkeypatch):
        """Drop the ``util_area`` update from ``release_store``'s
        no-departure clock move: cost, bins and assignment stay intact,
        so only the totals comparison catches it.  Batch ``simulate()``
        runs ``release_store`` too, so the legs that stay correct — the
        boxed engine leg and the reference — are the ones named."""
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
        # ``Engine.feed_store`` is the same function under a second name,
        # bound when the class was made, so the defect goes there too
        for cls, name in ((kernel_mod.PlacementKernel, "release_store"),
                          (Engine, "feed_store")):
            monkeypatch.setattr(cls, name, namespace["release_store"])
        instance = default_parity_cells(seed=0)[0][2]
        report = check_parity(_registry()["BestFit"], instance)
        assert not report.ok
        assert all(" util_area " in p for p in report.problems), report
        legs = {p.split(":")[0] for p in report.problems}
        assert legs == {"boxed", "reference"}, report.problems
        assert "util_area" in str(report)

    def test_perturbed_decision_fails(self, monkeypatch):
        """One streamed item's bin changed: the gate must fail on every
        engine leg, naming the decision."""
        result = Engine.result

        def perturbed(self):
            res = result(self)
            assignment = dict(res.assignment)
            assignment[3] += 1
            return dataclasses.replace(res, assignment=assignment)

        monkeypatch.setattr(Engine, "result", perturbed)
        instance = default_parity_cells(seed=0)[0][2]
        report = check_parity(_registry()["FirstFit"], instance)
        assert not report.ok
        for leg in ("boxed", "columnar", "chunked"):
            assert (
                f"{leg}: 1 bin decisions differ (first: item 3"
                in str(report)
            ), report.problems
        assert not any(p.startswith("reference") for p in report.problems)

    def test_equal_time_mutant_fails_the_gate(self, monkeypatch, capsys):
        """A kernel that places arrivals before departures at equal times
        breaks the paper's ``[t, f)`` intervals.  Batch and engine share
        the kernel, so only the reference leg can see it; the CI gate
        must exit non-zero and name that leg."""
        from repro.core import kernel as kernel_mod
        from repro.engine.parity import _main

        kernel = kernel_mod.PlacementKernel
        for method, old, new in (
            ("_advance", "if t > until:", "if t >= until:"),
            ("release_store", "dq[0][0] <= arrival", "dq[0][0] < arrival"),
        ):
            source = textwrap.dedent(inspect.getsource(getattr(kernel, method)))
            assert source.count(old) == 1
            namespace: dict = {}
            exec(
                compile(source.replace(old, new), kernel_mod.__file__, "exec"),
                vars(kernel_mod),
                namespace,
            )
            monkeypatch.setattr(kernel, method, namespace[method])

        def drain(self):
            # the mutant _advance never departs an item due exactly at
            # ``until``, so drain()'s advance-to-the-next-departure loop
            # would spin forever; pop the remaining departures instead
            while self._departures:
                t, _, uid = heapq.heappop(self._departures)
                self._do_departure(uid, t)

        monkeypatch.setattr(kernel, "drain", drain)
        assert _main(["--seed", "0"]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH" in out and "reference: " in out
        mismatched = [line for line in out.splitlines() if "MISMATCH" in line]
        # every failing cell is caught by the reference leg
        assert all("reference: " in line for line in mismatched)

    def test_registry_fully_covered(self):
        from repro.parallel import ALGORITHM_REGISTRY

        covered = set(GENERAL_ALGORITHMS) | set(ALIGNED_ALGORITHMS)
        assert covered == set(ALGORITHM_REGISTRY)


class TestCheckAgainstBatch:
    """The one comparison core every parity caller goes through."""

    def _outcome(self, inst):
        ref = simulate(_registry()["BestFit"](), inst)
        return Outcome.of_result(
            ref, cost=ref.cost, max_open=ref.max_open,
            bins_opened=len(ref.bins),
        )

    def test_agreement_is_empty(self):
        inst = default_parity_cells(seed=0)[0][2]
        outcome = self._outcome(inst)
        assert check_against_batch(outcome, inst, _registry()["BestFit"]) == ()

    def test_every_field_is_compared(self):
        inst = default_parity_cells(seed=0)[0][2]
        good = self._outcome(inst)
        factory = _registry()["BestFit"]
        opened = list(good.opened)
        opened[0] = not opened[0]
        for bad, needle in (
            (dataclasses.replace(good, bins=good.bins[:-1]), "decisions vs"),
            (dataclasses.replace(good, opened=opened), "opened flags"),
            (dataclasses.replace(good, cost=good.cost + 1e-12), "cost "),
            (dataclasses.replace(good, max_open=good.max_open + 1),
             "max_open"),
            (dataclasses.replace(good, bins_opened=0), "bins_opened"),
            (dataclasses.replace(good, peak_load=0.0), "peak_load"),
            (dataclasses.replace(good, util_area=0.0), "util_area"),
            (dataclasses.replace(good, bins_closed=0), "bins_closed"),
            (dataclasses.replace(good, records=()), "per-bin records"),
        ):
            problems = check_against_batch(bad, inst, factory)
            assert len(problems) == 1 and needle in problems[0], problems

    def test_missing_totals_are_not_compared(self):
        inst = default_parity_cells(seed=0)[0][2]
        good = self._outcome(inst)
        bare = Outcome(good.bins, good.opened)
        assert check_against_batch(bare, inst, _registry()["BestFit"]) == ()


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
