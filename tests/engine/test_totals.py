"""The kernel's run totals against an independent oracle.

``Engine.run``'s summary is read straight off the kernel's running
counters.  Every total is checked here against something derived without
them: the batch :class:`~repro.core.result.PackingResult` of
``simulate()`` (bins, ``max_open`` from the ``ON_t`` profile, cost as the
sum of bin usages) and the instance itself (space-time demand and the
peak of the load profile ``S_t``).  Each engine arrival path is a leg:

- ``run(instance)`` unmetered — one kernel ``release_store`` call;
- ``run(instance)`` with the metrics registry listening — the same one
  ``release_store`` call (leg ``metered``);
- ``run(iter(instance))`` — boxed items through ``feed`` (leg ``boxed``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profile import load_profile
from repro.core.simulation import simulate
from repro.engine import Engine, EngineMetrics
from repro.engine.parity import ALIGNED_ALGORITHMS
from repro.parallel import _registry
from repro.workloads import aligned_random, poisson_random, uniform_random

REGISTRY = _registry()


@st.composite
def instances(draw, aligned: bool):
    """Poisson or uniform random instances; aligned ones for CDFF-style
    algorithms, which reject anything else."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    if aligned:
        mu = draw(st.sampled_from([2, 4, 8, 16]))
        return aligned_random(mu, draw(st.integers(1, 60)), seed=seed)
    mu = draw(st.sampled_from([1.0, 2.0, 8.0, 32.0]))
    if draw(st.booleans()):
        rate = draw(st.sampled_from([0.5, 2.0, 6.0]))
        horizon = draw(st.sampled_from([5.0, 20.0]))
        return poisson_random(rate, mu, horizon, seed=seed)
    return uniform_random(draw(st.integers(2, 60)), mu, seed=seed)


#: (algorithm, leg) cases; the unmetered ``run(instance)`` leg keeps the
#: bare algorithm id
CASES = [
    pytest.param(name, leg, id=name if leg == "instance" else f"{name}-{leg}")
    for name in sorted(REGISTRY)
    for leg in ("instance", "metered", "boxed")
]


@pytest.mark.parametrize("name, leg", CASES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_engine_totals_match_oracle(name, leg, data):
    instance = data.draw(instances(name in ALIGNED_ALGORITHMS))
    factory = REGISTRY[name]
    result = simulate(factory(), instance)
    if leg == "metered":
        engine = Engine(factory(), record=True, metrics=EngineMetrics())
    else:
        engine = Engine(factory(), record=True)
    summary = engine.run(iter(instance) if leg == "boxed" else instance)

    assert engine.result().assignment == result.assignment
    assert summary.items == len(instance)
    assert summary.bins_opened == summary.bins_closed == len(result.bins)
    assert summary.max_open == result.max_open
    assert summary.cost == result.cost
    demand = sum(it.size * (it.departure - it.arrival) for it in instance)
    assert summary.util_area == pytest.approx(demand)
    assert summary.peak_load == pytest.approx(load_profile(instance).max())
    if leg == "metered":
        counters = engine.metrics.snapshot()["counters"]
        assert counters["arrivals"] == counters["departures"] == len(instance)
        assert counters["bins_opened"] == summary.bins_opened
        assert counters["bins_closed"] == summary.bins_closed
