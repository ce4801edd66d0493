"""Batch ``simulate()`` against the kernel-independent reference.

The kernel, the engine and the served shards share one implementation,
so only :mod:`repro.testkit.reference` can tell when that implementation
drifts from the paper's model.  Every registered algorithm, plus the
variants the registry leaves out (Ren–Tang, non-clairvoyant First-Fit,
HA and ClassifyByDuration under the other Any-Fit rules, footnote 1),
must make the same decisions under both, with the same cost,
``max_open``, ``bins_opened``, ``peak_load`` and ``util_area`` — bit
for bit.  Integer-time inputs put departures and arrivals at equal
times, where the ``[t, f)`` rule decides; aligned-only algorithms get
only aligned inputs.
"""

from __future__ import annotations

import ast
import pathlib

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.testkit.reference as reference_mod
from repro.algorithms import (
    BEST_FIT,
    LAST_FIT,
    WORST_FIT,
    ClassifyByDuration,
    FirstFit,
    HybridAlgorithm,
    RenTang,
)
from repro.core.instance import Instance
from repro.engine.parity import (
    ALIGNED_ALGORITHMS,
    _leg_outcome,
    check_against_batch,
)
from repro.parallel import _registry
from repro.workloads import aligned_random

EXTRA = {
    # lengths in [0.5, 64]: the general inputs and the aligned ones
    "RenTang": lambda: RenTang(128.0, min_length=0.5),
    "FirstFit(clairvoyant=False)": lambda: FirstFit(clairvoyant=False),
}
for _rule in (BEST_FIT, WORST_FIT, LAST_FIT):
    EXTRA[f"HybridAlgorithm[{_rule.__name__}]"] = (
        lambda rule=_rule: HybridAlgorithm(rule=rule)
    )
    EXTRA[f"ClassifyByDuration[{_rule.__name__}]"] = (
        lambda rule=_rule: ClassifyByDuration(rule=rule)
    )

FACTORIES = {**_registry(), **EXTRA}
GENERAL = sorted(set(FACTORIES) - set(ALIGNED_ALGORITHMS))
#: sizes that fill bins exactly, so fit ties happen too
SIZES = st.one_of(
    st.sampled_from([0.125, 0.25, 1 / 3, 0.5, 0.75, 1.0]),
    st.floats(min_value=0.01, max_value=1.0),
)


@st.composite
def float_instances(draw):
    triples = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        a = draw(st.floats(min_value=0.0, max_value=60.0))
        length = draw(st.floats(min_value=1.0, max_value=40.0))
        triples.append((a, a + length, draw(SIZES)))
    return Instance.from_tuples(triples)


@st.composite
def integer_instances(draw):
    """Integer times: departures and arrivals coincide all the time."""
    triples = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        a = draw(st.integers(min_value=0, max_value=24))
        length = draw(st.integers(min_value=1, max_value=16))
        triples.append((float(a), float(a + length), draw(SIZES)))
    return Instance.from_tuples(triples)


@st.composite
def aligned_instances(draw):
    return aligned_random(
        draw(st.sampled_from([2, 4, 8, 16, 32])),
        draw(st.integers(min_value=1, max_value=60)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        size_low=draw(st.sampled_from([0.05, 0.25, 0.5])),
    )


def assert_agrees(name: str, instance: Instance) -> None:
    factory = FACTORIES[name]
    outcome = _leg_outcome("reference", factory, instance, 1.0)
    assert check_against_batch(outcome, instance, factory) == (), name


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(GENERAL),
    instance=st.one_of(float_instances(), integer_instances()),
)
def test_general_algorithms_match_the_reference(name, instance):
    assert_agrees(name, instance)


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(FACTORIES)), instance=aligned_instances())
def test_every_algorithm_matches_on_aligned_inputs(name, instance):
    assert_agrees(name, instance)


def test_reference_is_kernel_independent():
    """The reference may not import the code it checks, and stays small."""
    path = pathlib.Path(reference_mod.__file__)
    tree = ast.parse(path.read_text())
    package = ["repro", "testkit"]  # resolves the relative imports
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) + 1 - node.level] if node.level else []
            imported.add(".".join(base + [node.module or ""]).strip("."))
    forbidden = (
        "repro.core.kernel", "repro.core.bins", "repro.core.simulation",
        "repro.engine",
    )
    assert imported, "no imports parsed"
    assert not [m for m in imported if m.startswith(forbidden)], imported
    assert "repro.core.item" in imported
    assert len(path.read_text().splitlines()) <= 200
