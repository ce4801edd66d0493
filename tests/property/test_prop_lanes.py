"""Differential tests of the kernel's per-tag lanes (hypothesis).

Two references:

- every lane query (first/last/best/worst-fit, ``fitting_bins``,
  ``lane_count``) against a filter-scan of ``open_bins`` by tag, across
  random open / arrive / depart / close sequences, with the lanes built
  by a first query at a random point of the run;
- HybridAlgorithm, ClassifyByDuration, RenTang, StaticRowsCDFF and CDFF
  against copies of their earlier list-scanning versions (private bin
  lists, a full candidate scan per arrival, close-time rebuilds), kept
  here verbatim in behaviour, under every classical Any-Fit rule and
  one custom rule: the same bin for every item, decision for decision.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    BEST_FIT,
    CDFF,
    FIRST_FIT,
    LAST_FIT,
    WORST_FIT,
    ClassifyByDuration,
    HybridAlgorithm,
    RenTang,
    StaticRowsCDFF,
)
from repro.algorithms.base import OnlineAlgorithm, item_type
from repro.algorithms.cdff import aligned_class, trailing_zeros
from repro.algorithms.hybrid import CD_TAG, GN_TAG
from repro.core.errors import AlignmentError
from repro.core.instance import Instance
from repro.core.item import Item
from repro.core.kernel import PlacementKernel


def MOST_ITEMS(candidates, item):
    """A custom rule (no kernel query of its own): the fitting bin that
    holds the most items, ties to the latest-opened."""
    return max(candidates, key=lambda b: (b.n_items, b.uid))


RULES = [FIRST_FIT, BEST_FIT, WORST_FIT, LAST_FIT, MOST_ITEMS]
RULE_IDS = ["first", "best", "worst", "last", "custom"]

# coarse grids: simultaneous arrivals, shared types, equal residuals
grid_sizes = st.sampled_from([0.125, 0.25, 1 / 3, 0.5, 0.75, 0.2, 0.05])


# ---------------------------------------------------------------------- #
# 1. Lane queries against a filter-scan of open_bins
# ---------------------------------------------------------------------- #
TAGS = ["a", ("b", 1), ("b", 2), None]


class Scripted(OnlineAlgorithm):
    """Places each item as the test says: into one of the fitting bins of
    a tag (picked by index, found by scanning ``open_bins`` so no lane
    query is made) or into a fresh bin of that tag."""

    name = "Scripted"
    clairvoyant = False  # items may be adaptive, departed explicitly

    def reset(self):
        self.script = None

    def place(self, item, sim):
        tag, pick = self.script
        fitting = [b for b in sim.open_bins if b.tag == tag and b.fits(item)]
        if fitting and pick is not None:
            return fitting[pick % len(fitting)]
        return sim.open_bin(tag=tag)


def reference(kind, sim, item, tag):
    """What lane query ``kind`` must return, by a filter-scan."""
    fitting = [
        b for b in sim.open_bins
        if (tag is None or b.tag == tag) and b.fits(item)
    ]
    if kind == "fitting_bins":
        return fitting
    if not fitting:
        return None
    rule = {"first_fit": FIRST_FIT, "best_fit": BEST_FIT,
            "worst_fit": WORST_FIT, "last_fit": LAST_FIT}[kind]
    return rule(fitting, item)


QUERY_KINDS = ["first_fit", "last_fit", "best_fit", "worst_fit",
               "fitting_bins"]

ops = st.one_of(
    st.tuples(st.just("arrive"), st.sampled_from(TAGS[:3]), grid_sizes,
              st.one_of(st.none(), st.integers(0, 5))),
    st.tuples(st.just("depart"), st.integers(0, 1000)),
    st.tuples(st.just("query"), st.sampled_from(TAGS), grid_sizes),
)


def check_all_queries(sim, t, size, uid):
    probe = Item(t, None, size, uid=uid)
    for tag in TAGS + [("absent",)]:
        for kind in QUERY_KINDS:
            got = getattr(sim, kind)(probe, lane=tag)
            assert got == reference(kind, sim, probe, tag), (kind, tag)
        expected = sum(
            1 for b in sim.open_bins if tag is None or b.tag == tag
        )
        assert sim.lane_count(tag) == expected, tag


@given(script=st.lists(ops, min_size=1, max_size=60),
       indexed=st.booleans())
@settings(max_examples=150, deadline=None)
def test_lane_queries_match_a_filter_scan(script, indexed):
    alg = Scripted()
    sim = PlacementKernel(alg, indexed=indexed)
    active: List[int] = []
    uid = 0
    t = 0.0
    for op in script:
        if op[0] == "arrive":
            _, tag, size, pick = op
            alg.script = (tag, pick)
            sim.release(Item(t, None, size, uid=uid))
            active.append(uid)
            uid += 1
        elif op[0] == "depart" and active:
            t += 0.5
            sim.depart(active.pop(op[1] % len(active)), t)
        elif op[0] == "query":
            check_all_queries(sim, t, op[2], uid)
    check_all_queries(sim, t, 0.25, uid)
    while active:  # close every bin: every lane must empty and vanish
        t += 0.5
        sim.depart(active.pop(), t)
        check_all_queries(sim, t, 0.25, uid)
    assert sim._lanes in (None, {})


# ---------------------------------------------------------------------- #
# 2. The lane algorithms against their list-scanning predecessors
# ---------------------------------------------------------------------- #
class ListHybrid(HybridAlgorithm):
    """HA as it was before lanes: private GN/CD bin lists."""

    def reset(self):
        super().reset()
        self._gn_bins: List = []
        self._cd_bins: Dict = {}

    def gn_open(self, sim):
        return len(self._gn_bins)

    def cd_open(self, sim):
        return sum(len(v) for v in self._cd_bins.values())

    def place(self, item, sim):
        T = item_type(item)
        self._type_of[item.uid] = T
        self._type_load[T] = self._type_load.get(T, 0.0) + item.size
        d = self._type_load[T]
        cd = self._cd_bins.get(T)
        if cd:
            bins = self._cd_bins.setdefault(T, [])
            candidates = [b for b in bins if b.fits(item)]
            if candidates:
                return self.rule(candidates, item)
            b = sim.open_bin(tag=(CD_TAG, T))
            bins.append(b)
            return b
        i, _ = T
        if d <= self.threshold(i) + 1e-12:
            candidates = [b for b in self._gn_bins if b.fits(item)]
            if candidates:
                return self.rule(candidates, item)
            b = sim.open_bin(tag=(GN_TAG,))
            self._gn_bins.append(b)
            self._max_gn_open = max(self._max_gn_open, len(self._gn_bins))
            return b
        b = sim.open_bin(tag=(CD_TAG, T))
        self._cd_bins.setdefault(T, []).append(b)
        return b

    def notify_close(self, bin_, sim):
        tag = bin_.tag
        if tag and tag[0] == GN_TAG:
            self._gn_bins = [b for b in self._gn_bins if b.uid != bin_.uid]
        elif tag and tag[0] == CD_TAG:
            T = tag[1]
            bins = self._cd_bins.get(T)
            if bins is not None:
                remaining = [b for b in bins if b.uid != bin_.uid]
                if remaining:
                    self._cd_bins[T] = remaining
                else:
                    del self._cd_bins[T]


class _ClassLists:
    """The per-class bin lists ClassifyByDuration, RenTang and
    StaticRowsCDFF kept before lanes."""

    TAG = "class"

    def reset(self):
        self._class_bins: Dict = {}

    def _class_key(self, item):
        return self._class_of(item)

    def place(self, item, sim):
        k = self._class_key(item)
        bins = self._class_bins.setdefault(k, [])
        candidates = [b for b in bins if b.fits(item)]
        if candidates:
            return self.rule(candidates, item)
        b = sim.open_bin(tag=(self.TAG, k))
        bins.append(b)
        return b

    def notify_close(self, bin_, sim):
        _, k = bin_.tag
        bins = self._class_bins.get(k)
        if bins is not None:
            self._class_bins[k] = [b for b in bins if b.uid != bin_.uid]


class ListClassify(_ClassLists, ClassifyByDuration):
    TAG = "class"


class ListRenTang(_ClassLists, RenTang):
    TAG = "rt-class"


class ListStaticRows(_ClassLists, StaticRowsCDFF):
    TAG = "static-cdff"

    def _class_key(self, item):
        return aligned_class(item.length)


class ListCDFF(OnlineAlgorithm):
    """CDFF as it was before its rows became uid-keyed dicts."""

    def __init__(self, *, rule=FIRST_FIT):
        self.rule = rule
        self.name = "CDFF"
        self.reset()

    def reset(self):
        self._rows: Dict[int, List] = {}
        self._row_of_bin: Dict[int, int] = {}
        self._seg_start: Optional[int] = None
        self._seg_end: Optional[int] = None
        self._batch: Dict[int, List] = {}

    def place(self, item, sim):
        ti = int(round(item.arrival))
        i = aligned_class(item.length)
        if (self._seg_start is not None and ti > self._seg_start
                and self._seg_end is None):
            self._bind_batch()
        if self._seg_start is None or (
            self._seg_end is not None and ti >= self._seg_end
        ):
            if any(self._rows.values()) or any(self._batch.values()):
                raise AlignmentError("not aligned")
            self._seg_start, self._seg_end = ti, None
            self._batch, self._rows, self._row_of_bin = {}, {}, {}
        if ti == self._seg_start:
            bucket = self._batch.setdefault(i, [])
            candidates = [b for b in bucket if b.fits(item)]
            if candidates:
                return self.rule(candidates, item)
            b = sim.open_bin(tag=("cdff", self._seg_start, i))
            bucket.append(b)
            return b
        row = trailing_zeros(ti - self._seg_start) - i
        bins = self._rows.setdefault(row, [])
        candidates = [b for b in bins if b.fits(item)]
        if candidates:
            return self.rule(candidates, item)
        b = sim.open_bin(tag=("cdff", self._seg_start, i))
        bins.append(b)
        self._row_of_bin[b.uid] = row
        return b

    def _bind_batch(self):
        m0 = max(self._batch) if self._batch else 0
        for i, bins in self._batch.items():
            if bins:
                row = m0 - i
                self._rows.setdefault(row, []).extend(bins)
                for b in bins:
                    self._row_of_bin[b.uid] = row
        self._batch = {}
        self._seg_end = self._seg_start + 2**m0

    def notify_close(self, bin_, sim):
        row = self._row_of_bin.pop(bin_.uid, None)
        if row is not None:
            bins = self._rows.get(row)
            if bins is not None:
                self._rows[row] = [b for b in bins if b.uid != bin_.uid]
            return
        for i, bucket in self._batch.items():
            if any(b.uid == bin_.uid for b in bucket):
                self._batch[i] = [b for b in bucket if b.uid != bin_.uid]
                return


def decisions(alg, inst):
    """Each item's bin uid, then the run's totals."""
    sim = PlacementKernel(alg)
    chosen = []
    for item in inst:
        chosen.append(sim.release(item).uid)
        if isinstance(alg, HybridAlgorithm):
            chosen.append((alg.gn_open(sim), alg.cd_open(sim)))
    sim.drain()
    extra = alg.max_gn_open if isinstance(alg, HybridAlgorithm) else None
    return chosen, sim.bins_opened, sim.max_open, sim.closed_usage, extra


@st.composite
def general_instances(draw, mu=64, n_max=40):
    """Arrivals on a coarse grid, lengths in [1, mu]."""
    n = draw(st.integers(min_value=1, max_value=n_max))
    triples = [(0.0, float(mu), draw(grid_sizes))]  # pins mu
    for _ in range(n):
        a = draw(st.integers(0, 24)) * 0.5
        length = draw(st.one_of(
            st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0, 8.0, 16.0, 33.0]),
            st.floats(min_value=1.0, max_value=float(mu)),
        ))
        triples.append((a, a + length, draw(grid_sizes)))
    return Instance.from_tuples(triples)


@st.composite
def aligned_instances(draw, log_mu=4, n_max=40):
    """One aligned segment: a class-``i`` item arrives at a multiple of
    ``2^i`` inside ``[0, mu)`` and leaves before its window ends."""
    mu = 2**log_mu
    n = draw(st.integers(min_value=0, max_value=n_max))
    triples = [(0.0, float(mu), draw(grid_sizes))]  # the segment anchor
    for _ in range(n):
        i = draw(st.integers(0, log_mu))
        width = 2**i
        c = draw(st.integers(0, mu // width - 1))
        length = draw(st.sampled_from([width, max(0.75 * width, 0.6)]))
        triples.append((float(c * width), c * width + length,
                        draw(grid_sizes)))
    return Instance.from_tuples(triples)


GENERAL = [
    (HybridAlgorithm, ListHybrid),
    (ClassifyByDuration, ListClassify),
    (lambda rule: RenTang(64, rule=rule),
     lambda rule: ListRenTang(64, rule=rule)),
]
ALIGNED = [
    (StaticRowsCDFF, ListStaticRows),
    (CDFF, ListCDFF),
]


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
@pytest.mark.parametrize("new,old", GENERAL, ids=["HA", "CBD", "RenTang"])
@given(inst=general_instances())
@settings(max_examples=40, deadline=None)
def test_general_algorithms_decide_as_the_list_versions(new, old, rule, inst):
    assert decisions(new(rule=rule), inst) == decisions(old(rule=rule), inst)


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
@pytest.mark.parametrize("new,old", ALIGNED, ids=["StaticRows", "CDFF"])
@given(inst=aligned_instances())
@settings(max_examples=40, deadline=None)
def test_aligned_algorithms_decide_as_the_list_versions(new, old, rule, inst):
    assert decisions(new(rule=rule), inst) == decisions(old(rule=rule), inst)


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
def test_ha_on_a_long_random_run(rule):
    """Many bins per lane and many closes: the regime lanes are for."""
    from repro.workloads.random_general import poisson_random

    inst = poisson_random(6.0, 1024.0, 300.0, seed=3)
    assert math.isfinite(inst.span)
    assert decisions(HybridAlgorithm(rule=rule), inst) == decisions(
        ListHybrid(rule=rule), inst
    )
