"""Stateful property test: ItemStore vs. a boxed-row reference model.

A Hypothesis :class:`RuleBasedStateMachine` drives a root
:class:`ItemStore` through arbitrary interleavings of ``append``,
``extend_columns``, ``sort_by_arrival``, and
zero-copy slicing, mirroring every step in a plain Python list of
``(arrival, departure, size, uid)`` tuples.  Invariants compare the
two after every step.

The interesting part is **aliasing**: a slice shares the root's column
arrays, so the machine keeps every live view alongside a snapshot of
the rows it covered at slice time and asserts the view still shows
exactly those rows after the root grows or sorts.  (Appends land past
the view's fixed window; a reordering sort *replaces* the root's array
objects, so views keep the old ones.)  Views must also refuse every
root-only mutation with :class:`InvalidInstanceError`.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

import pytest

from repro.core.errors import InvalidInstanceError, InvalidItemError
from repro.core.store import ItemStore

# bounded, NaN-free coordinates: |arrival| <= 1e6 and length >= 1e-3
# guarantee arrival + length > arrival in float arithmetic
arrivals = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
lengths = st.one_of(
    st.none(), st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
)
sizes = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)
rows = st.tuples(arrivals, lengths, sizes)


class ItemStoreMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.store = ItemStore()
        self.model: list = []  # [(arrival, departure|None, size, uid)]
        self.views: list = []  # [(view_store, slice-time row snapshot)]
        self.next_uid = 0

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _mint(self, a, length, s):
        uid = self.next_uid
        self.next_uid += 1
        return (a, None if length is None else a + length, s, uid)

    @staticmethod
    def _materialize(store) -> list:
        return [(it.arrival, it.departure, it.size, it.uid) for it in store]

    # ------------------------------------------------------------------ #
    # Rules: root mutations
    # ------------------------------------------------------------------ #
    @rule(row=rows)
    def append(self, row):
        a, d, s, uid = self._mint(*row)
        idx = self.store.append(a, d, s, uid)
        assert idx == len(self.model)
        self.model.append((a, d, s, uid))

    @rule(batch=st.lists(rows, min_size=0, max_size=6))
    def extend_columns(self, batch):
        minted = [self._mint(*row) for row in batch]
        first = self.store.extend_columns(
            [r[0] for r in minted],
            [r[1] for r in minted],
            [r[2] for r in minted],
            uid_start=minted[0][3] if minted else None,
        )
        assert first == len(self.model)
        self.model.extend(minted)

    @rule(batch=st.lists(rows, min_size=1, max_size=4),
          bad_index=st.integers(min_value=0, max_value=3))
    def extend_columns_bad_row_is_atomic(self, batch, bad_index):
        # one poisoned row must leave the store byte-for-byte unchanged
        bad_index = min(bad_index, len(batch) - 1)
        minted = [self._mint(*row) for row in batch]
        arr = [r[0] for r in minted]
        dep = [r[1] for r in minted]
        siz = [r[2] for r in minted]
        siz[bad_index] = 2.0  # size must lie in (0, 1]
        with pytest.raises(InvalidItemError) as err:
            self.store.extend_columns(arr, dep, siz)
        assert err.value.row == bad_index
        assert self._materialize(self.store) == self.model

    @rule()
    def sort_by_arrival(self):
        self.store.sort_by_arrival()
        # Python's sorted is stable, matching the documented tie order
        self.model.sort(key=lambda row: row[0])

    # ------------------------------------------------------------------ #
    # Rules: slicing (the aliasing surface)
    # ------------------------------------------------------------------ #
    @rule(data=st.data())
    def make_view(self, data):
        n = len(self.model)
        start = data.draw(st.integers(0, n), label="start")
        stop = data.draw(st.integers(start, n), label="stop")
        view = self.store.slice(start, stop)
        assert view.is_view
        self.views.append((view, self.model[start:stop]))

    @precondition(lambda self: self.views)
    @rule(data=st.data())
    def make_subview(self, data):
        view, snapshot = data.draw(
            st.sampled_from(self.views), label="parent view"
        )
        n = len(snapshot)
        start = data.draw(st.integers(0, n), label="start")
        stop = data.draw(st.integers(start, n), label="stop")
        self.views.append((view.slice(start, stop), snapshot[start:stop]))

    @rule(data=st.data())
    def step_slice_is_a_fresh_root(self, data):
        # a non-unit step materializes a copy: appendable, not a view
        n = len(self.model)
        start = data.draw(st.integers(0, n), label="start")
        copy = self.store[start::2]
        assert not copy.is_view
        assert self._materialize(copy) == self.model[start::2]

    # ------------------------------------------------------------------ #
    # Invariants
    # ------------------------------------------------------------------ #
    @invariant()
    def store_matches_model(self):
        assert len(self.store) == len(self.model)
        assert self._materialize(self.store) == self.model
        for i, row in enumerate(self.model):
            assert self.store.row(i) == row
        if self.model:
            last = self.model[-1]
            got = self.store[-1]
            assert (got.arrival, got.departure, got.size, got.uid) == last

    @invariant()
    def sortedness_agrees(self):
        model_sorted = all(
            self.model[i][0] <= self.model[i + 1][0]
            for i in range(len(self.model) - 1)
        )
        assert self.store.is_sorted() == model_sorted

    @invariant()
    def uid_index_agrees(self):
        for i, (_, _, _, uid) in enumerate(self.model):
            assert self.store.row_of_uid(uid) == i
        with pytest.raises(KeyError):
            self.store.row_of_uid(self.next_uid + 1)

    @invariant()
    def columns_window_matches(self):
        arr, dep, siz, uids, start, stop = self.store.columns()
        assert stop - start == len(self.model)
        for i, (a, d, s, uid) in enumerate(self.model):
            j = start + i
            assert arr[j] == a
            assert (None if dep[j] != dep[j] else dep[j]) == d
            assert siz[j] == s and uids[j] == uid

    @invariant()
    def views_stay_frozen(self):
        # slice-time rows, regardless of later root appends and sorts
        for view, snapshot in self.views:
            assert len(view) == len(snapshot)
            assert self._materialize(view) == snapshot

    @invariant()
    def views_reject_mutation(self):
        for view, _ in self.views:
            with pytest.raises(InvalidInstanceError):
                view.append(0.0, 1.0, 0.5)
            with pytest.raises(InvalidInstanceError):
                view.extend_columns([0.0], [1.0], [0.5])
            with pytest.raises(InvalidInstanceError):
                view.sort_by_arrival()
            with pytest.raises(InvalidInstanceError):
                view.assign_sequential_uids()


ItemStoreMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestItemStoreStateful = ItemStoreMachine.TestCase
