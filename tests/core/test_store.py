"""Unit tests for :mod:`repro.core.store` — the columnar data plane.

The store must behave exactly like the boxed representation it
replaced: same validation messages as :class:`Item`, same instance
invariants as the old ``Instance._validate``, and loaders filling
columns must report the same line-numbered diagnostics.
"""

import math
import tracemalloc

import pytest

from repro.core.errors import InvalidInstanceError, InvalidItemError
from repro.core.instance import Instance
from repro.core.item import Item, item_view
from repro.core.store import ItemStore, validate_item_values
from repro.workloads.io import (
    iter_jsonl_stores,
    load_jsonl,
    loads_csv,
    loads_jsonl,
)


def filled(rows):
    store = ItemStore()
    for a, d, s, u in rows:
        store.append(a, d, s, u)
    return store


FOUR_ROWS = [
    (0.0, 2.0, 0.5, 10),
    (1.0, None, 0.25, 11),
    (1.0, 4.0, 1.0, 12),
    (3.5, 9.0, 0.125, 13),
]


class TestEmptyStore:
    def test_shape(self):
        store = ItemStore()
        assert len(store) == 0
        assert list(store) == []
        arr, dep, siz, uids, start, stop = store.columns()
        assert (start, stop) == (0, 0)
        assert not store.is_view

    def test_invariants_hold_vacuously(self):
        store = ItemStore()
        assert store.is_sorted()
        store.validate_release_order()
        store.sort_by_arrival()
        assert len(store.slice(0, 0)) == 0

    def test_uid_lookup_empty(self):
        with pytest.raises(KeyError):
            ItemStore().row_of_uid(0)


class TestAppend:
    def test_single_item_round_trip(self):
        store = ItemStore()
        assert store.append(1.0, 3.0, 0.5, uid=7) == 0
        assert len(store) == 1
        assert store.row(0) == (1.0, 3.0, 0.5, 7)
        assert store.item(0) == Item(1.0, 3.0, 0.5, uid=7)
        assert store[0].uid == 7
        assert store[-1] == store[0]

    def test_unknown_departure_round_trips_as_none(self):
        store = ItemStore()
        store.append(0.0, None, 0.5)
        # stored as NaN internally, surfaced as None on every view
        assert math.isnan(store.departures[0])
        assert store.row(0)[1] is None
        assert store.item(0).departure is None

    @pytest.mark.parametrize(
        "triple",
        [
            (math.nan, 2.0, 0.5),
            (math.inf, 2.0, 0.5),
            (0.0, math.nan, 0.5),
            (0.0, math.inf, 0.5),
            (2.0, 2.0, 0.5),
            (2.0, 1.0, 0.5),
            (0.0, 1.0, 0.0),
            (0.0, 1.0, -0.5),
            (0.0, 1.0, 1.5),
            (0.0, 1.0, math.nan),
        ],
    )
    def test_validation_matches_item_exactly(self, triple):
        a, d, s = triple
        with pytest.raises(InvalidItemError) as from_item:
            Item(a, d, s)
        store = ItemStore()
        with pytest.raises(InvalidItemError) as from_append:
            store.append(a, d, s)
        with pytest.raises(InvalidItemError) as from_values:
            validate_item_values(a, d, s)
        assert str(from_append.value) == str(from_item.value)
        assert str(from_values.value) == str(from_item.value)
        assert len(store) == 0

    def test_index_errors(self):
        store = filled(FOUR_ROWS)
        with pytest.raises(IndexError):
            store.item(4)
        with pytest.raises(IndexError):
            store.item(-5)


class TestExtendColumns:
    def test_bulk_matches_per_row_append(self):
        bulk = ItemStore()
        bulk.extend_columns(
            [r[0] for r in FOUR_ROWS],
            [r[1] for r in FOUR_ROWS],
            [r[2] for r in FOUR_ROWS],
            uid_start=10,
        )
        assert list(bulk) == list(filled(FOUR_ROWS))

    def test_returns_first_row_and_default_uids(self):
        store = ItemStore()
        store.append(0.0, 1.0, 0.5)
        assert store.extend_columns([2.0], [3.0], [0.5]) == 1
        assert store.row(1)[3] == -1  # append()'s default uid

    def test_bad_row_leaves_store_unchanged(self):
        store = ItemStore()
        store.append(0.0, 1.0, 0.5)
        with pytest.raises(InvalidItemError) as exc:
            store.extend_columns(
                [1.0, 2.0, 3.0], [2.0, 3.0, 4.0], [0.5, 2.0, 0.5]
            )
        assert exc.value.row == 1
        assert "size must lie in (0, 1], got 2.0" in str(exc.value)
        assert len(store) == 1  # whole batch rejected, not a prefix

    def test_explicit_nan_departure_rejected(self):
        # None means "unknown"; a parsed NaN must NOT silently become
        # "unknown" — same rule as append()/Item
        with pytest.raises(InvalidItemError) as exc:
            ItemStore().extend_columns([0.0], [math.nan], [0.5])
        assert "departure must be finite or None" in str(exc.value)
        assert exc.value.row == 0

    def test_length_mismatch(self):
        with pytest.raises(InvalidInstanceError, match="column lengths differ"):
            ItemStore().extend_columns([0.0, 1.0], [2.0], [0.5, 0.5])

    def test_rejected_on_views(self):
        view = filled(FOUR_ROWS).slice(0, 2)
        with pytest.raises(InvalidInstanceError):
            view.extend_columns([0.0], [1.0], [0.5])


class TestSlicing:
    def test_zero_copy_aliasing(self):
        root = filled(FOUR_ROWS)
        view = root.slice(1, 3)
        assert view.is_view and not root.is_view
        # shares the parent's array objects — no copies
        assert view.arrivals is root.arrivals
        assert view.sizes is root.sizes
        assert len(view) == 2
        assert view.item(0) == root.item(1)
        assert view.item(1) == root.item(2)

    def test_nested_slice_offsets(self):
        root = filled(FOUR_ROWS)
        inner = root.slice(1, 4).slice(1, 3)
        assert [it.uid for it in inner] == [12, 13]
        arr, dep, siz, uids, start, stop = inner.columns()
        assert (start, stop) == (2, 4)

    def test_window_fixed_under_root_growth(self):
        root = filled(FOUR_ROWS)
        view = root.slice(0, len(root))
        root.append(10.0, 11.0, 0.5, uid=99)
        assert len(view) == 4  # bounds were pinned at slice time
        assert len(root) == 5

    def test_views_are_read_only(self):
        view = filled(FOUR_ROWS).slice(0, 2)
        for mutate in (
            lambda: view.append(9.0, 10.0, 0.5),
            lambda: view.extend_columns([9.0], [10.0], [0.5]),
            view.sort_by_arrival,
            view.assign_sequential_uids,
        ):
            with pytest.raises(InvalidInstanceError):
                mutate()

    def test_getitem_slice_and_step(self):
        root = filled(FOUR_ROWS)
        assert [it.uid for it in root[1:3]] == [11, 12]
        assert root[1:3].is_view
        stepped = root[::2]
        assert [it.uid for it in stepped] == [10, 12]
        assert not stepped.is_view  # strided slices copy into a root

    def test_out_of_range_slice(self):
        with pytest.raises(InvalidInstanceError):
            filled(FOUR_ROWS).slice(0, 5)


class TestUidLookup:
    def test_lookup_and_missing(self):
        store = filled(FOUR_ROWS)
        assert store.row_of_uid(12) == 2
        with pytest.raises(KeyError):
            store.row_of_uid(999)

    def test_index_invalidated_by_append(self):
        store = filled(FOUR_ROWS)
        store.row_of_uid(10)  # build the lazy index
        store.append(5.0, 6.0, 0.5, uid=77)
        assert store.row_of_uid(77) == 4

    def test_window_relative_on_views(self):
        view = filled(FOUR_ROWS).slice(2, 4)
        assert view.row_of_uid(13) == 1
        with pytest.raises(KeyError):
            view.row_of_uid(10)  # outside the window

    def test_later_duplicate_wins(self):
        store = filled(FOUR_ROWS)
        store.append(5.0, 6.0, 0.5, uid=10)
        assert store.row_of_uid(10) == 4


class TestSorting:
    def test_stable_sort_by_arrival(self):
        store = filled(
            [
                (2.0, 3.0, 0.5, 0),
                (0.0, 1.0, 0.5, 1),
                (2.0, 4.0, 0.5, 2),  # same arrival as uid 0: order kept
            ]
        )
        assert not store.is_sorted()
        store.sort_by_arrival()
        assert store.is_sorted()
        assert [it.uid for it in store] == [1, 0, 2]

    def test_sorted_input_is_noop(self):
        store = filled(FOUR_ROWS)
        cols_before = (store.arrivals, store.sizes)
        store.sort_by_arrival()
        assert (store.arrivals, store.sizes) == cols_before


class TestValidateReleaseOrder:
    def test_out_of_order(self):
        store = filled([(2.0, 3.0, 0.5, 0), (1.0, 3.0, 0.5, 1)])
        with pytest.raises(
            InvalidInstanceError, match="non-decreasing arrival order"
        ):
            store.validate_release_order()

    def test_unknown_departure(self):
        store = filled([(0.0, None, 0.5, 0)])
        with pytest.raises(
            InvalidInstanceError, match="known departures"
        ):
            store.validate_release_order()
        store.validate_release_order(require_departures=False)

    def test_duplicate_uids(self):
        store = filled([(0.0, 1.0, 0.5, 3), (0.0, 1.0, 0.5, 3)])
        with pytest.raises(InvalidInstanceError, match="duplicate item uid 3"):
            store.validate_release_order()
        store.validate_release_order(check_uids=False)


class TestItemViews:
    def test_item_view_skips_validation(self):
        # item_view is only for already-validated rows; it must not
        # re-run __post_init__ (that cost is the data plane's margin)
        it = item_view(0.0, None, 0.5, 3)
        assert it == Item(0.0, None, 0.5, uid=3)
        assert isinstance(it, Item)

    def test_from_items_round_trip(self):
        items = [Item(0.0, 2.0, 0.5, uid=4), Item(1.0, None, 0.25, uid=5)]
        assert list(ItemStore.from_items(items)) == items


class TestReassignUidsMemory:
    """reassign_uids=True must not build the O(n) duplicate-uid set.

    Sequential uids are unique by construction; the duplicate scan
    (a set holding one int per item) only pays off for caller-supplied
    uids.  Regression guard for the peak-allocation fix.
    """

    N = 100_000

    def _store(self):
        store = ItemStore()
        store.extend_columns(
            [float(i) for i in range(self.N)],
            [float(i) + 1.0 for i in range(self.N)],
            [0.5] * self.N,
            uid_start=0,
        )
        return store

    def _peak(self, store, **kwargs):
        tracemalloc.start()
        try:
            Instance.from_store(store, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_sequential_uid_path_allocates_no_set(self):
        store = self._store()
        peak_reassign = self._peak(store, reassign_uids=True)
        peak_checked = self._peak(store, reassign_uids=False)
        # the duplicate scan's set costs several MB at 100k items; the
        # sequential path must stay orders of magnitude below it
        assert peak_checked > 1_000_000
        assert peak_reassign < peak_checked / 10
        assert peak_reassign < 200_000


class TestLoaderLineNumbers:
    """Columnar loaders must keep the historical line-numbered errors."""

    GOOD = '{"arrival": 0.0, "departure": 2.0, "size": 0.5}'

    def test_bad_value_on_bulk_path(self):
        # well-formed JSON with an out-of-range size takes the
        # extend_columns fast path; the error must still name the line
        text = "\n".join([self.GOOD, self.GOOD, self.GOOD.replace("0.5", "2.5")])
        with pytest.raises(InvalidInstanceError, match="line 3: size must lie"):
            loads_jsonl(text)

    def test_malformed_json_falls_back_per_line(self):
        text = "\n".join([self.GOOD, "{not json}", self.GOOD])
        with pytest.raises(InvalidInstanceError, match="line 2"):
            loads_jsonl(text)

    def test_missing_key(self):
        text = "\n".join([self.GOOD, '{"arrival": 0.0, "size": 0.5}'])
        with pytest.raises(InvalidInstanceError, match="line 2"):
            loads_jsonl(text)

    def test_blank_lines_do_not_shift_numbering(self):
        text = "\n".join([self.GOOD, "", self.GOOD.replace("0.5", "-1")])
        with pytest.raises(InvalidInstanceError, match="line 3"):
            loads_jsonl(text)

    def test_streaming_stores_report_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            "\n".join([self.GOOD, self.GOOD, self.GOOD.replace("2.0", "-1.0")])
        )
        with pytest.raises(InvalidInstanceError, match="line 3"):
            for _ in iter_jsonl_stores(path):
                pass

    def test_csv_reports_lines(self):
        text = "arrival,departure,size\n0.0,2.0,0.5\n0.0,2.0,nope\n"
        with pytest.raises(InvalidInstanceError, match="line 3"):
            loads_csv(text)

    def test_load_jsonl_happy_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            "\n".join(
                '{"arrival": %d, "departure": %d, "size": 0.5}' % (i, i + 2)
                for i in range(10)
            )
        )
        inst = load_jsonl(path)
        assert len(inst) == 10
        assert [it.uid for it in inst] == list(range(10))
