"""CDFF (Classify-by-Duration-First-Fit) — the paper's O(log log μ)
algorithm for **aligned inputs** (Algorithm 2).

Aligned inputs (Definition 2.1): items of length in ``(2^{i-1}, 2^i]`` may
only arrive at multiples of ``2^i``.  All arrival times are therefore
non-negative integers (class-0 lengths lie in ``(1/2, 1]`` and arrive at
integer times).

CDFF maintains *rows* of bins.  At any moment ``t`` let
``(2^{m_t-1}, 2^{m_t}]`` be the longest length interval for which items may
still arrive (``m_t`` is the number of trailing zero bits of ``t`` within
the current segment).  An arriving item of duration class ``i`` is packed
first-fit into **row** ``m_t − i``: longer items land in lower-indexed rows.
When a bin empties it is removed from its row.  The dynamism — which row a
class maps to changes with ``t`` — is precisely what improves the
competitive ratio exponentially over a static classify-by-duration (see the
ABL.ROWS ablation and Section 5.1's binary-string analysis).

Segmenting (Section 5 preamble): the input is decomposed online into
segments ``σ_0, σ_1, …`` — a segment starting at ``T₀`` covers
``[T₀, T₀+μ_seg]`` where ``μ_seg = 2^{⌈log₂ longest item at T₀⌉}`` — and
all items of a segment both arrive and depart inside it.  Within the batch
of simultaneous arrivals at ``T₀`` the row *keys* are not yet known (the
longest item may arrive last in the arbitrary order), but items of distinct
classes never share a row at ``T₀``, so CDFF buckets the batch by class and
binds buckets to absolute row keys ``m₀ − i`` once the batch ends — this is
exactly the paper's "adapts as larger items arrive" remark.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..core.bins import Bin
from ..core.errors import AlignmentError
from ..core.item import Item
from .anyfit import FIRST_FIT, FitRule, lane_fit
from .base import OnlineAlgorithm, first_fit_choice

__all__ = ["CDFF", "StaticRowsCDFF", "aligned_class", "trailing_zeros"]


def aligned_class(length: float) -> int:
    """Duration class of an aligned item: ``i ≥ 0`` with length ∈ (2^{i-1}, 2^i].

    Aligned inputs assume lengths exceed 1/2 (class 0 is ``(1/2, 1]``);
    shorter lengths would arrive at non-integer multiples and are rejected.
    """
    if length <= 0.5:
        raise AlignmentError(
            f"aligned items must have length > 1/2, got {length}"
        )
    return max(0, math.ceil(math.log2(length) - 1e-12))


def trailing_zeros(n: int) -> int:
    """Number of trailing zero bits of a positive integer."""
    if n <= 0:
        raise ValueError(f"trailing_zeros needs a positive integer, got {n}")
    return (n & -n).bit_length() - 1


class CDFF(OnlineAlgorithm):
    """Azar & Vainstein's CDFF algorithm for aligned inputs (Algorithm 2).

    CDFF's rows are not bin tags — the T₀ batch buckets are rebound to
    rows once the batch ends — so it keeps them itself, each row and
    bucket a ``uid -> Bin`` dict in opening order (O(1) removal on close).
    """

    def __init__(self, *, rule: FitRule = FIRST_FIT, name: Optional[str] = None):
        self.rule = rule
        self.name = name or "CDFF"
        self.reset()

    def reset(self) -> None:
        self._rows: Dict[int, Dict[int, Bin]] = {}
        self._row_of_bin: Dict[int, int] = {}
        self._seg_start: Optional[int] = None
        self._seg_end: Optional[int] = None  # None while the T0 batch is open
        self._batch: Dict[int, Dict[int, Bin]] = {}  # class -> bucket
        self._placed_row: Dict[int, int] = {}  # item uid -> row key (for audits)

    # ------------------------------------------------------------------ #
    # Inspection (used by the figure renderers and the Lemma 5.5 tests)
    # ------------------------------------------------------------------ #
    def rows_snapshot(self) -> Dict[int, List[Bin]]:
        """Current row → bins mapping (batch buckets included if unbound)."""
        rows = {k: list(v.values()) for k, v in self._rows.items() if v}
        if self._batch:
            m0 = max(self._batch)
            for i, bins in self._batch.items():
                if bins:
                    rows.setdefault(m0 - i, []).extend(bins.values())
        return rows

    def row_of_item(self, uid: int) -> int:
        """The row key item ``uid`` was packed into (after batch binding).

        While the T₀ batch is still open the key is computed against the
        largest class seen so far, matching what binding would produce.
        """
        marker = self._placed_row[uid]
        if marker < 0:
            m0 = max(self._batch) if self._batch else 0
            return m0 - (-marker - 1)
        return marker

    # ------------------------------------------------------------------ #
    def place(self, item: Item, sim) -> Bin:
        t = item.arrival
        ti = int(round(t))
        if abs(t - ti) > 1e-9 or ti < 0:
            raise AlignmentError(
                f"aligned arrivals must be non-negative integers, got {t}"
            )
        i = aligned_class(item.length)
        if ti % (2**i) != 0:
            raise AlignmentError(
                f"class-{i} item (length {item.length:g}) must arrive at a "
                f"multiple of {2**i}, got {ti}"
            )

        if self._seg_start is not None and ti > self._seg_start and self._seg_end is None:
            self._bind_batch()
        if self._seg_start is None or (
            self._seg_end is not None and ti >= self._seg_end
        ):
            self._start_segment(ti)

        assert self._seg_start is not None
        if ti == self._seg_start:  # batch of simultaneous arrivals at T0
            return self._place_batch(item, i, sim)
        return self._place_row(item, i, ti, sim)

    def _start_segment(self, t0: int) -> None:
        if any(self._rows.values()) or any(self._batch.values()):
            raise AlignmentError(
                f"new segment at t={t0} but bins from the previous segment "
                "are still occupied — the input is not aligned"
            )
        self._seg_start = t0
        self._seg_end = None
        self._batch = {}
        self._rows = {}
        self._row_of_bin = {}

    def _bind_batch(self) -> None:
        """Assign the T₀ buckets their absolute row keys m₀ − i."""
        assert self._seg_start is not None
        m0 = max(self._batch) if self._batch else 0
        for i, bins in self._batch.items():
            if not bins:
                continue
            row = m0 - i
            self._rows.setdefault(row, {}).update(bins)
            for uid in bins:
                self._row_of_bin[uid] = row
        for uid, marker in list(self._placed_row.items()):
            if marker < 0:  # stored as -(class+1) while unbound
                self._placed_row[uid] = m0 - (-marker - 1)
        self._batch = {}
        self._seg_end = self._seg_start + 2**m0

    def _fit(self, bins: Dict[int, Bin], item: Item) -> Optional[Bin]:
        """``rule``'s choice among ``bins`` that fit ``item``, else None."""
        # CDFF's own rule: stop at the first fitting bin, not build the
        # candidate list (2.4x on dense rows; docs/performance.md,
        # "Placement lanes")
        if self.rule is FIRST_FIT:
            return first_fit_choice(bins.values(), item)
        candidates = [b for b in bins.values() if b.fits(item)]
        return self.rule(candidates, item) if candidates else None

    def _place_batch(self, item: Item, i: int, sim) -> Bin:
        bucket = self._batch.setdefault(i, {})
        self._placed_row[item.uid] = -(i + 1)  # bound later
        b = self._fit(bucket, item)
        if b is None:
            b = sim.open_bin(tag=("cdff", self._seg_start, i))
            bucket[b.uid] = b
        return b

    def _place_row(self, item: Item, i: int, ti: int, sim) -> Bin:
        assert self._seg_start is not None and self._seg_end is not None
        m_t = trailing_zeros(ti - self._seg_start)
        row = m_t - i
        if row < 0:
            raise AlignmentError(
                f"class-{i} item arrives at t={ti} (m_t={m_t}) — input is "
                "not aligned relative to the segment start"
            )
        self._placed_row[item.uid] = row
        bins = self._rows.setdefault(row, {})
        b = self._fit(bins, item)
        if b is None:
            b = sim.open_bin(tag=("cdff", self._seg_start, i))
            bins[b.uid] = b
            self._row_of_bin[b.uid] = row
        return b

    # ------------------------------------------------------------------ #
    def notify_close(self, bin_: Bin, sim) -> None:
        row = self._row_of_bin.pop(bin_.uid, None)
        if row is not None:
            self._rows[row].pop(bin_.uid, None)
            return
        # the bin may still be in an unbound batch bucket: its class is
        # the last field of its tag
        bucket = self._batch.get(bin_.tag[-1])
        if bucket is not None:
            bucket.pop(bin_.uid, None)


class StaticRowsCDFF(OnlineAlgorithm):
    """Ablation: CDFF with *static* rows — class ``i`` always maps to its own
    row, regardless of ``t``.

    This is the "statically packing types into rows" strawman the paper's
    Techniques section contrasts CDFF against; on binary inputs it opens one
    bin per active class (Θ(log μ) of them) instead of CDFF's
    ``max_0(binary(t)) + 1``, and the ABL.ROWS experiment shows the gap.
    Its rows are kernel lanes, tagged ``("static-cdff", i)``.
    """

    name = "StaticRowsCDFF"

    def __init__(self, *, rule: FitRule = FIRST_FIT) -> None:
        self.rule = rule

    def place(self, item: Item, sim) -> Bin:
        lane = ("static-cdff", aligned_class(item.length))
        return lane_fit(self.rule, item, sim, lane) or sim.open_bin(tag=lane)
