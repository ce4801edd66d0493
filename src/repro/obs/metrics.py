"""Metric primitives for the unified observability layer.

These are the one set of counter/gauge/histogram/timing types used by
every layer of the system: the packing-metrics registry
:class:`~repro.engine.metrics.EngineMetrics` and the serve layer's
request telemetry are built from them, and registries merge across
shards primitive by primitive.

Design rules (inherited from the engine's metrics layer, now enforced
package-wide):

- **bounded memory** — histograms have fixed bucket edges, timings keep
  aggregates only, nothing retains per-event history;
- **data only** — metric objects hold numbers, never file handles, so
  their states travel inside checkpoints and across process pools;
- **mergeable** — every primitive implements ``merge(other)`` so
  per-shard metrics from :func:`repro.parallel.replay_sharded` combine
  into one registry with no information loss (exact for counters and
  histograms, conservative min/max for timings and gauges).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timing",
    "OCCUPANCY_EDGES",
    "UTILIZATION_EDGES",
    "LIFETIME_EDGES",
    "LATENCY_EDGES",
    "RESIDUAL_EDGES",
    "BINS_OPEN_EDGES",
]

# ---------------------------------------------------------------------- #
# Default bucket edges (the packing registry's and the serve layer's)
# ---------------------------------------------------------------------- #
#: occupancy buckets: items ever packed into a bin over its lifetime
OCCUPANCY_EDGES = (1, 2, 3, 5, 8, 13, 21, 34)
#: peak-load buckets as a fraction of capacity
UTILIZATION_EDGES = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
#: bin lifetime buckets (usage time, powers of two)
LIFETIME_EDGES = (0.5, 1, 2, 4, 8, 16, 32, 64, 128)
#: request wall-time buckets (seconds)
LATENCY_EDGES = (1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 1e-2)
#: residual capacity of the chosen bin after placement (fraction of capacity)
RESIDUAL_EDGES = (0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9)
#: open-bin count observed at each arrival
BINS_OPEN_EDGES = (1, 2, 4, 8, 16, 32, 64, 128)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def to_dict(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class Gauge:
    """A last-written value with running min/max over all writes."""

    __slots__ = ("value", "min", "max", "updates")

    def __init__(self) -> None:
        self.value = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.updates += 1

    def merge(self, other: "Gauge") -> None:
        """Combine with a gauge from another shard (min/max exact)."""
        if other.updates:
            self.value = other.value  # last writer wins across the merge order
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
            self.updates += other.updates

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "min": self.min if self.updates else None,
            "max": self.max if self.updates else None,
            "updates": self.updates,
        }

    def __repr__(self) -> str:
        return f"Gauge({self.value!r}, max={self.max!r})"


class Histogram:
    """Fixed-bucket histogram: counts of observations per ``(lo, hi]`` bucket.

    ``edges`` are the inner boundaries; an observation lands in bucket
    ``i`` when ``edges[i-1] < x <= edges[i]``, with under/overflow buckets
    at the ends.  Memory is O(len(edges)) forever.
    """

    __slots__ = ("edges", "counts", "total", "sum")

    def __init__(self, edges: Sequence[float]) -> None:
        self.edges = tuple(sorted(edges))
        if not self.edges:
            raise ValueError("histogram needs at least one bucket edge")
        self.counts = [0] * (len(self.edges) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, x: float) -> None:
        # C bisect compares ``edge < x`` like the docstring's rule, so
        # NaN lands in bucket 0 and +inf in the overflow bucket
        self.counts[bisect_left(self.edges, x)] += 1
        self.total += 1
        self.sum += x

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by interpolating within buckets.

        Linear interpolation inside the bucket that straddles rank
        ``q * total`` (the underflow bucket interpolates from 0, the
        overflow bucket conservatively reports the last edge — the true
        value is at least that).  Exact enough for p50/p99 dashboards;
        never a substitute for a full sample.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.total:
            return 0.0
        rank = q * self.total
        seen = 0
        for i, c in enumerate(self.counts):
            if seen + c >= rank and c:
                frac = (rank - seen) / c
                lo = 0.0 if i == 0 else self.edges[i - 1]
                hi = self.edges[i] if i < len(self.edges) else self.edges[-1]
                return lo + (hi - lo) * frac
            seen += c
        return self.edges[-1]

    def merge(self, other: "Histogram") -> None:
        """Bucket-wise sum; both histograms must share the same edges."""
        if other.edges != self.edges:
            raise ValueError(
                f"cannot merge histograms with different edges: "
                f"{self.edges} vs {other.edges}"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.total += other.total
        self.sum += other.sum

    def to_dict(self) -> dict:
        buckets = {}
        prev = None
        for i, edge in enumerate(self.edges):
            label = f"<= {edge:g}" if prev is None else f"({prev:g}, {edge:g}]"
            buckets[label] = self.counts[i]
            prev = edge
        buckets[f"> {self.edges[-1]:g}"] = self.counts[-1]
        return {"total": self.total, "mean": self.mean, "buckets": buckets}


class Timing:
    """Aggregate of elapsed-time observations (seconds)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, dt: float) -> None:
        self.count += 1
        self.total += dt
        if dt < self.min:
            self.min = dt
        if dt > self.max:
            self.max = dt

    def merge(self, other: "Timing") -> None:
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total_s": self.total,
            "mean_us": 1e6 * self.total / self.count if self.count else 0.0,
            "min_us": 1e6 * self.min if self.count else 0.0,
            "max_us": 1e6 * self.max,
        }
