"""Core substrate: items, instances, load profiles, bins, the kernel.

Everything above this package (algorithms, adversaries, offline oracles,
experiments, the streaming engine) is built on these primitives.  The
single source of simulation semantics is
:class:`~repro.core.kernel.PlacementKernel`: ``simulate`` here (and
:class:`repro.engine.Engine`) drive one, and ``IncrementalSimulation``
is one, with recording switched on.
"""

from .bins import Bin, BinRecord, LOAD_EPS
from .errors import (
    AlignmentError,
    CapacityExceededError,
    ClairvoyanceError,
    InvalidInstanceError,
    InvalidItemError,
    PackingError,
    ReproError,
    SimulationError,
)
from .instance import Instance, InstanceStats
from .intervals import (
    gaps,
    intersection_measure,
    merge_intervals,
    union_measure,
)
from .item import Item, UNKNOWN_DEPARTURE, item_view
from .kernel import KernelListener, OpenBinIndex, PlacementKernel
from .objectives import max_bins, momentary_ratio, optimal_bins_profile, usage_time
from .profile import LoadProfile, load_profile, open_count_profile
from .result import PackingResult
from .simulation import IncrementalSimulation, simulate
from .store import ItemStore, validate_item_values
from .validate import audit, audit_cost, check_feasible_bin

__all__ = [
    "Bin",
    "BinRecord",
    "LOAD_EPS",
    "Item",
    "UNKNOWN_DEPARTURE",
    "item_view",
    "ItemStore",
    "validate_item_values",
    "Instance",
    "InstanceStats",
    "merge_intervals",
    "union_measure",
    "intersection_measure",
    "gaps",
    "LoadProfile",
    "load_profile",
    "open_count_profile",
    "usage_time",
    "max_bins",
    "momentary_ratio",
    "optimal_bins_profile",
    "PackingResult",
    "PlacementKernel",
    "OpenBinIndex",
    "KernelListener",
    "IncrementalSimulation",
    "simulate",
    "audit",
    "audit_cost",
    "check_feasible_bin",
    "ReproError",
    "InvalidItemError",
    "InvalidInstanceError",
    "CapacityExceededError",
    "PackingError",
    "SimulationError",
    "ClairvoyanceError",
    "AlignmentError",
]
