"""Core substrate: items, instances, load profiles, bins, the kernel.

Everything above this package (algorithms, adversaries, offline oracles,
experiments, the streaming engine) is built on these primitives.  The
single source of simulation semantics is
:class:`~repro.core.kernel.PlacementKernel`: ``simulate`` here (and
:class:`repro.engine.Engine`) drive one, and ``IncrementalSimulation``
is one, with recording switched on.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".bins": ("Bin", "BinRecord", "LOAD_EPS"),
    ".errors": (
        "ReproError", "InvalidItemError", "InvalidInstanceError",
        "CapacityExceededError", "PackingError", "SimulationError",
        "ClairvoyanceError", "AlignmentError",
    ),
    ".instance": ("Instance", "InstanceStats"),
    ".intervals": (
        "merge_intervals", "union_measure", "intersection_measure", "gaps",
    ),
    ".item": ("Item", "UNKNOWN_DEPARTURE", "item_view"),
    ".kernel": ("PlacementKernel", "OpenBinIndex", "KernelListener"),
    ".objectives": (
        "usage_time", "max_bins", "momentary_ratio", "optimal_bins_profile",
    ),
    ".profile": ("LoadProfile", "load_profile", "open_count_profile"),
    ".result": ("PackingResult",),
    ".simulation": ("IncrementalSimulation", "simulate"),
    ".store": ("ItemStore", "validate_item_values"),
    ".validate": ("audit", "audit_cost", "check_feasible_bin"),
})
