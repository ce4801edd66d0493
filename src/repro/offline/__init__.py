"""Offline machinery: bounds, exact oracles, and offline packers.

Unlike the other packages this one imports its exports eagerly: the
functions ``dual_coloring`` and ``waterfill`` share their names with
their submodules, and a lazily read name would turn into the module
object once its submodule is imported.
"""

from .binpack import ffd, l2_lower_bound, min_bins, min_bins_bounded
from .bounds import (
    OptSandwich,
    ceil_load_bound,
    demand_bound,
    lemma31_ceil_upper,
    lemma31_demand_span_upper,
    opt_sandwich,
    span_bound,
)
from .dual_coloring import (
    OfflineAssignment,
    dual_coloring,
    first_fit_decreasing_length,
)
from .optimal import opt_nonrepacking, opt_reference, opt_repacking
from .waterfill import WaterfillResult, waterfill

__all__ = [
    "ffd",
    "l2_lower_bound",
    "min_bins",
    "min_bins_bounded",
    "OptSandwich",
    "demand_bound",
    "span_bound",
    "ceil_load_bound",
    "lemma31_ceil_upper",
    "lemma31_demand_span_upper",
    "opt_sandwich",
    "OfflineAssignment",
    "dual_coloring",
    "first_fit_decreasing_length",
    "opt_repacking",
    "opt_nonrepacking",
    "opt_reference",
    "WaterfillResult",
    "waterfill",
]
