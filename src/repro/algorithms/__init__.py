"""Online packing algorithms: baselines and the paper's HA and CDFF."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".anyfit": (
        "AnyFit", "FitRule", "FIRST_FIT", "BEST_FIT", "WORST_FIT", "LAST_FIT",
        "FirstFit", "BestFit", "WorstFit", "LastFit", "NextFit", "RandomFit",
    ),
    ".base": (
        "OnlineAlgorithm", "SimulationView", "algorithm_name",
        "duration_class", "item_type",
        "type_departure_deadline", "first_fit_choice",
    ),
    ".cdff": ("CDFF", "StaticRowsCDFF", "aligned_class", "trailing_zeros"),
    ".classify": ("ClassifyByDuration", "RenTang", "optimal_rentang_n"),
    ".greedy": ("LeastExpansion",),
    ".hybrid": ("HybridAlgorithm", "sqrt_threshold", "GN_TAG", "CD_TAG"),
})
