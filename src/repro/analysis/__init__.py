"""Analysis: binary strings, competitive ratios, closed-form bounds."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".binary_strings": (
        "binary", "max_zero_run", "lsb_zero_run", "max_zero_run_all",
        "expected_max_zero_run", "sum_max_zero_run", "sample_max_zero_run",
        "lemma59_bound",
    ),
    ".competitive": (
        "RatioEstimate", "measure_ratio", "GrowthFit", "fit_growth",
        "best_law",
    ),
    ".statistics": ("Summary", "bootstrap_ci", "summarize"),
    ".theory": (
        "log2_safe", "sqrt_log_mu", "loglog_mu", "ha_upper_bound",
        "ha_gn_bound", "cdff_binary_upper_bound", "cdff_aligned_upper_bound",
        "rentang_upper_bound", "ff_nonclairvoyant_upper_bound",
        "lower_bound_sqrt_log",
    ),
})
