"""repro — a reproduction of *Tight Bounds for Clairvoyant Dynamic Bin
Packing* (Azar & Vainstein, SPAA 2017).

The package implements the MinUsageTime dynamic bin packing model, the
paper's two algorithms (the Hybrid Algorithm and CDFF), the Ω(√log μ)
adversary, the offline oracles the analysis compares against, and an
experiment harness regenerating every table and figure of the paper.

Quickstart::

    from repro import Instance, HybridAlgorithm, simulate, opt_reference

    sigma = Instance.from_tuples([(0, 4, 0.5), (0, 1, 0.5), (2, 6, 0.3)])
    result = simulate(HybridAlgorithm(), sigma)
    print(result.cost, opt_reference(sigma))
"""

from ._exports import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".core": (
        "Item", "Instance", "Bin", "BinRecord", "LoadProfile", "load_profile",
        "PackingResult", "PlacementKernel", "IncrementalSimulation",
        "simulate", "audit", "ReproError", "usage_time", "max_bins",
        "momentary_ratio",
    ),
    ".algorithms": (
        "OnlineAlgorithm", "AnyFit", "FirstFit", "BestFit", "WorstFit",
        "LastFit", "NextFit", "RandomFit", "LeastExpansion",
        "ClassifyByDuration", "RenTang", "HybridAlgorithm", "CDFF",
        "StaticRowsCDFF", "duration_class", "item_type",
    ),
    ".offline": (
        "OptSandwich", "opt_sandwich", "opt_repacking", "opt_nonrepacking",
        "opt_reference", "ceil_load_bound", "dual_coloring", "waterfill",
    ),
    ".adversary": (
        "AdaptiveAdversary", "AdversaryOutcome", "SqrtLogAdversary",
        "NonClairvoyantAdversary", "realized_instance",
    ),
    ".reductions": ("align_departures", "is_aligned", "partition_aligned"),
    ".analysis": ("measure_ratio", "fit_growth", "sqrt_log_mu", "loglog_mu"),
    ".workloads": (
        "uniform_random", "poisson_random", "staircase", "binary_input",
        "aligned_random", "sigma_star", "full_adversary_schedule",
        "cloud_gaming", "batch_jobs", "bounded_parallelism", "save_csv",
        "load_csv", "dump_jsonl", "load_jsonl",
    ),
    ".engine": (
        "Engine", "EngineSummary", "EngineMetrics", "open_trace",
        "save_checkpoint", "load_checkpoint",
    ),
})
__all__.insert(0, "__version__")
