"""Workload generators: random, aligned, adversarial, cloud-style."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".adversarial": (
        "sigma_star", "sigma_star_items", "full_adversary_schedule", "ff_trap",
        "cbd_trap",
    ),
    ".aligned": ("binary_input", "aligned_random"),
    ".cloud": ("cloud_gaming", "batch_jobs", "bounded_parallelism"),
    ".combinators": (
        "overlay", "periodic", "perturb_sizes", "thin", "truncate",
    ),
    ".io": (
        "save_csv", "load_csv", "dumps_csv", "loads_csv", "dump_jsonl",
        "load_jsonl", "dumps_jsonl", "loads_jsonl", "iter_jsonl_stores",
    ),
    ".random_general": ("uniform_random", "poisson_random", "staircase"),
})
