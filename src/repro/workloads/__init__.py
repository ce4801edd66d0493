"""Workload generators: random, aligned, adversarial, cloud-style."""

from .adversarial import (
    cbd_trap,
    ff_trap,
    full_adversary_schedule,
    sigma_star,
    sigma_star_items,
)
from .aligned import aligned_random, binary_input
from .cloud import batch_jobs, bounded_parallelism, cloud_gaming
from .combinators import overlay, periodic, perturb_sizes, thin, truncate
from .io import (
    dump_jsonl,
    dumps_csv,
    dumps_jsonl,
    iter_jsonl_stores,
    load_csv,
    load_jsonl,
    loads_csv,
    loads_jsonl,
    save_csv,
)
from .random_general import poisson_random, staircase, uniform_random

__all__ = [
    "sigma_star",
    "sigma_star_items",
    "full_adversary_schedule",
    "ff_trap",
    "cbd_trap",
    "binary_input",
    "aligned_random",
    "cloud_gaming",
    "batch_jobs",
    "bounded_parallelism",
    "uniform_random",
    "poisson_random",
    "staircase",
    "save_csv",
    "load_csv",
    "dumps_csv",
    "loads_csv",
    "dump_jsonl",
    "load_jsonl",
    "dumps_jsonl",
    "loads_jsonl",
    "iter_jsonl_stores",
    "overlay",
    "periodic",
    "perturb_sizes",
    "thin",
    "truncate",
]
