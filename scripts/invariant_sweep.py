#!/usr/bin/env python
"""CI invariant sweep: every algorithm × every workload family, monitored.

Runs each general-input algorithm over each general generator, and each
aligned-input algorithm over each aligned generator, with an
:class:`~repro.obs.invariants.InvariantMonitor` attached, then fails
(exit 1) if ANY invariant violation was recorded anywhere.  This is the
"zero violations across the sweep" acceptance gate: the theory bounds
from the paper hold online on every run, or CI goes red.

Usage::

    PYTHONPATH=src python scripts/invariant_sweep.py [--n-items N] [-v]
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import (  # noqa: E402
    CDFF,
    BestFit,
    ClassifyByDuration,
    FirstFit,
    HybridAlgorithm,
    LastFit,
    NextFit,
    RenTang,
    StaticRowsCDFF,
    WorstFit,
    aligned_random,
    batch_jobs,
    binary_input,
    cloud_gaming,
    poisson_random,
    simulate,
    staircase,
    uniform_random,
)
from repro.algorithms import BEST_FIT, LAST_FIT, WORST_FIT  # noqa: E402
from repro.obs.invariants import InvariantMonitor  # noqa: E402

#: any-fit algorithms accept arbitrary positive lengths
ANYFIT_ALGORITHMS = [
    ("FirstFit", FirstFit),
    ("BestFit", BestFit),
    ("WorstFit", WorstFit),
    ("LastFit", LastFit),
    ("NextFit", NextFit),
]

#: duration-classifying algorithms declare a [1, μ] length range; HA
#: also runs with the other Any-Fit rules inside its lanes (the paper's
#: footnote 1: any Any-Fit rule keeps its bound), so every kind of
#: kernel lane query runs under the monitors
GENERAL_ALGORITHMS = ANYFIT_ALGORITHMS + [
    ("ClassifyByDuration", ClassifyByDuration),
    ("RenTang", lambda: RenTang(64.0)),
    ("HybridAlgorithm", HybridAlgorithm),
    ("HybridAlgorithm[BEST_FIT]", lambda: HybridAlgorithm(rule=BEST_FIT)),
    ("HybridAlgorithm[WORST_FIT]", lambda: HybridAlgorithm(rule=WORST_FIT)),
    ("HybridAlgorithm[LAST_FIT]", lambda: HybridAlgorithm(rule=LAST_FIT)),
]

ALIGNED_ALGORITHMS = [
    ("CDFF", CDFF),
    ("StaticRowsCDFF", StaticRowsCDFF),
    ("FirstFit", FirstFit),
    ("HybridAlgorithm", HybridAlgorithm),
]


def general_generators(n_items: int):
    """(name, instance) pairs with lengths normalised to [1, μ]."""
    return [
        ("uniform_random", uniform_random(n_items, 64, seed=0)),
        ("poisson_random", poisson_random(8.0, 16.0, n_items / 8.0, seed=1)),
        ("staircase", staircase(64.0)),
        ("batch_jobs", batch_jobs(6, max(2, n_items // 12), seed=3)),
    ]


def anyfit_generators(n_items: int):
    """Workloads with raw (possibly sub-unit) lengths — any-fit only."""
    return [
        ("cloud_gaming", cloud_gaming(24.0, seed=2)),
    ]


def aligned_generators(n_items: int):
    return [
        ("binary_input", binary_input(64)),
        ("aligned_random", aligned_random(16, n_items, seed=4)),
    ]


def sweep(n_items: int = 300, verbose: bool = False) -> int:
    failures = 0
    runs = 0
    plans = [
        (GENERAL_ALGORITHMS, general_generators(n_items)),
        (ANYFIT_ALGORITHMS, anyfit_generators(n_items)),
        (ALIGNED_ALGORITHMS, aligned_generators(n_items)),
    ]
    for algorithms, generators in plans:
        for gen_name, instance in generators:
            for alg_name, factory in algorithms:
                algorithm = factory()
                # the algorithm's own name selects its Table-1 bound
                monitor = InvariantMonitor(algorithm=algorithm)
                result = simulate(algorithm, instance, listener=monitor)
                monitor.finalize()
                runs += 1
                status = "ok"
                if not monitor.ok:
                    failures += 1
                    status = f"{len(monitor.violations)} VIOLATION(S)"
                    for v in monitor.violations:
                        print(
                            f"  {alg_name} on {gen_name}: {v.invariant}: "
                            f"{v.message}",
                            file=sys.stderr,
                        )
                if verbose or not monitor.ok:
                    print(
                        f"{alg_name:>26s} x {gen_name:<16s} "
                        f"cost={result.cost:10.2f} "
                        f"checks={monitor.checks:6d} -> {status}"
                    )
    print(
        f"invariant sweep: {runs} runs, "
        + ("all clean" if not failures else f"{failures} run(s) violated")
    )
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-items", type=int, default=300)
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args()
    return sweep(args.n_items, verbose=args.verbose)


if __name__ == "__main__":
    raise SystemExit(main())
