"""Layer-ladder benchmark of the MinUsageTime placement stack.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-hybrid-sharded --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with all tracing off;
``--trace 1`` replays a prefix of the same items up the layer ladder
(JSONL loader -> kernel -> engine -> protocol + shard -> server over the
in-memory transport -> server subprocess over loopback TCP) and reports
per-layer microseconds per item.  Either way every decision is checked
against batch ``simulate()`` and the last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--variant`` switches on a known defect for the benchmark's own
self-check (``perfbench/tests``): ``no-index`` runs the kernel without
its open-bin index, ``telemetry`` serves with ``--telemetry``, and
``perturb`` alters one decision before the parity check.
"""

from __future__ import annotations

import argparse
import signal
import sys

import common
from workloads import WORKLOADS

VARIANTS = ("none", "no-index", "telemetry", "perturb")


def unsupported(variant: str, served: bool, trace: int) -> bool:
    """Whether this run cannot apply ``variant`` (``perturb`` always can):
    the index switch reaches only the untraced replay, and the telemetry
    switch only the untraced server."""
    if variant == "no-index":
        return served or bool(trace)
    if variant == "telemetry":
        return not served or bool(trace)
    return False


def parse_args(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--variant", choices=VARIANTS, default="none")
    return parser.parse_args(argv)


def _run_async(coro):
    from driver import new_loop

    loop = new_loop()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so servers and children started
    # below are stopped by their ``finally`` blocks
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds <= 0:
        common.note("--seconds must be positive")
        return 2
    w = WORKLOADS[args.workload]
    if unsupported(args.variant, w.served, args.trace):
        common.note(f"--variant {args.variant} does not apply to "
                    f"{w.name} with --trace {args.trace}")
        return 2
    try:
        common.use_checkout_src()
    except (common.SetupError, ImportError) as exc:
        common.note(f"cannot benchmark this directory: {exc}")
        return 2
    from workloads import generate

    extra = ("--telemetry",) if args.variant == "telemetry" else ()
    perturb = args.variant == "perturb"
    with common.WorkDir() as workdir:
        instance = generate(w, args.seed)
        if args.trace:
            import ladder

            result = _run_async(ladder.run(
                w, instance, args.seconds, workdir, perturb=perturb))
        elif w.served:
            import serve_run

            result = _run_async(serve_run.run(
                w, instance, args.seconds, workdir, extra=extra,
                perturb=perturb))
        else:
            import replay

            result = replay.run(w, instance, args.seconds, workdir,
                                indexed=args.variant != "no-index",
                                perturb=perturb)
    problems, attempted, failed, metrics = result
    for problem in problems:
        common.note(f"PARITY: {problem}")
    common.emit(not problems, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
