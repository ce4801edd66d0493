"""Command-line interface: ``repro-dbp`` (or ``python -m repro``).

Subcommands::

    repro-dbp list                 # list all registered experiments
    repro-dbp run T1.GEN.UB ...    # run specific experiments by id
    repro-dbp table1               # the four Table 1 rows
    repro-dbp figures              # Figures 1-3
    repro-dbp lemmas               # lemma validations
    repro-dbp all                  # everything
    repro-dbp demo                 # a 10-second guided tour
    repro-dbp pack t.csv -a CDFF   # batch-pack a trace file
    repro-dbp replay t.jsonl       # stream a trace (constant memory)
    repro-dbp obs summarize t.out  # aggregate a --trace JSONL by event
    repro-dbp obs flame p.prof.json         # flamegraph views of a profile
    repro-dbp obs critical-path t.jsonl     # span-tree critical-path analytics
    repro-dbp obs diff a.json b.json        # drift between two ledger records
    repro-dbp obs regress --baseline b.json # gate a ledger against a baseline
    repro-dbp chaos --schedules 25          # seeded fault-injection sweep
    repro-dbp chaos --replay plan.json --minimize  # shrink a failing plan

Run-producing commands (``run``/``pack``/``replay``) write one JSON
provenance record per run into the ledger directory (``--ledger-dir``,
``REPRO_LEDGER_DIR``, default ``.ledger/``); ``--no-ledger`` disables
this.  ``replay --invariants`` attaches the online theory-invariant
monitors (capacity, cost identity, span ≤ cost, Table-1 ratio bounds).

``run``/``replay``/``serve`` accept ``--sample-hz HZ`` to attach the
CPU-time stack sampler (:mod:`repro.obs.prof`): a profile artifact is
written at exit (``--profile-out``, default ``<trace>.prof.json``) and
its summary rides in the run's ledger record under the never-gated
``profile`` section.  ``obs flame`` renders a profile as a top-functions
table or exports it as collapsed-stack / speedscope files; ``obs
critical-path`` reconstructs span trees from a ``--trace`` JSONL and
attributes request latency phase by phase.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, Sequence

_GROUPS = {
    "table1": ["T1.GEN.UB", "T1.GEN.LB", "T1.ALIGN.UB", "T1.NC"],
    "figures": ["FIG1", "FIG2", "FIG3"],
    "lemmas": ["LEM3.1", "LEM3.3", "LEM3.5", "COR3.4", "THM4.2",
               "LEM5.5", "LEM5.12"],
    "binary": ["COR5.8", "LEM5.9", "PROP5.3"],
    "ablations": ["ABL.THRESH", "ABL.ANYFIT", "ABL.ROWS"],
    "growth": ["GROWTH"],
    "extensions": ["OBJ.MOTIVATION", "EXT.GREEDY", "EXT.SHALOM", "EXT.AUGMENT",
                   "EXT.NRGAP", "EXT.ADAPT", "EXT.RANDOM", "OPEN.ALIGN",
                   "OPEN.GEN"],
}


def _bounded(kind, *, positive: bool):
    """An argparse ``type=`` parsing a ``kind`` number that is ``> 0``
    (``positive``) or ``>= 0``, so a bad flag is one usage error."""

    def parse(text: str):
        value = kind(text)
        if value > 0 or (value == 0 and not positive):
            return value
        raise argparse.ArgumentTypeError(
            f"must be {'> 0' if positive else '>= 0'}, got {text!r}"
        )

    parse.__name__ = kind.__name__  # argparse's "invalid int value" text
    return parse


_positive_int = _bounded(int, positive=True)
_positive_float = _bounded(float, positive=True)
_non_negative_int = _bounded(int, positive=False)
_non_negative_float = _bounded(float, positive=False)


def _ledger_dir(args):
    """The ledger directory for a run command, or ``None`` when disabled."""
    if getattr(args, "no_ledger", False):
        return None
    from .obs.ledger import resolve_ledger_dir

    return resolve_ledger_dir(getattr(args, "ledger_dir", None))


def _algorithm_class(name: str):
    """The registered algorithm class ``name``, or ``None`` after one
    ``unknown algorithm`` line on stderr."""
    from .parallel import ALGORITHM_REGISTRY, _registry

    cls = _registry().get(name)
    if cls is None:
        print(f"unknown algorithm {name!r}; options: "
              + ", ".join(ALGORITHM_REGISTRY), file=sys.stderr)
    return cls


def _add_ledger_flags(parser) -> None:
    parser.add_argument(
        "--ledger-dir", metavar="DIR", default=None,
        help="directory for run ledger records (default: $REPRO_LEDGER_DIR "
        "or .ledger/)",
    )
    parser.add_argument(
        "--no-ledger", action="store_true",
        help="do not write a ledger record for this run",
    )


def _add_sampler_flags(parser) -> None:
    parser.add_argument(
        "--sample-hz", type=float, default=0.0, metavar="HZ",
        help="attach the CPU-time stack sampler at HZ samples per CPU "
        "second (0 = off; 97 is a good default — prime, so it does not "
        "alias with periodic work)",
    )
    parser.add_argument(
        "--profile-out", metavar="OUT.prof.json", default=None,
        help="profile artifact path (default: derived from the command's "
        "primary output; requires --sample-hz)",
    )


def _start_sampler(args):
    """Build and start a :class:`StackSampler` when ``--sample-hz`` asks
    for one; returns ``None`` otherwise."""
    hz = getattr(args, "sample_hz", 0.0) or 0.0
    if hz <= 0:
        return None
    from .obs.prof import StackSampler

    sampler = StackSampler(hz)
    sampler.start()
    return sampler


def _finish_sampler(sampler, args, default_out: str):
    """Stop ``sampler``, write its artifact, and return the ledger-ready
    ``profile_info`` dict (``None`` when no sampler ran)."""
    if sampler is None:
        return None
    import pathlib

    profile = sampler.stop()
    out = pathlib.Path(getattr(args, "profile_out", None) or default_out)
    profile.write(out)
    stats = profile.stats()
    print(
        f"profile: {stats['samples']} samples @ {profile.hz:g} Hz "
        f"({stats['unique_stacks']} unique stacks) -> {out}"
    )
    return {"sampler": stats, "artifact": str(out)}


def _run(
    ids: Iterable[str],
    *,
    ledger_dir=None,
    sampler=None,
    profile_info=None,
) -> int:
    from .experiments import EXPERIMENTS
    from .experiments.runner import run_experiment

    failures = 0
    for eid in ids:
        if eid not in EXPERIMENTS:
            print(f"unknown experiment id: {eid}", file=sys.stderr)
            failures += 1
            continue
        info = profile_info
        if sampler is not None:
            # per-record cumulative snapshot; the artifact pointer (if
            # any) is added by the caller once the run completes
            info = dict(profile_info or {})
            info["sampler"] = sampler.snapshot().stats()
        result = run_experiment(eid, ledger_dir=ledger_dir, profile_info=info)
        print(result.render())
        if not result.passed:
            failures += 1
    return failures


def _demo() -> int:
    from . import (
        CDFF,
        FirstFit,
        HybridAlgorithm,
        binary_input,
        opt_reference,
        simulate,
        uniform_random,
    )

    inst = uniform_random(150, 64, seed=42)
    print(f"random instance: {inst!r}")
    for alg in (FirstFit(), HybridAlgorithm()):
        res = simulate(alg, inst)
        print(f"  {res.algorithm:16s} cost={res.cost:9.2f} bins={res.n_bins}")
    opt = opt_reference(inst, max_exact=18)
    print(f"  OPT_R ∈ [{opt.lower:.2f}, {opt.upper:.2f}]")
    sig = binary_input(64)
    res = simulate(CDFF(), sig)
    print(f"σ_64: CDFF cost={res.cost:g} (OPT_R = 64); ratio={res.cost/64:.3f}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-dbp",
        description="Reproduction harness for 'Tight Bounds for Clairvoyant "
        "Dynamic Bin Packing' (SPAA 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list registered experiment ids")
    runp = sub.add_parser("run", help="run experiments by id")
    runp.add_argument("ids", nargs="+", metavar="EXPERIMENT_ID")
    _add_sampler_flags(runp)
    _add_ledger_flags(runp)
    for group in _GROUPS:
        sub.add_parser(group, help=f"run the {group} experiments")
    sub.add_parser("all", help="run every registered experiment")
    sub.add_parser("demo", help="a quick guided tour")
    sub.add_parser("curves", help="growth curves as ASCII charts")
    reportp = sub.add_parser(
        "report", help="run experiments and write a Markdown report"
    )
    reportp.add_argument("-o", "--output", default="REPORT.md")
    reportp.add_argument(
        "ids", nargs="*", metavar="EXPERIMENT_ID",
        help="subset to run (default: everything)",
    )
    packp = sub.add_parser(
        "pack", help="pack a CSV trace with a chosen algorithm"
    )
    packp.add_argument(
        "csv", nargs="?", help="instance file (arrival,departure,size)"
    )
    packp.add_argument(
        "-a", "--algorithm", default="HybridAlgorithm",
        help="algorithm name (see --list-algorithms)",
    )
    packp.add_argument("--capacity", type=_positive_float, default=1.0)
    packp.add_argument(
        "--no-index", action="store_true",
        help="disable the kernel's O(log n) open-bin index "
        "(linear-scan placement queries)",
    )
    packp.add_argument(
        "--render", action="store_true", help="draw the packing (ASCII)"
    )
    packp.add_argument(
        "--list-algorithms", action="store_true",
        help="print available algorithm names and exit",
    )
    _add_ledger_flags(packp)
    replayp = sub.add_parser(
        "replay",
        help="stream a trace through the constant-memory engine",
        description="Replay a JSONL/CSV trace through the streaming "
        "engine (repro.engine): constant memory, O(1) running totals, "
        "optional checkpointing and metrics.",
    )
    replayp.add_argument(
        "trace", help="trace file (.jsonl/.csv; one request per row)"
    )
    replayp.add_argument(
        "-a", "--algo", "--algorithm", dest="algorithm",
        default="HybridAlgorithm",
        help="algorithm name (see `pack --list-algorithms`)",
    )
    replayp.add_argument("--capacity", type=_positive_float, default=1.0)
    replayp.add_argument(
        "--no-index", action="store_true",
        help="disable the kernel's O(log n) open-bin index "
        "(linear-scan placement queries)",
    )
    replayp.add_argument(
        "--format", choices=("auto", "jsonl", "csv"), default="auto",
        help="trace format (default: infer from extension)",
    )
    replayp.add_argument(
        "--metrics", metavar="OUT.json",
        help="write a metrics snapshot (counters/histograms)",
    )
    replayp.add_argument(
        "--checkpoint-every", type=_non_negative_int, metavar="N", default=0,
        help="snapshot engine+algorithm state every N items",
    )
    replayp.add_argument(
        "--checkpoint", metavar="PATH",
        help="checkpoint file (default: <trace>.ckpt)",
    )
    replayp.add_argument(
        "--resume", metavar="PATH",
        help="restore from a checkpoint and skip the items already fed",
    )
    replayp.add_argument(
        "--limit", type=_non_negative_int, metavar="N", default=0,
        help="replay only the first N items of the trace (0 = all)",
    )
    replayp.add_argument(
        "--verify", action="store_true",
        help="also run batch simulate() and assert engine/batch parity "
        "(loads the whole trace into memory)",
    )
    replayp.add_argument(
        "--trace", metavar="OUT.jsonl", dest="trace_out",
        help="record a kernel event trace (spans+events) to a JSONL file",
    )
    replayp.add_argument(
        "--trace-capacity", type=_non_negative_int, metavar="N", default=0,
        help="trace ring-buffer capacity (default: 32768; oldest events "
        "are dropped beyond this)",
    )
    replayp.add_argument(
        "--invariants", action="store_true",
        help="attach the online theory-invariant monitors (capacity, cost "
        "identity, span<=cost, Table-1 ratio bounds); violations are "
        "reported and recorded in the ledger",
    )
    replayp.add_argument(
        "--strict-invariants", action="store_true",
        help="like --invariants, but abort with an error on the first "
        "violation",
    )
    _add_sampler_flags(replayp)
    _add_ledger_flags(replayp)
    obsp = sub.add_parser(
        "obs", help="observability utilities (summaries, ledger sentinel)"
    )
    obssub = obsp.add_subparsers(dest="obs_command", required=True)
    obssump = obssub.add_parser(
        "summarize", help="aggregate a JSONL trace written by replay --trace"
    )
    obssump.add_argument("trace", help="trace file written by --trace")
    obssump.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="show only the N busiest event names (by total span time)",
    )
    obsflamep = obssub.add_parser(
        "flame",
        help="render a --sample-hz profile: top-functions table, "
        "collapsed stacks, speedscope JSON",
    )
    obsflamep.add_argument(
        "profile", help="profile artifact written by --sample-hz "
        "(<out>.prof.json)",
    )
    obsflamep.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="rows in the top-functions table (default 20)",
    )
    obsflamep.add_argument(
        "--collapsed", metavar="OUT.txt", default=None,
        help="write Brendan-Gregg collapsed stacks (flamegraph.pl input)",
    )
    obsflamep.add_argument(
        "--speedscope", metavar="OUT.json", default=None,
        help="write a speedscope-compatible JSON profile "
        "(open at https://www.speedscope.app)",
    )
    obscritp = obssub.add_parser(
        "critical-path",
        help="reconstruct span trees from a --trace JSONL and attribute "
        "request latency phase by phase",
    )
    obscritp.add_argument(
        "trace", help="trace file written by replay --trace or "
        "serve --trace-out",
    )
    obscritp.add_argument(
        "--json", metavar="OUT.json", default=None,
        help="also write the full report (per-request slices, phase "
        "totals) as JSON",
    )
    obsdiffp = obssub.add_parser(
        "diff", help="per-metric drift between two ledger records"
    )
    obsdiffp.add_argument("record_a", help="baseline ledger record (JSON)")
    obsdiffp.add_argument("record_b", help="current ledger record (JSON)")
    obsdiffp.add_argument(
        "--tol", action="append", default=[], metavar="PATTERN=REL",
        help="relative tolerance for metrics matching PATTERN (fnmatch over "
        "dotted keys, e.g. 'metrics.cost=0.01'); repeatable",
    )
    obsregp = obssub.add_parser(
        "regress",
        help="gate a ledger directory against a frozen baseline "
        "(exit 1 on cost drift or new invariant violations)",
    )
    obsregp.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="baseline file (default: <ledger-dir>/baseline.json)",
    )
    obsregp.add_argument(
        "--ledger-dir", metavar="DIR", default=None,
        help="ledger directory to check (default: $REPRO_LEDGER_DIR or "
        ".ledger/)",
    )
    obsregp.add_argument(
        "--tol", action="append", default=[], metavar="PATTERN=REL",
        help="relative tolerance override, as in `obs diff`; repeatable",
    )
    servep = sub.add_parser(
        "serve",
        help="run the placement service (JSONL over TCP)",
        description="Serve placement decisions over TCP: clients submit "
        "arrive/depart/advance/stats requests as JSON lines and receive "
        "one reply per request.  SIGTERM/SIGINT drains gracefully "
        "(flush micro-batchers, work queues dry, checkpoint every "
        "shard).  `serve top` instead attaches to a *running* server "
        "and renders a live per-shard RED view from its telemetry "
        "admin verb.  See docs/serving.md for the protocol.",
    )
    servep.add_argument(
        "mode", nargs="?", choices=("top",),
        help="'top': poll a running server's stats/telemetry verbs and "
        "render a live per-shard rate/p50/p99/queue view (needs --port)",
    )
    servep.add_argument("--host", default="127.0.0.1")
    servep.add_argument(
        "--port", type=int, default=0,
        help="listening port (0 = pick a free one; printed on startup)",
    )
    servep.add_argument(
        "-a", "--algo", "--algorithm", dest="algorithm",
        default="HybridAlgorithm",
        help="algorithm name (see `pack --list-algorithms`)",
    )
    servep.add_argument("--capacity", type=_positive_float, default=1.0)
    servep.add_argument(
        "--shards", type=_positive_int, default=1,
        help="worker shards (one kernel each; consistent-hash routed)",
    )
    servep.add_argument(
        "--max-queue", type=_positive_int, default=1024,
        help="per-shard queue bound in micro-batches; beyond it clients "
        "get {'error': 'overloaded', 'retry_after': ...}",
    )
    servep.add_argument(
        "--batch-max", type=_positive_int, default=1,
        help="micro-batch size (1 = batching off)",
    )
    servep.add_argument(
        "--batch-delay", type=_non_negative_float, default=0.0,
        metavar="SECONDS",
        help="micro-batch age bound (0 = batching off)",
    )
    servep.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="write one checkpoint per shard on drain",
    )
    servep.add_argument(
        "--resume", action="store_true",
        help="restore shards from --checkpoint-dir before serving",
    )
    servep.add_argument(
        "--no-index", action="store_true",
        help="disable the kernel's O(log n) open-bin index",
    )
    servep.add_argument(
        "--no-metrics", action="store_true",
        help="skip per-shard EngineMetrics collection",
    )
    servep.add_argument(
        "--telemetry", action="store_true",
        help="enable request-scoped telemetry: span sampling, per-shard "
        "RED metrics, and the {'op': 'telemetry'} admin verb",
    )
    servep.add_argument(
        "--trace-sample", type=float, default=1.0, metavar="P",
        help="head-sampling probability for span recording (default 1.0; "
        "deterministic in the trace id and --telemetry-seed)",
    )
    servep.add_argument(
        "--telemetry-seed", type=int, default=0, metavar="N",
        help="seed for the deterministic head-sampler",
    )
    servep.add_argument(
        "--trace-out", metavar="OUT.jsonl",
        help="write sampled request spans as JSONL on drain "
        "(implies --telemetry)",
    )
    servep.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="serve top: seconds between refreshes (default 2)",
    )
    servep.add_argument(
        "--iterations", type=int, default=0, metavar="N",
        help="serve top: stop after N refreshes (0 = until interrupted)",
    )
    servep.add_argument(
        "--prometheus", action="store_true",
        help="serve top: print one Prometheus text-exposition page "
        "and exit",
    )
    _add_sampler_flags(servep)
    _add_ledger_flags(servep)
    loadgenp = sub.add_parser(
        "loadgen",
        help="open-loop load generator against a placement server",
        description="Replay a registered workload generator against a "
        "running `repro-dbp serve` as open-loop traffic (request i is "
        "sent at t0 + i/rate regardless of reply progress) and report "
        "achieved throughput and reply-latency percentiles.",
    )
    loadgenp.add_argument("--host", default="127.0.0.1")
    loadgenp.add_argument("--port", type=int, required=True)
    loadgenp.add_argument(
        "-w", "--workload", default="uniform",
        help="workload generator (see --list-workloads)",
    )
    loadgenp.add_argument(
        "-n", "--items", type=_positive_int, default=1000,
        help="number of arrive requests to send",
    )
    loadgenp.add_argument(
        "--rate", type=float, default=5000.0,
        help="offered load, requests/second (global across connections)",
    )
    loadgenp.add_argument(
        "--connections", type=int, default=1,
        help="concurrent pipelined connections (must not exceed the "
        "server's shard count; each lands on its own shard)",
    )
    loadgenp.add_argument("--seed", type=int, default=0)
    loadgenp.add_argument(
        "--json", metavar="OUT.json", help="also write the report as JSON"
    )
    loadgenp.add_argument(
        "--trace", action="store_true",
        help="stamp a deterministic trace id (lg-<i>) on every request "
        "and report the server's per-phase latency attribution "
        "(needs a server started with --telemetry)",
    )
    loadgenp.add_argument(
        "--list-workloads", action="store_true",
        help="print registered workload names and exit",
    )
    _add_ledger_flags(loadgenp)
    chaosp = sub.add_parser(
        "chaos",
        help="deterministic fault-injection runs of the placement service",
        description="Deterministic fault-injection testing: run "
        "FaultPlan schedules against an in-process "
        "placement server on a virtual clock (no sockets, no wall-clock "
        "sleeps): seeded network faults, shard crashes, checkpoint/"
        "restore cycles.  After healing, oracles check exactly-once "
        "delivery and bit-identical decision/cost parity against batch "
        "simulate().  Failing plans can be shrunk to a minimal "
        "replayable artifact under <ledger>/chaos/.",
    )
    chaosp.add_argument(
        "--seed", type=int, default=0,
        help="first (or only) schedule seed (default 0)",
    )
    chaosp.add_argument(
        "--schedules", type=int, default=0, metavar="N",
        help="sweep N generated schedules starting at --seed",
    )
    chaosp.add_argument(
        "--replay", metavar="PLAN.json",
        help="replay a FaultPlan JSON or a chaos-failure artifact "
        "(runs its minimized plan)",
    )
    chaosp.add_argument(
        "--minimize", action="store_true",
        help="on failure, shrink the plan and write a replayable "
        "artifact under <ledger>/chaos/",
    )
    chaosp.add_argument(
        "--dedup-off", action="store_true",
        help="bug injection: disable the shards' idempotence cache "
        "(lost-ack retries double-apply; the oracle must catch it)",
    )
    chaosp.add_argument(
        "--json", metavar="OUT.json", help="also write reports as JSON"
    )
    _add_ledger_flags(chaosp)

    args = parser.parse_args(argv)
    if args.command == "list":
        from .experiments import EXPERIMENTS

        for eid in sorted(EXPERIMENTS):
            print(eid)
        return 0
    if args.command == "demo":
        return _demo()
    if args.command == "curves":
        from .experiments.curves import growth_charts

        print(growth_charts())
        return 0
    if args.command == "report":
        from .experiments.report import generate_report

        text = generate_report(args.ids or None, out_path=args.output)
        print(f"wrote {args.output} ({len(text.splitlines())} lines)")
        return 0
    if args.command == "pack":
        return _pack(args)
    if args.command == "replay":
        return _replay(args)
    if args.command == "obs":
        return _obs(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "loadgen":
        return _loadgen(args, loadgenp)
    if args.command == "chaos":
        return _chaos(args)
    if args.command == "run":
        sampler = _start_sampler(args)
        info = None
        if sampler is not None:
            info = {"artifact": str(args.profile_out or "run.prof.json")}
        try:
            return _run(
                args.ids,
                ledger_dir=_ledger_dir(args),
                sampler=sampler,
                profile_info=info,
            )
        finally:
            _finish_sampler(sampler, args, "run.prof.json")
    if args.command == "all":
        from .experiments import EXPERIMENTS

        return _run(sorted(EXPERIMENTS))
    return _run(_GROUPS[args.command])


def _pack(args) -> int:
    from .parallel import ALGORITHM_REGISTRY

    if args.list_algorithms:
        for name in ALGORITHM_REGISTRY:
            print(name)
        return 0
    if not args.csv:
        print("pack: a CSV path is required (or --list-algorithms)",
              file=sys.stderr)
        return 1
    algorithm = _algorithm_class(args.algorithm)
    if algorithm is None:
        return 1
    from .core.errors import InvalidInstanceError
    from .core.simulation import simulate
    from .core.validate import audit
    from .offline.optimal import opt_reference
    from .workloads.io import load_csv

    try:
        instance = load_csv(args.csv)
    except (InvalidInstanceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = simulate(algorithm(), instance,
                      capacity=args.capacity, indexed=not args.no_index)
    audit(result)
    st = instance.stats
    print(
        f"{args.csv}: {st.n_items} items, μ={st.mu:g}, span={st.span:g}, "
        f"demand={st.demand:g}"
    )
    print(
        f"{result.algorithm}: cost={result.cost:g} bins={result.n_bins} "
        f"max_open={result.max_open}"
    )
    ledger_dir = _ledger_dir(args)
    if ledger_dir is not None:
        import pathlib

        from .obs.ledger import LedgerSink

        sink = LedgerSink(
            kind="pack",
            algorithm=result.algorithm,
            generator=pathlib.Path(args.csv).name,
            config={"capacity": args.capacity, "indexed": not args.no_index},
            ledger_dir=ledger_dir,
        )
        sink.emit(
            {
                "cost": result.cost,
                "bins": result.n_bins,
                "max_open": result.max_open,
                "items": st.n_items,
                "mu": st.mu,
                "span": st.span,
                "demand": st.demand,
            }
        )
        print(f"ledger: {sink.last_path}")
    if args.capacity == 1.0:
        opt = opt_reference(instance, max_exact=16)
        print(f"OPT_R ∈ [{opt.lower:g}, {opt.upper:g}]  "
              f"→ certified ratio ≤ {result.cost / opt.lower:.3f}")
    if args.render:
        from .viz.ascii import render_packing

        print(render_packing(result))
    return 0


def _replay(args) -> int:
    import time as _time

    from .engine import (
        Engine,
        EngineMetrics,
        JSONSink,
        load_checkpoint,
        open_trace,
        save_checkpoint,
    )

    algorithm = _algorithm_class(args.algorithm)
    if algorithm is None:
        return 1

    tracer = None
    if args.trace_out:
        from .obs import DEFAULT_CAPACITY, Tracer, TracingListener

        tracer = Tracer(args.trace_capacity or DEFAULT_CAPACITY)
    monitor = None
    if args.invariants or args.strict_invariants:
        from .obs.invariants import InvariantMonitor

        monitor = InvariantMonitor(
            capacity=args.capacity,
            algorithm=args.algorithm,
            strict=args.strict_invariants,
            tracer=tracer,
        )

    from .core.errors import CheckpointError, InvalidInstanceError
    from .obs.invariants import InvariantViolationError

    metrics = EngineMetrics()
    try:
        # both read user-named files before the run starts
        source = open_trace(args.trace, format=args.format)
        engine = load_checkpoint(args.resume) if args.resume else None
    except (CheckpointError, InvalidInstanceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if engine is not None:
        # --verify, the invariant monitor and the ledger read -a and
        # --capacity, so they must name the run the checkpoint holds
        held, cap = type(engine.algorithm), engine.capacity
        if held is not algorithm or cap != args.capacity:
            print(
                f"error: {args.resume} holds a {held.__name__} run at "
                f"capacity {cap:g}; resume it with -a {held.__name__} "
                f"--capacity {cap:g}",
                file=sys.stderr,
            )
            return 2
        if args.verify and not engine.record:
            print(
                "--verify needs a checkpoint taken from a --verify run "
                "(the constant-memory engine keeps no history)",
                file=sys.stderr,
            )
            return 1
        if engine.metrics is None:
            engine.metrics = metrics
        metrics = engine.metrics
        if tracer is not None:
            engine.add_listener(TracingListener(tracer))
        if monitor is not None:
            engine.invariants = monitor
            engine.add_listener(monitor)
        skip = engine.arrivals
        print(
            f"resumed from {args.resume}: {skip} items already fed, "
            f"t={engine.time:g}, cost so far {engine.cost_so_far:g}"
        )
    else:
        engine = Engine(
            algorithm(),
            capacity=args.capacity,
            metrics=metrics,
            record=args.verify,
            indexed=not args.no_index,
            tracer=tracer,
            invariants=monitor,
        )
        skip = 0

    ckpt_path = args.checkpoint or f"{args.trace}.ckpt"
    every = max(0, args.checkpoint_every)
    limit = args.limit or None

    def _feed_all() -> None:
        # Drain columnar chunks.  ``fed`` counts trace rows consumed —
        # including rows skipped on resume — matching the item-at-a-time
        # loop this replaces, so --limit / --resume / --checkpoint-every
        # land on exactly the same rows.
        nonlocal fed
        for chunk in source:
            take = len(chunk)
            if limit is not None:
                take = min(take, limit - fed)
                if take <= 0:
                    return
            i = 0
            if fed < skip:  # already applied before the checkpoint
                i = min(skip - fed, take)
                fed += i
            while i < take:
                # stop at the next checkpoint boundary, if one is due
                j = take
                if every:
                    j = min(take, i + every - fed % every)
                engine.feed_store(chunk, i, j)
                fed += j - i
                i = j
                if every and fed % every == 0:
                    save_checkpoint(engine, ckpt_path)

    sampler = _start_sampler(args)
    t0 = _time.perf_counter()
    fed = 0
    try:
        _feed_all()
        summary = engine.finish()
    except (InvariantViolationError, InvalidInstanceError, OSError) as exc:
        if sampler is not None:
            sampler.stop()
        if not isinstance(exc, InvariantViolationError):  # a bad trace
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"replay: {exc}", file=sys.stderr)
        return 1
    elapsed = _time.perf_counter() - t0
    profile_info = _finish_sampler(sampler, args, f"{args.trace}.prof.json")

    events = summary.items + engine.departures
    rate = events / elapsed if elapsed > 0 else float("inf")
    print(
        f"{args.trace}: {summary.items} items replayed "
        f"({events} events, {rate:,.0f} events/s)"
    )
    print(
        f"{summary.algorithm}: cost={summary.cost:g} "
        f"bins={summary.bins_opened} max_open={summary.max_open} "
        f"peak_load={summary.peak_load:g}"
    )
    if every:
        print(f"checkpoints: every {every} items -> {ckpt_path}")
    if args.metrics:
        metrics.flush(JSONSink(args.metrics), extra=summary.to_dict())
        print(f"metrics written to {args.metrics}")
    if tracer is not None:
        written = tracer.write_jsonl(args.trace_out)
        dropped = f" ({tracer.dropped} dropped)" if tracer.dropped else ""
        print(f"trace: {written} events -> {args.trace_out}{dropped}")
    if monitor is not None:
        verdicts = monitor.verdicts()
        n_checks = verdicts["checks"]
        n_viol = len(verdicts["violations"])
        status = "ok" if verdicts["ok"] else f"{n_viol} VIOLATION(S)"
        print(f"invariants: {n_checks} checks -> {status}")
        for viol in verdicts["violations"]:
            print(f"  {viol['invariant']}: {viol['message']}", file=sys.stderr)
    ledger_dir = _ledger_dir(args)
    if ledger_dir is not None:
        from pathlib import Path as _Path

        from .obs.ledger import LedgerSink

        sink = LedgerSink(
            ledger_dir=ledger_dir,
            kind="replay",
            algorithm=summary.algorithm,
            generator=_Path(args.trace).name,
            config={
                "capacity": args.capacity,
                "limit": args.limit,
                "indexed": engine.indexed,
                "format": args.format,
                "resumed": bool(args.resume),
            },
            invariants=monitor,
            wall_s=elapsed,
            profile_info=profile_info,
        )
        sink.emit(metrics.snapshot(extra=summary.to_dict()))
        print(f"ledger: {sink.last_path}")
    if args.verify:
        from .core.instance import Instance
        from .engine.parity import Outcome, check_against_batch

        streamed = engine.result()
        problems = check_against_batch(
            Outcome.of_run(streamed, summary),
            Instance(list(streamed.items), reassign_uids=False),
            algorithm,
            args.capacity,
        )
        if problems:
            print("parity vs simulate(): MISMATCH")
            print("\n".join(f"  {problem}" for problem in problems))
            return 1
        print(
            f"parity vs simulate(): Δcost=0, {len(streamed.items)} "
            "decisions, opened flags, bins and totals equal -> ok"
        )
    return 0


def _serve(args) -> int:
    import asyncio

    from .serve import PlacementServer, ServeConfig

    if args.mode == "top":
        return _serve_top(args)
    if _algorithm_class(args.algorithm) is None:
        return 1
    config = ServeConfig(
        host=args.host,
        port=args.port,
        shards=args.shards,
        algorithm=args.algorithm,
        capacity=args.capacity,
        indexed=not args.no_index,
        max_queue=args.max_queue,
        batch_max=args.batch_max,
        batch_delay=args.batch_delay,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        metrics=not args.no_metrics,
        ledger_dir=_ledger_dir(args),
        telemetry=args.telemetry or args.trace_out is not None,
        trace_sample=args.trace_sample,
        telemetry_seed=args.telemetry_seed,
        trace_out=args.trace_out,
        sample_hz=args.sample_hz,
        profile_out=args.profile_out
        or ("serve.prof.json" if args.sample_hz > 0 else None),
    )

    import gc

    async def _main() -> None:
        server = PlacementServer(config)
        await server.start()
        # tail-latency hygiene: startup objects (registry, modules, the
        # shards themselves) never die, so take them out of every future
        # collection and make young-gen sweeps rarer
        gc.collect()
        gc.freeze()
        gc.set_threshold(50_000, 50, 50)
        resumed = [
            s.shard_id for s in server.shards
            if s.engine.arrivals > 0
        ]
        print(
            f"serving {config.algorithm} on {config.host}:{server.port} "
            f"({config.shards} shard(s)"
            + (f", resumed {len(resumed)} from checkpoint" if resumed else "")
            + ")",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        import signal as _signal

        for sig in (_signal.SIGTERM, _signal.SIGINT):
            try:
                loop.add_signal_handler(sig, server._request_drain)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await server.drained.wait()
        totals = server.totals()
        print(
            f"drained: {totals['requests']} requests "
            f"({totals['accepted']} accepted, {totals['errors']} errors), "
            f"cost={totals['cost']:g}"
        )
        if config.checkpoint_dir is not None:
            print(f"checkpoints: {config.checkpoint_dir}")
        path = getattr(server, "ledger_path", None)
        if path is not None:
            print(f"ledger: {path}")
        if config.trace_out is not None:
            print(f"trace: {config.trace_out}")
        if server.profile_path is not None:
            print(f"profile: {server.profile_path}")

    asyncio.run(_main())
    return 0


def _render_top(stats: dict, snap: dict, prev, *, interval: float) -> str:
    """One refresh frame of the ``serve top`` view.

    Rates are deltas against ``prev`` (the previous snapshot) over the
    refresh interval; the first frame falls back to lifetime averages.
    """
    up = snap.get("uptime_s", 0.0)
    totals = stats.get("totals", {})
    lines = [
        f"serve top: uptime {up:.1f}s  requests {totals.get('requests', 0)}  "
        f"accepted {totals.get('accepted', 0)}  "
        f"errors {totals.get('errors', 0)}  "
        f"sample {snap.get('sample', 0.0):g}  "
        f"spans {snap.get('trace', {}).get('recorded', 0)}",
        f"  {'shard':>5s} {'req/s':>9s} {'err':>6s} {'p50_ms':>8s} "
        f"{'p99_ms':>8s} {'queue':>6s} {'infl':>5s} {'batch':>6s}",
    ]
    prev_shards = (prev or {}).get("per_shard", [])
    for k, shard in enumerate(snap.get("per_shard", [])):
        counters = shard.get("counters", {})
        gauges = shard.get("gauges", {})
        quantiles = shard.get("quantiles", {})
        requests = counters.get("requests", 0)
        if k < len(prev_shards) and interval > 0:
            before = prev_shards[k].get("counters", {}).get("requests", 0)
            rate = (requests - before) / interval
        else:
            rate = requests / up if up > 0 else 0.0
        batch = shard.get("histograms", {}).get("batch_size", {})
        lines.append(
            f"  {k:>5d} {rate:>9.1f} {counters.get('errors', 0):>6d} "
            f"{1e3 * quantiles.get('p50_s', 0.0):>8.3f} "
            f"{1e3 * quantiles.get('p99_s', 0.0):>8.3f} "
            f"{gauges.get('queue_depth', {}).get('value', 0):>6.0f} "
            f"{gauges.get('inflight', {}).get('value', 0):>5.0f} "
            f"{batch.get('mean', 0.0):>6.2f}"
        )
    return "\n".join(lines)


def _serve_top(args) -> int:
    """Attach to a running server and render its live telemetry."""
    import asyncio

    from .serve import PlacementClient, render_service_prometheus

    if not args.port:
        print("serve top: --port is required", file=sys.stderr)
        return 1

    async def _snapshot(client):
        reply = await client.telemetry()
        if not reply.get("ok") or reply.get("snapshot") is None:
            print(
                "serve top: the server has telemetry disabled "
                "(restart it with --telemetry)",
                file=sys.stderr,
            )
            return None
        return reply["snapshot"]

    async def _main() -> int:
        client = await PlacementClient.connect(args.host, args.port)
        try:
            if args.prometheus:
                snap = await _snapshot(client)
                if snap is None:
                    return 1
                print(render_service_prometheus(snap), end="")
                return 0
            prev = None
            frames = 0
            while True:
                stats = await client.stats()
                snap = await _snapshot(client)
                if snap is None:
                    return 1
                print(
                    _render_top(stats, snap, prev, interval=args.interval),
                    flush=True,
                )
                prev = snap
                frames += 1
                if args.iterations and frames >= args.iterations:
                    return 0
                await asyncio.sleep(args.interval)
        finally:
            await client.aclose()

    try:
        return asyncio.run(_main())
    except KeyboardInterrupt:
        return 0
    except (ConnectionError, OSError) as exc:
        print(f"serve top: {exc}", file=sys.stderr)
        return 1


def _loadgen(args, parser) -> int:
    import asyncio
    import json as _json

    from .serve.loadgen import WORKLOADS, make_workload, run_loadgen

    if args.list_workloads:
        for name in sorted(WORKLOADS):
            print(name)
        return 0
    if args.workload not in WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; options: "
            + ", ".join(sorted(WORKLOADS)),
            file=sys.stderr,
        )
        return 1
    try:
        instance = make_workload(args.workload, args.items, args.seed)
    except ValueError as exc:  # too few items for the generator
        parser.error(f"argument -n/--items: {exc}")
    try:
        report = asyncio.run(
            run_loadgen(
                args.host,
                args.port,
                instance=instance,
                rate=args.rate,
                connections=args.connections,
                workload=args.workload,
                trace=args.trace,
            )
        )
    except (ConnectionError, OSError, ValueError) as exc:
        print(f"loadgen: {exc}", file=sys.stderr)
        return 1
    print(report.render())
    if args.json:
        with open(args.json, "w") as fh:
            _json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.json}")
    ledger_dir = _ledger_dir(args)
    if ledger_dir is not None:
        from .obs.ledger import LedgerSink

        sink = LedgerSink(
            kind="loadgen",
            algorithm=str(report.server_stats.get("algorithm", "?"))
            if report.server_stats
            else "?",
            generator=args.workload,
            config={
                "items": args.items,
                "rate": args.rate,
                "connections": args.connections,
                "trace": args.trace,
            },
            seed=args.seed,
            ledger_dir=ledger_dir,
        )
        sink.emit(report.ledger_snapshot())
        print(f"ledger: {sink.last_path}")
    return 0


def _chaos(args) -> int:
    import json as _json

    from .testkit import (
        FaultPlan,
        generate_plan,
        minimize,
        run_chaos,
        write_artifact,
    )

    overrides = {"disable_dedup": True} if args.dedup_off else {}
    if args.replay:
        try:
            with open(args.replay) as fh:
                obj = _json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"chaos: cannot read {args.replay}: {exc}",
                  file=sys.stderr)
            return 1
        # a failure artifact carries both plans; replay the minimal one
        if "minimized_plan" in obj:
            obj = obj["minimized_plan"]
        elif "plan" in obj:
            obj = obj["plan"]
        plans = [FaultPlan.from_dict(obj)]
        for key, value in overrides.items():
            setattr(plans[0], key, value)
    else:
        seeds = range(args.seed, args.seed + max(1, args.schedules))
        plans = [generate_plan(seed, **overrides) for seed in seeds]

    failed = 0
    results = []
    for plan in plans:
        report = run_chaos(plan)
        print(report.summary())
        results.append(report.to_dict())
        if report.ok:
            continue
        failed += 1
        if args.minimize:
            minimal, min_fails, trials = minimize(plan, log=print)
            path = write_artifact(
                plan,
                minimal,
                report.failures,
                ledger_dir=getattr(args, "ledger_dir", None),
                minimized_failures=min_fails,
                trials=trials,
            )
            print(f"minimized after {trials} trial(s) -> {path}")
    print(f"chaos: {len(plans) - failed}/{len(plans)} schedule(s) passed")
    if args.json:
        with open(args.json, "w") as fh:
            _json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"reports written to {args.json}")
    return 1 if failed else 0


def _obs(args) -> int:
    if args.obs_command == "summarize":
        from .obs import summarize_trace

        try:
            print(summarize_trace(args.trace, top=args.top))
        except (OSError, ValueError) as exc:
            print(f"obs summarize: {exc}", file=sys.stderr)
            return 1
        return 0
    if args.obs_command == "flame":
        from .obs.prof import (
            Profile,
            render_top,
            to_collapsed,
            write_speedscope,
        )

        try:
            profile = Profile.read(args.profile)
        except (OSError, ValueError) as exc:
            print(f"obs flame: {exc}", file=sys.stderr)
            return 1
        if profile.samples == 0:
            print(f"obs flame: {args.profile} holds no samples",
                  file=sys.stderr)
            return 1
        print(render_top(profile, top=args.top))
        if args.collapsed:
            with open(args.collapsed, "w") as fh:
                fh.write(to_collapsed(profile))
            print(f"collapsed stacks -> {args.collapsed}")
        if args.speedscope:
            write_speedscope(profile, args.speedscope, name=args.profile)
            print(f"speedscope profile -> {args.speedscope}")
        return 0
    if args.obs_command == "critical-path":
        import json as _json

        from .obs.prof import analyze_trace

        try:
            report = analyze_trace(args.trace)
        except (OSError, ValueError) as exc:
            print(f"obs critical-path: {exc}", file=sys.stderr)
            return 1
        print(report.render())
        if args.json:
            with open(args.json, "w") as fh:
                _json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"report written to {args.json}")
        return 0
    if args.obs_command == "diff":
        from .obs.ledger import (
            diff_records,
            parse_tolerances,
            read_record,
            render_drifts,
        )

        try:
            tol = parse_tolerances(args.tol or [])
            record_a = read_record(args.record_a)
            record_b = read_record(args.record_b)
        except (OSError, ValueError) as exc:
            print(f"obs diff: {exc}", file=sys.stderr)
            return 1
        drifts = diff_records(record_a, record_b, tol)
        for line in render_drifts(drifts):
            print(line)
        bad = [d for d in drifts if not d.ok]
        print(
            f"diff: {len(drifts)} metrics, "
            + ("all within tolerance" if not bad else f"{len(bad)} drifted")
        )
        return 0 if not bad else 1
    if args.obs_command == "regress":
        from .obs.ledger import (
            parse_tolerances,
            read_baseline,
            read_ledger,
            regress,
            resolve_ledger_dir,
        )

        ledger_dir = resolve_ledger_dir(args.ledger_dir)
        baseline_path = args.baseline or (ledger_dir / "baseline.json")
        try:
            tol = parse_tolerances(args.tol or [])
            current = read_ledger(ledger_dir)
            baseline = read_baseline(baseline_path)
        except (OSError, ValueError) as exc:
            print(f"obs regress: {exc}", file=sys.stderr)
            return 1
        report = regress(current, baseline, tol)
        print(report.render())
        return 0 if report.ok else 1
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
