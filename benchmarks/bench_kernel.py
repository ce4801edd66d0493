"""KERNEL — columnar data plane vs boxed items, indexed vs linear scan.

Not a paper artifact.  This benchmark backs two kernel contracts:

* the **columnar data plane** (struct-of-arrays :class:`ItemStore`
  threaded through loaders → ``simulate()`` → the streaming engine) must
  beat the boxed per-:class:`Item` path it replaced by ≥1.25× on
  ``simulate()`` throughput at 1e5 items, and hold a 1e6-item instance
  in ≥30% less peak RSS than a list of boxed items;
* the residual-sorted **open-bin index** (O(log n) candidate queries
  instead of scanning every open bin per placement) must stay ≥1.2×
  over the linear scan — the index survived the columnar refactor.

The ``boxed`` cell reproduces the pre-columnar pipeline faithfully:
parse each JSONL line into a validated :class:`Item`, sort, rebuild
items with sequential uids (the old ``Instance`` did exactly this), and
release them one by one.  The ``columnar`` cell is the shipping path:
``load_jsonl`` fills columns and ``simulate()`` drains the store; the
``replay`` cell streams the same file through the engine in bounded
column chunks.  All cells must agree on cost bit-for-bit — the data
plane changes representation, never decisions.

Each cell runs in a fresh subprocess so timings (and the RSS peaks) are
not contaminated by earlier cells' heap state.

Run directly (``python benchmarks/bench_kernel.py``) or via pytest; both
write ``benchmarks/output/KERNEL.txt`` and ``BENCH_KERNEL.json``.
"""

from __future__ import annotations

import json
import math
import pathlib
import subprocess
import sys
import tempfile

SIZES = (10_000, 100_000)
RSS_ITEMS = 1_000_000
#: ``--smoke``: the reduced scale CI runs per push (the full suite is a
#: multi-minute job); gates move to ``scripts/bench_report.py`` at a
#: noise-tolerant floor instead of the in-process acceptance bars
SMOKE_SIZES = (20_000,)
SMOKE_RSS_ITEMS = 200_000
RATE = 40.0  # arrivals per unit time -> ~100+ concurrent items
MU = 16.0

#: acceptance bars (also asserted in render())
SPEEDUP_TARGET = 1.25   # columnar vs boxed simulate() at SIZES[-1]
INDEX_TARGET = 1.2      # indexed vs linear simulate() at SIZES[-1]
RSS_TARGET = 0.30       # peak-RSS reduction for a 1e6-item instance


def generate_trace(path: pathlib.Path, n_items: int, seed: int = 0) -> None:
    """Stream a uniform-size Poisson-arrival trace to JSONL."""
    import random

    rng = random.Random(seed)
    t = 0.0
    log_mu = math.log(MU)
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(n_items):
            t += rng.expovariate(RATE)
            length = math.exp(rng.uniform(0.0, log_mu))
            obj = {
                "arrival": t,
                "departure": t + length,
                "size": rng.uniform(0.02, 1.0),
            }
            fh.write(json.dumps(obj) + "\n")


def _load_boxed(trace: str):
    """The pre-columnar loader, reproduced step for step: decode each
    line's fields, build one validated Item per line, sort, rebuild
    every item with a sequential uid (the old ``Instance`` constructor
    did exactly this), then run the old instance validation scan."""
    from repro.core.item import Item

    items = []
    with open(trace, "r", encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            arrival = float(obj["arrival"])
            departure = obj.get("departure")
            if departure is not None:
                departure = float(departure)
            size = float(obj["size"])
            items.append(Item(arrival, departure, size))
    items.sort(key=lambda it: it.arrival)
    items = [
        Item(it.arrival, it.departure, it.size, uid=i)
        for i, it in enumerate(items)
    ]
    # the old Instance._validate pass: known departures, sorted
    # arrivals, unique uids
    last = float("-inf")
    seen = set()
    for it in items:
        assert it.departure is not None
        assert it.arrival >= last
        last = it.arrival
        assert it.uid not in seen
        seen.add(it.uid)
    return items


def _child(mode: str, trace: str) -> None:
    """Measured body: one cell, one fresh interpreter."""
    import time

    from repro.algorithms import BestFit

    start = time.perf_counter()
    if mode == "boxed":  # pre-columnar path: boxed parse + per-item release
        from repro.core.kernel import PlacementKernel

        items = _load_boxed(trace)
        kernel = PlacementKernel(BestFit(), record=True, indexed=True)
        release = kernel.release
        for item in items:
            release(item)
        kernel.drain()
        result = kernel.result()
        items_n, cost = len(result.items), result.cost
    elif mode in ("columnar", "linear"):  # shipping path
        from repro.core.simulation import simulate
        from repro.workloads import load_jsonl

        result = simulate(
            BestFit(), load_jsonl(trace), indexed=mode == "columnar"
        )
        items_n, cost = len(result.items), result.cost
    elif mode == "replay":  # streaming engine over bounded column chunks
        from repro.engine import Engine, open_trace

        summary = Engine(BestFit(), indexed=True).run(
            open_trace(trace)
        )
        items_n, cost = summary.items, summary.cost
    else:  # pragma: no cover - driver bug
        raise SystemExit(f"unknown mode {mode!r}")
    elapsed = time.perf_counter() - start
    print(json.dumps({"items": items_n, "cost": cost, "seconds": elapsed}))


def _rss_child(mode: str, n_items: str) -> None:
    """Measured body: peak RSS holding an n-item instance, fresh child."""
    import random
    import resource

    n = int(n_items)
    rng = random.Random(7)
    log_mu = math.log(MU)

    def rows():
        t = 0.0
        for _ in range(n):
            t += rng.expovariate(RATE)
            yield t, t + math.exp(rng.uniform(0.0, log_mu)), rng.uniform(
                0.02, 1.0
            )

    if mode == "rss-boxed":  # what the old Instance retained
        from repro.core.item import Item

        held = [
            Item(a, d, s, uid=i) for i, (a, d, s) in enumerate(rows())
        ]
    elif mode == "rss-columnar":  # the struct-of-arrays representation
        from repro.core.instance import Instance

        held = Instance.from_tuples(rows())
    else:  # pragma: no cover - driver bug
        raise SystemExit(f"unknown mode {mode!r}")
    assert len(held) == n
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"items": n, "maxrss_kb": maxrss_kb}))


#: fresh-interpreter repetitions per timed cell; best-of wins (the min is
#: the least noise-contaminated estimate of the true cost)
REPS = 2


def _run_child(*argv: str) -> dict:
    src_root = pathlib.Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, __file__, "--child", *argv],
        check=True,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src_root)},
    )
    return json.loads(out.stdout)


def run_suite(sizes=SIZES, rss_items: int = RSS_ITEMS, gate: bool = True):
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in sizes:
            trace = pathlib.Path(tmp) / f"trace_{n}.jsonl"
            generate_trace(trace, n)
            cell = {"n": n}
            # interleave repetitions across modes so best-of picks runs
            # from comparable machine conditions (load drifts over time)
            modes = ("boxed", "columnar", "linear", "replay")
            for rep in range(REPS):
                for mode in modes:
                    r = _run_child(mode, str(trace))
                    best = cell.get(mode)
                    if best is not None:
                        assert r["cost"] == best["cost"]
                        r = min(best, r, key=lambda c: c["seconds"])
                    cell[mode] = r
            for mode in modes:
                assert cell[mode]["items"] == n
                # representation must never change decisions
                assert cell[mode]["cost"] == cell["boxed"]["cost"]
            rows.append(cell)
            trace.unlink()
    rss = {
        "boxed": _run_child("rss-boxed", str(rss_items)),
        "columnar": _run_child("rss-columnar", str(rss_items)),
        "items": rss_items,
    }
    return render(rows, rss, gate=gate), bench_metrics(rows, rss)


def bench_metrics(rows, rss) -> dict:
    """Deterministic outcomes (+ timings, ungated) for BENCH_KERNEL.json.

    ``speedup`` / ``index_speedup`` / ``rss_reduction`` are the gated
    headline numbers; ``scripts/bench_report.py`` (and the CI perf-smoke
    step) read them from here via BENCH_SUMMARY.json.
    """
    metrics: dict = {"costs": {}, "timings": {}}
    for cell in rows:
        n = cell["n"]
        metrics["costs"][str(n)] = cell["columnar"]["cost"]
        metrics["timings"][str(n)] = {
            mode: cell[mode]["seconds"]
            for mode in ("boxed", "columnar", "linear", "replay")
        }
    last = rows[-1]
    metrics["speedup"] = (
        last["boxed"]["seconds"] / last["columnar"]["seconds"]
    )
    metrics["index_speedup"] = (
        last["linear"]["seconds"] / last["columnar"]["seconds"]
    )
    metrics["rss"] = {
        "items": rss["items"],
        "boxed_kb": rss["boxed"]["maxrss_kb"],
        "columnar_kb": rss["columnar"]["maxrss_kb"],
    }
    metrics["rss_reduction"] = 1.0 - (
        rss["columnar"]["maxrss_kb"] / rss["boxed"]["maxrss_kb"]
    )
    return metrics


def render(rows, rss, gate: bool = True) -> str:
    lines = [
        "KERNEL — columnar data plane vs boxed items (BestFit, uniform "
        f"sizes, Poisson rate={RATE:g}, mu={MU:g})",
        "",
        f"{'items':>10} | {'boxed it/s':>11} {'columnar it/s':>13} "
        f"{'speedup':>8} | {'linear it/s':>11} {'idx speedup':>11} | "
        f"{'replay it/s':>11}",
        "-" * 92,
    ]
    for cell in rows:
        n = cell["n"]
        bx = n / cell["boxed"]["seconds"]
        co = n / cell["columnar"]["seconds"]
        li = n / cell["linear"]["seconds"]
        re = n / cell["replay"]["seconds"]
        lines.append(
            f"{n:>10,} | {bx:>11,.0f} {co:>13,.0f} {co / bx:>7.2f}x | "
            f"{li:>11,.0f} {co / li:>10.2f}x | {re:>11,.0f}"
        )
    last = rows[-1]
    speedup = last["boxed"]["seconds"] / last["columnar"]["seconds"]
    index_speedup = last["linear"]["seconds"] / last["columnar"]["seconds"]
    boxed_kb = rss["boxed"]["maxrss_kb"]
    col_kb = rss["columnar"]["maxrss_kb"]
    reduction = 1.0 - col_kb / boxed_kb
    lines += [
        "",
        f"simulate() throughput at {last['n']:,} items: {speedup:.2f}x "
        f"columnar over boxed (target >= {SPEEDUP_TARGET:g}x); the "
        f"open-bin index adds {index_speedup:.2f}x over a linear scan "
        f"(target >= {INDEX_TARGET:g}x).",
        f"peak RSS holding {rss['items']:,} items: boxed "
        f"{boxed_kb / 1024:,.0f} MiB vs columnar {col_kb / 1024:,.0f} MiB "
        f"({reduction:.0%} reduction, target >= {RSS_TARGET:.0%}).",
        "boxed, columnar, linear and replay cells agree on cost "
        "bit-for-bit at every size.",
        "",
    ]
    text = "\n".join(lines)
    # the refactor's acceptance bars (skipped at --smoke scale, where
    # scripts/bench_report.py gates the summary instead)
    if gate:
        assert speedup >= SPEEDUP_TARGET, text
        assert index_speedup >= INDEX_TARGET, text
        assert reduction >= RSS_TARGET, text
    return text


def test_bench_kernel(benchmark, output_dir):
    from conftest import bench_json

    text, metrics = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    (output_dir / "KERNEL.txt").write_text(text)
    bench_json(output_dir, "KERNEL", metrics, algorithm="BestFit",
               generator="poisson-jsonl", config={"sizes": list(SIZES)})


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        if sys.argv[2].startswith("rss-"):
            _rss_child(sys.argv[2], sys.argv[3])
        else:
            _child(sys.argv[2], sys.argv[3])
    else:
        from conftest import bench_json

        args = sys.argv[1:]
        smoke = "--smoke" in args
        if smoke:
            args.remove("--smoke")
        sizes = tuple(int(a) for a in args) or (
            SMOKE_SIZES if smoke else SIZES
        )
        rss_items = SMOKE_RSS_ITEMS if smoke else RSS_ITEMS
        output, metrics = run_suite(sizes, rss_items, gate=not smoke)
        out_dir = pathlib.Path(__file__).parent / "output"
        out_dir.mkdir(exist_ok=True)
        (out_dir / "KERNEL.txt").write_text(output)
        bench_json(out_dir, "KERNEL", metrics, algorithm="BestFit",
                   generator="poisson-jsonl", config={"sizes": list(sizes)})
        print(output)
