"""ENGINE — streaming engine vs batch simulator: throughput and memory.

Not a paper artifact.  This benchmark backs the `repro.engine` contract:
the streaming replay path must match the batch simulator's throughput
order of magnitude while holding peak RSS *constant* in the trace length
(the batch path, which materialises the whole instance, grows linearly).

Each (mode, size) cell runs in a fresh subprocess so `ru_maxrss` is an
honest per-configuration high-water mark, not contaminated by earlier
cells.  Traces are Poisson-arrival JSONL files generated streamingly, so
the generator itself never holds the instance in memory either.

Run directly (``python benchmarks/bench_engine.py``) or via pytest; both
write ``benchmarks/output/ENGINE.txt``.
"""

from __future__ import annotations

import json
import math
import pathlib
import subprocess
import sys
import tempfile

SIZES = (10_000, 100_000, 1_000_000)
RATE = 10.0  # arrivals per unit time -> bounded expected concurrency
MU = 16.0


def generate_trace(path: pathlib.Path, n_items: int, seed: int = 0) -> None:
    """Stream a Poisson-arrival trace to JSONL without materialising it."""
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


def _child(mode: str, trace: str) -> None:
    """Measured body: run one replay, print a JSON record, exit."""
    import resource
    import time

    from repro.algorithms import FirstFit

    start = time.perf_counter()
    if mode == "engine":
        from repro.engine import Engine, open_trace

        summary = Engine(FirstFit()).run(open_trace(trace))
        items, cost = summary.items, summary.cost
    elif mode == "batch":
        from repro.core.simulation import simulate
        from repro.workloads import load_jsonl

        result = simulate(FirstFit(), load_jsonl(trace))
        items, cost = len(result.items), result.cost
    else:  # pragma: no cover - driver bug
        raise SystemExit(f"unknown mode {mode!r}")
    elapsed = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        json.dumps(
            {
                "items": items,
                "cost": cost,
                "seconds": elapsed,
                "peak_rss_mb": peak_kb / 1024.0,
            }
        )
    )


def _run_cell(mode: str, trace: pathlib.Path) -> dict:
    src_root = pathlib.Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, __file__, "--child", mode, str(trace)],
        check=True,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src_root)},
    )
    return json.loads(out.stdout)


def run_suite(sizes=SIZES) -> str:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in sizes:
            trace = pathlib.Path(tmp) / f"trace_{n}.jsonl"
            generate_trace(trace, n)
            cell = {"n": n}
            for mode in ("batch", "engine"):
                r = _run_cell(mode, trace)
                cell[mode] = r
                assert r["items"] == n
            # parity travels with the benchmark for free
            assert cell["engine"]["cost"] == cell["batch"]["cost"]
            rows.append(cell)
            trace.unlink()
    return render(rows), bench_metrics(rows)


def bench_metrics(rows) -> dict:
    """Deterministic outcomes (+ timings, ungated) for BENCH_ENGINE.json."""
    metrics: dict = {"costs": {}, "timings": {}}
    for cell in rows:
        n = cell["n"]
        metrics["costs"][str(n)] = cell["engine"]["cost"]
        metrics["timings"][str(n)] = {
            mode: {
                "seconds": cell[mode]["seconds"],
                "peak_rss_mb": cell[mode]["peak_rss_mb"],
            }
            for mode in ("batch", "engine")
        }
    return metrics


def render(rows) -> str:
    lines = [
        "ENGINE — streaming engine vs batch simulator (FirstFit, Poisson "
        f"trace, rate={RATE:g}, mu={MU:g})",
        "",
        f"{'items':>10} | {'batch ev/s':>11} {'batch MB':>9} | "
        f"{'engine ev/s':>11} {'engine MB':>9} | cost parity",
        "-" * 78,
    ]
    for cell in rows:
        n = cell["n"]
        b, e = cell["batch"], cell["engine"]
        lines.append(
            f"{n:>10,} | {2 * n / b['seconds']:>11,.0f} "
            f"{b['peak_rss_mb']:>9.1f} | {2 * n / e['seconds']:>11,.0f} "
            f"{e['peak_rss_mb']:>9.1f} | exact"
        )
    first, last = rows[0], rows[-1]
    growth = last["engine"]["peak_rss_mb"] / first["engine"]["peak_rss_mb"]
    batch_growth = last["batch"]["peak_rss_mb"] / first["batch"]["peak_rss_mb"]
    lines += [
        "",
        f"trace length grew {last['n'] // first['n']}x; engine peak RSS "
        f"grew {growth:.2f}x (constant memory), batch grew "
        f"{batch_growth:.2f}x.",
        "engine cost == batch cost bit-for-bit at every size.",
        "",
    ]
    text = "\n".join(lines)
    # the contract: engine memory is independent of trace length
    assert growth < 1.5, text
    return text


def test_bench_engine(benchmark, output_dir):
    from conftest import bench_json

    text, metrics = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    (output_dir / "ENGINE.txt").write_text(text)
    bench_json(output_dir, "ENGINE", metrics, algorithm="FirstFit",
               generator="poisson-jsonl", config={"sizes": list(SIZES)})


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        _child(sys.argv[2], sys.argv[3])
    else:
        from conftest import bench_json

        sizes = tuple(int(a) for a in sys.argv[1:]) or SIZES
        output, metrics = run_suite(sizes)
        out_dir = pathlib.Path(__file__).parent / "output"
        out_dir.mkdir(exist_ok=True)
        (out_dir / "ENGINE.txt").write_text(output)
        bench_json(out_dir, "ENGINE", metrics, algorithm="FirstFit",
                   generator="poisson-jsonl", config={"sizes": list(sizes)})
        print(output)
