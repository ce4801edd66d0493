"""OBS — overhead of the observability layer on the hot placement path.

Not a paper artifact.  This benchmark backs the obs-layer contract: with
observability *disabled* (no tracer, or a tracer constructed disabled —
the engine then skips attaching the TracingListener entirely), both
``simulate()`` and the streaming ``replay`` must run within **5%** of
the plain un-instrumented baseline.  Enabled tracing and the
packing-metrics registry are measured too, for the record — they
are allowed to cost more (every kernel event becomes a Python call),
and the numbers here are what docs/observability.md quotes.

Variants per frontend:

- ``plain``   — no observability at all (the baseline);
- ``off``     — ``Tracer(enabled=False)`` handed to the frontend: the
  construct-time switch must make this indistinguishable from plain;
- ``trace``   — enabled tracer, default ring capacity;
- ``metrics`` — the packing-metrics registry
  :class:`repro.engine.metrics.EngineMetrics` (``simulate(listener=...)``
  and ``Engine(metrics=...)``);
- ``inv``     — the :class:`repro.obs.invariants.InvariantMonitor`
  re-deriving the theory bounds online.

Each (frontend, variant) cell runs best-of-3 in fresh subprocesses so
timings are not contaminated by earlier cells' heap state.

Run directly (``python benchmarks/bench_obs.py``) or via pytest; both
write ``benchmarks/output/OBS.txt``.
"""

from __future__ import annotations

import json
import math
import pathlib
import subprocess
import sys
import tempfile

N_ITEMS = 100_000
RATE = 40.0
MU = 16.0
ROUNDS = 3  # best-of, per cell
MAX_OFF_OVERHEAD = 1.05  # the <5% acceptance bar

VARIANTS = ("plain", "off", "trace", "metrics", "inv")


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


def _child(frontend: str, variant: str, trace: str) -> None:
    """Measured body: one run of one frontend/variant cell."""
    import time

    from repro.algorithms import BestFit
    from repro.engine.metrics import EngineMetrics
    from repro.obs import Tracer

    tracer = None
    listener = None
    metrics = None
    if variant == "off":
        tracer = Tracer(enabled=False)
    elif variant == "trace":
        tracer = Tracer()
    elif variant == "metrics":
        metrics = EngineMetrics()
    elif variant == "inv":
        from repro.obs.invariants import InvariantMonitor

        listener = InvariantMonitor(algorithm="BestFit")

    start = time.perf_counter()
    if frontend == "simulate":
        from repro.core.simulation import simulate
        from repro.workloads import load_jsonl

        # simulate() has no tracer arg; adapt through the listener slot
        if tracer is not None and tracer.enabled:
            from repro.obs import TracingListener

            listener = TracingListener(tracer)
        result = simulate(
            BestFit(), load_jsonl(trace), listener=listener or metrics
        )
        items, cost = len(result.items), result.cost
    elif frontend == "replay":
        from repro.engine import Engine, open_trace

        engine = Engine(
            BestFit(),
            tracer=tracer,
            metrics=metrics,
            listeners=(listener,) if listener is not None else (),
        )
        summary = engine.run(open_trace(trace))
        items, cost = summary.items, summary.cost
    else:  # pragma: no cover - driver bug
        raise SystemExit(f"unknown frontend {frontend!r}")
    elapsed = time.perf_counter() - start
    violations = None
    if variant == "inv":
        listener.finalize()
        violations = len(listener.violations)
        assert listener.ok, listener.violations
    print(json.dumps({"items": items, "cost": cost, "seconds": elapsed,
                      "violations": violations}))


def _run_cell(frontend: str, variant: str, trace: pathlib.Path) -> dict:
    """Best-of-ROUNDS fresh-subprocess timing for one cell."""
    src_root = pathlib.Path(__file__).resolve().parent.parent / "src"
    best = None
    for _ in range(ROUNDS):
        out = subprocess.run(
            [sys.executable, __file__, "--child", frontend, variant,
             str(trace)],
            check=True,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src_root)},
        )
        r = json.loads(out.stdout)
        if best is None or r["seconds"] < best["seconds"]:
            best = r
    return best


def run_suite(n_items: int = N_ITEMS) -> str:
    cells: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        trace = pathlib.Path(tmp) / f"trace_{n_items}.jsonl"
        generate_trace(trace, n_items)
        for frontend in ("simulate", "replay"):
            for variant in VARIANTS:
                r = _run_cell(frontend, variant, trace)
                assert r["items"] == n_items
                cells[(frontend, variant)] = r
            # observation must never change behaviour
            base_cost = cells[(frontend, "plain")]["cost"]
            for variant in VARIANTS[1:]:
                assert cells[(frontend, variant)]["cost"] == base_cost, (
                    frontend, variant,
                )
    return render(cells, n_items), bench_metrics(cells)


def bench_metrics(cells: dict) -> dict:
    """Deterministic outcomes (+ timings, ungated) for BENCH_OBS.json."""
    metrics: dict = {"costs": {}, "violations": {}, "timings": {}}
    for frontend in ("simulate", "replay"):
        metrics["costs"][frontend] = cells[(frontend, "plain")]["cost"]
        metrics["violations"][frontend] = cells[(frontend, "inv")][
            "violations"
        ]
        base = cells[(frontend, "plain")]["seconds"]
        metrics["timings"][frontend] = {
            variant: {
                "seconds": cells[(frontend, variant)]["seconds"],
                "vs_plain": cells[(frontend, variant)]["seconds"] / base,
            }
            for variant in VARIANTS
        }
    return metrics


def render(cells: dict, n_items: int) -> str:
    lines = [
        f"OBS — observability overhead on the hot path (BestFit, "
        f"{n_items:,} items, Poisson rate={RATE:g}, mu={MU:g}, "
        f"best of {ROUNDS})",
        "",
        f"{'frontend':>10} {'variant':>9} | {'items/s':>10} {'vs plain':>9}",
        "-" * 46,
    ]
    for frontend in ("simulate", "replay"):
        base = cells[(frontend, "plain")]["seconds"]
        for variant in VARIANTS:
            sec = cells[(frontend, variant)]["seconds"]
            lines.append(
                f"{frontend:>10} {variant:>9} | {n_items / sec:>10,.0f} "
                f"{sec / base:>8.3f}x"
            )
    off_sim = (
        cells[("simulate", "off")]["seconds"]
        / cells[("simulate", "plain")]["seconds"]
    )
    off_rep = (
        cells[("replay", "off")]["seconds"]
        / cells[("replay", "plain")]["seconds"]
    )
    lines += [
        "",
        f"tracing-off overhead: simulate {off_sim:.3f}x, replay "
        f"{off_rep:.3f}x (bar: <= {MAX_OFF_OVERHEAD:.2f}x).",
        "a disabled tracer is a construct-time no-op: the engine never "
        "attaches the TracingListener, so the kernel loop is untouched.",
        "every variant agrees with the plain run on cost bit-for-bit.",
        "",
    ]
    text = "\n".join(lines)
    # the obs layer's acceptance bar: <5% with observability disabled
    assert off_sim <= MAX_OFF_OVERHEAD, text
    assert off_rep <= MAX_OFF_OVERHEAD, text
    return text


def test_bench_obs(benchmark, output_dir):
    from conftest import bench_json

    text, metrics = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    (output_dir / "OBS.txt").write_text(text)
    bench_json(output_dir, "OBS", metrics, algorithm="BestFit",
               generator="poisson-jsonl", config={"n_items": N_ITEMS})


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        _child(sys.argv[2], sys.argv[3], sys.argv[4])
    else:
        from conftest import bench_json

        n = int(sys.argv[1]) if len(sys.argv) > 1 else N_ITEMS
        output, metrics = run_suite(n)
        out_dir = pathlib.Path(__file__).parent / "output"
        out_dir.mkdir(exist_ok=True)
        (out_dir / "OBS.txt").write_text(output)
        bench_json(out_dir, "OBS", metrics, algorithm="BestFit",
                   generator="poisson-jsonl", config={"n_items": n})
        print(output)
