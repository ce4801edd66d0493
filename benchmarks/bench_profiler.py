"""PROFILER — overhead of the statistical stack sampler on the hot path.

Not a paper artifact.  This benchmark freezes the continuous-profiling
contract: running the streaming replay of a 1e5-item Poisson trace with
the :class:`repro.obs.prof.StackSampler` attached at its default 97 Hz
must stay within **5%** of the sampler-off throughput
(``profiler_on_ratio >= 0.95``).  The sampler only reads frames from a
background thread — the replay loop itself is untouched — so anything
worse than a few percent means the sampler has started contending for
the GIL or allocating on the hot path.

Variants (replay frontend only — the sampler is frontend-agnostic):

- ``off`` — plain replay, no sampler (the baseline);
- ``on``  — replay with ``StackSampler(97.0)`` running start-to-stop.

Each cell runs best-of-ROUNDS in fresh subprocesses so timings are not
contaminated by earlier cells' heap state; the off/on rounds are
*interleaved* so a transient load spike on the host taxes both variants
instead of poisoning one side of the ratio.  The ``on`` cell also
sanity-checks the profile itself: samples were actually taken, and the
replay cost is bit-identical to the ``off`` run (observation must never
change behaviour).

Run directly (``python benchmarks/bench_profiler.py [--smoke]``) or via
pytest; both write ``BENCH_PROFILER.json``.  ``--smoke`` is the
reduced-scale CI cell; the CI gate is ``scripts/bench_report.py
--min-profiler-ratio`` on the aggregated ``profiler_on_ratio``.
"""

from __future__ import annotations

import json
import math
import pathlib
import subprocess
import sys
import tempfile

N_ITEMS = 100_000
SMOKE_N_ITEMS = 50_000
RATE = 40.0
MU = 16.0
SAMPLE_HZ = 97.0
ROUNDS = 7  # best-of, per cell, interleaved off/on
MIN_ON_RATIO = 0.95  # the <5% acceptance bar

VARIANTS = ("off", "on")


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


def _child(variant: str, trace: str) -> None:
    """Measured body: one replay run, sampler off or on."""
    import time

    from repro.algorithms import BestFit
    from repro.engine import Engine, open_trace

    sampler = None
    if variant == "on":
        from repro.obs.prof import StackSampler

        sampler = StackSampler(SAMPLE_HZ)
        sampler.start()

    start = time.perf_counter()
    engine = Engine(BestFit())
    summary = engine.run(open_trace(trace))
    elapsed = time.perf_counter() - start

    samples = None
    if sampler is not None:
        profile = sampler.stop()
        samples = profile.samples
    print(json.dumps({"items": summary.items, "cost": summary.cost,
                      "seconds": elapsed, "samples": samples}))


def _run_one(variant: str, trace: pathlib.Path) -> dict:
    """One fresh-subprocess timing of one cell."""
    src_root = pathlib.Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, __file__, "--child", variant, str(trace)],
        check=True,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src_root)},
    )
    return json.loads(out.stdout)


def run_suite(n_items: int = N_ITEMS, *, gate: bool = True):
    cells: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        trace = pathlib.Path(tmp) / f"trace_{n_items}.jsonl"
        generate_trace(trace, n_items)
        for _ in range(ROUNDS):  # interleaved best-of
            for variant in VARIANTS:
                r = _run_one(variant, trace)
                assert r["items"] == n_items
                best = cells.get(variant)
                if best is None or r["seconds"] < best["seconds"]:
                    cells[variant] = r
    # observation must never change behaviour
    assert cells["on"]["cost"] == cells["off"]["cost"]
    # and must actually observe: a run this size spans many sample ticks
    assert cells["on"]["samples"] > 0, cells["on"]
    return render(cells, n_items, gate=gate), bench_metrics(cells)


def bench_metrics(cells: dict) -> dict:
    """Deterministic outcomes (+ timings, ungated) for BENCH_PROFILER.json.

    ``profiler_on_ratio`` is the headline scalar bench_report hoists and
    CI gates: sampler-on throughput as a fraction of sampler-off.
    """
    return {
        "profiler_on_ratio": cells["off"]["seconds"] / cells["on"]["seconds"],
        "sample_hz": SAMPLE_HZ,
        "samples": cells["on"]["samples"],
        "cost": cells["off"]["cost"],
        "timings": {
            variant: {"seconds": cells[variant]["seconds"]}
            for variant in VARIANTS
        },
    }


def render(cells: dict, n_items: int, *, gate: bool = True) -> str:
    ratio = cells["off"]["seconds"] / cells["on"]["seconds"]
    lines = [
        f"PROFILER — stack-sampler overhead on the hot path (BestFit "
        f"replay, {n_items:,} items, {SAMPLE_HZ:g} Hz, best of {ROUNDS})",
        "",
        f"{'variant':>8} | {'items/s':>10} {'vs off':>8}",
        "-" * 32,
    ]
    base = cells["off"]["seconds"]
    for variant in VARIANTS:
        sec = cells[variant]["seconds"]
        lines.append(
            f"{variant:>8} | {n_items / sec:>10,.0f} {sec / base:>7.3f}x"
        )
    lines += [
        "",
        f"sampler-on throughput ratio: {ratio:.3f} "
        f"(bar: >= {MIN_ON_RATIO:.2f}; {cells['on']['samples']} samples "
        f"taken)",
        "the sampler reads frames from its own thread; the replay loop "
        "runs unmodified, so the only cost is brief GIL holds at each "
        "sample tick.",
        "sampler-on agrees with sampler-off on cost bit-for-bit.",
        "",
    ]
    text = "\n".join(lines)
    # full scale enforces the contract here too; the CI gate is
    # bench_report's --min-profiler-ratio on the frozen JSON
    if gate:
        assert ratio >= MIN_ON_RATIO, text
    return text


def test_bench_profiler(benchmark, output_dir):
    from conftest import bench_json

    text, metrics = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    (output_dir / "PROFILER.txt").write_text(text)
    bench_json(output_dir, "PROFILER", metrics, algorithm="BestFit",
               generator="poisson-jsonl",
               config={"n_items": N_ITEMS, "sample_hz": SAMPLE_HZ})


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        _child(sys.argv[2], sys.argv[3])
    else:
        from conftest import bench_json

        smoke = "--smoke" in sys.argv[1:]
        n = SMOKE_N_ITEMS if smoke else N_ITEMS
        # smoke scale skips the full-scale assert; the CI gate is
        # bench_report's floor on the frozen profiler_on_ratio
        output, metrics = run_suite(n, gate=not smoke)
        out_dir = pathlib.Path(__file__).parent / "output"
        out_dir.mkdir(exist_ok=True)
        if not smoke:
            (out_dir / "PROFILER.txt").write_text(output)
        bench_json(out_dir, "PROFILER", metrics, algorithm="BestFit",
                   generator="poisson-jsonl",
                   config={"n_items": n, "sample_hz": SAMPLE_HZ,
                           "smoke": smoke})
        print(output)
