"""The ``replay-bestfit`` workload: offline replay in fresh subprocesses.

One untraced run, for ``S`` seconds of measurement: fresh
``replay_child.py`` processes, one after another for ``S`` seconds (at
least ``MIN_REPS``), each streaming the whole 100k-item JSONL trace
through ``iter_jsonl_stores`` -> ``Engine.run``.  ``items_per_ref_s``,
``setup_s`` and ``peak_rss_mib`` are medians over these processes.

Each child's summary (items, cost, bins opened, max open) must equal
batch ``simulate()`` on the same trace.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

from common import BENCH_DIR, child_env, median, note, pin, stop_process
from parity import algorithm
from workloads import Workload, write_jsonl

MIN_REPS = 5
MAX_REPS = 40


def _child(request: dict, workdir) -> dict:
    path = workdir / "request.json"
    path.write_text(json.dumps(request))
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "replay_child.py"), str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=workdir, env=child_env(),
    )
    pin(proc.pid, 1)
    try:
        out, err = proc.communicate(timeout=150)
    finally:
        stop_process(proc, graceful=False)
    if proc.returncode != 0:
        raise RuntimeError(f"replay child failed: {err[-2000:]}")
    return json.loads(out.splitlines()[-1])


def run(w: Workload, instance, seconds: float, workdir, *, indexed=True,
        perturb=False):
    from repro.core.simulation import simulate

    trace = write_jsonl(instance, workdir / "trace.jsonl")
    batch = simulate(algorithm(w.algorithm), instance)
    expected = [len(instance), batch.cost, len(batch.bins), batch.max_open]
    request = {"path": str(trace), "algorithm": w.algorithm,
               "items": len(instance), "indexed": indexed,
               "perturb": perturb}
    reps = []
    t_end = time.perf_counter() + seconds
    while len(reps) < MAX_REPS and (
            len(reps) < MIN_REPS or time.perf_counter() < t_end):
        reps.append(_child(request, workdir))
    problems = [f"replay summary {r['summary']} vs batch {expected}"
                for r in reps if r["summary"] != expected]
    attempted = len(reps) * len(instance)
    failed = attempted if problems else 0
    note(f"{w.name}: {len(reps)} replays, bins_opened={len(batch.bins)} "
         f"max_open={batch.max_open}")
    metrics = {
        "items_per_ref_s": (
            median([r["items_per_ref_s"] for r in reps]), "1/s"),
        "ok_share": (1.0 - failed / attempted, "ratio"),
        "setup_s": (median([r["setup_s"] for r in reps]), "s"),
        "peak_rss_mib": (median([r["peak_rss_mib"] for r in reps]), "MiB"),
    }
    return problems, attempted, failed, metrics
