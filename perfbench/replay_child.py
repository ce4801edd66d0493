"""The measured process of the ``replay-bestfit`` workload.

Run as ``python replay_child.py <request.json>``; prints one JSON line.

The child streams the JSONL trace through ``iter_jsonl_stores`` ->
``Engine.run`` once.  Both timings are in the process's own CPU time,
rescaled to reference seconds (see ``refspeed.py``) by reference slices
run right before and after the replay on the same core:

- ``setup_s``: from process start (interpreter, imports) to the engine
  being constructed;
- ``items_per_ref_s``: items over the whole stream, parsing included.

With ``perturb`` set, the placement of the middle item is replaced by a
fresh bin (the self-check's known-bad decision), which the parent's
parity check must catch.
"""

from __future__ import annotations

import json
import sys
import time

_cpu = time.process_time


def _algorithm(req):
    from repro.parallel import _registry

    algo = _registry()[req["algorithm"]]()
    if req["perturb"]:
        inner, calls = algo.place, [0]
        target = req["items"] // 2

        def place(item, sim):
            calls[0] += 1
            if calls[0] == target:
                return sim.open_bin(tag="perturbed")
            return inner(item, sim)

        algo.place = place
    return algo


def main() -> None:
    with open(sys.argv[1]) as fh:
        req = json.load(fh)
    from repro.engine.loop import Engine
    from repro.workloads.io import iter_jsonl_stores

    engine = Engine(_algorithm(req), indexed=req["indexed"])
    setup_s = _cpu()
    # benchmark helpers load after set-up is timed
    import refspeed
    from common import vm_hwm_mib

    before = refspeed.rate()
    c0 = _cpu()
    summary = engine.run(iter_jsonl_stores(req["path"]))
    cpu_s = _cpu() - c0
    scale = refspeed.scale([before, refspeed.rate()])
    print(json.dumps({
        "setup_s": setup_s * scale,
        "items_per_ref_s": summary.items / (cpu_s * scale),
        "peak_rss_mib": vm_hwm_mib(),
        "summary": [summary.items, summary.cost, summary.bins_opened,
                    summary.max_open],
    }))


if __name__ == "__main__":
    main()
