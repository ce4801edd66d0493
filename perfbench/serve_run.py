"""The service workload: a ``repro-dbp serve`` subprocess under load.

One untraced run, for ``S`` seconds of measurement:

1. ``setup_s``: five spawns, each measured as the CPU seconds the server
   process used from spawn to answering its first ``ping`` (interpreter,
   imports, shards built, socket bound), in reference seconds (see
   ``refspeed.py``), median; the last server is the one measured.
2. Warm-up (closed loop, unmeasured) until the kernels' working set has
   built up.
3. Closed loop with ``SAT_WINDOW`` arrivals in flight for ``S`` seconds,
   in ``WINDOW_S``-second windows.  ``items_per_ref_s`` is the median
   over windows of the items answered per reference second of the
   server process's CPU time.  Wall-clock rates and latencies of the
   same code moved by a third from one set of runs to the next on a
   shared virtual machine; CPU time leaves out the time the host takes
   the core away, and the reference slices the speed changes of the
   core itself.
4. A final ``advance`` past the last departure, then ``stats``: every
   reply and every shard's totals are checked against ``simulate()``.

All load comes from this one process over one connection; the server
is its own process.  The two are pinned to different cores (when the
machine has two), so the driver never competes with the server; the
reference slices run on the server's core while it idles.
"""

from __future__ import annotations

import asyncio
import re
import subprocess
import sys
import time
from typing import List, Tuple

from common import (
    child_env,
    cpu_seconds,
    median,
    note,
    pin,
    stop_process,
    vm_hwm_mib,
)
from driver import Driver
from parity import reference
from refspeed import Slicer, scale
from workloads import SAT_WINDOW, WINDOW, Workload, columns

SETUP_SPAWNS = 5
#: seconds per saturation window (one ``items_per_ref_s`` sample)
WINDOW_S = 0.5
#: unmeasured arrivals before the first phase: one longest lifetime
#: (mu=1024 time units at 12 arrivals per unit), so the working set of
#: open bins has built up
WARM_ITEMS = 12_000


class Server:
    """A ``repro-dbp serve`` child process on an ephemeral port."""

    def __init__(self, w: Workload, workdir, extra: Tuple[str, ...] = ()):
        cmd = [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "-a", w.algorithm, "--shards", str(w.shards),
            "--batch-max", str(w.batch_max),
            "--batch-delay", repr(w.batch_delay), "--no-ledger", *extra,
        ]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            cwd=workdir, env=child_env(), text=True,
        )
        pin(self.proc.pid, 1)
        banner = self.proc.stdout.readline()
        match = re.search(r" on [\w.]+:(\d+) ", banner)
        if not match:
            stop_process(self.proc, graceful=False)
            raise RuntimeError(f"server did not start: {banner!r}")
        self.port = int(match.group(1))

    async def ready(self) -> float:
        """CPU seconds the server used from spawn to its first ``ping``
        reply."""
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        writer.write(b'{"op":"ping"}\n')
        reply = await reader.readline()
        setup = self.cpu_s()
        writer.close()
        await writer.wait_closed()
        if b'"ok":true' not in reply:
            raise RuntimeError(f"bad ping reply {reply!r}")
        return setup

    def cpu_s(self) -> float:
        return cpu_seconds(self.proc.pid)

    def rss_mib(self) -> float:
        return vm_hwm_mib(self.proc.pid)

    def stop(self) -> None:
        stop_process(self.proc)


async def spawn_measured(w: Workload, workdir, slicer: Slicer,
                         extra=()) -> Tuple[Server, List[float]]:
    """Spawn ``SETUP_SPAWNS`` servers; keep the last one running.
    Returns each one's set-up in reference seconds."""
    setups = []
    for k in range(SETUP_SPAWNS):
        before = slicer.rate()
        server = Server(w, workdir, extra)
        try:
            cpu_s = await server.ready()
            setups.append(cpu_s * scale([before, slicer.rate()]))
        except BaseException:
            server.stop()
            raise
        if k < SETUP_SPAWNS - 1:
            server.stop()
    return server, setups


def tenants_for(w: Workload) -> List[str]:
    from repro.serve.loadgen import shard_affine_tenants

    return shard_affine_tenants(w.shards, w.shards)


async def settle(driver: Driver, stream) -> dict:
    """Advance every shard past the last departure; return ``stats``."""
    horizon = max(stream[1][: driver.sent])
    reply = await driver.request({"op": "advance", "time": horizon})
    if not reply.get("ok"):
        raise RuntimeError(f"final advance refused: {reply}")
    return await driver.request({"op": "stats"})


def check(w: Workload, driver: Driver, stats: dict, stream,
          perturb: bool = False) -> List[str]:
    """Every reply and every shard's totals vs per-shard ``simulate()``."""
    n, k = driver.sent, w.shards
    if perturb:  # the self-check's known-bad decision: the first
        # accepted item from the middle of the run on
        i = next(i for i in range(n // 2, n) if driver.bins[i] is not None)
        driver.bins[i] += 1
    problems = []
    for shard in range(k):
        # refused requests never reached the kernel: the shard's stream
        # is what it accepted, in order
        idx = [i for i in range(shard, n, k) if driver.bins[i] is not None]
        ref = reference(w.algorithm, *[[col[i] for i in idx]
                                       for col in stream])
        problems += [f"shard {shard}: {p}" for p in ref.check_decisions(
            [driver.bins[i] for i in idx], [driver.opened[i] for i in idx])]
        s = stats["per_shard"][shard]
        problems += [f"shard {shard}: {p}" for p in ref.check_totals(
            s["cost"], s["bins_opened"], s["max_open"])]
    return problems


async def saturate(driver: Driver, server: Server, slicer: Slicer,
                   seconds: float) -> List[float]:
    """Closed loop for ``seconds``: items per server reference second,
    one sample per ``WINDOW_S`` window, each window bracketed by
    reference slices (run while the server idles between windows)."""
    rates = []
    before = slicer.rate()
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end and driver.remaining:
        cpu0 = server.cpu_s()
        phase = await driver.closed_loop(seconds=WINDOW_S,
                                          window=SAT_WINDOW)
        cpu_s = server.cpu_s() - cpu0
        after = slicer.rate()
        rates.append((phase.n - phase.errors)
                     / (cpu_s * scale([before, after])))
        before = after
    return rates


async def run(w: Workload, instance, seconds: float, workdir,
              *, extra=(), perturb=False):
    """One untraced run: ``(problems, attempted, failed, metrics)``."""
    stream = columns(instance)
    pin(0, 0)
    slicer = Slicer(1)  # the server's core
    try:
        server, setups = await spawn_measured(w, workdir, slicer, extra)
    except BaseException:
        slicer.stop()
        raise
    try:
        driver = await Driver.connect(
            server.port, arrivals=stream[0], departures=stream[1],
            sizes=stream[2], tenants=tenants_for(w),
            advance_every=w.advance_every)
        await driver.closed_loop(items=WARM_ITEMS, window=WINDOW)
        measured_from = driver.sent
        rates = await saturate(driver, server, slicer, seconds)
        stats = await settle(driver, stream)
        rss = server.rss_mib()
        await driver.close()
    finally:
        server.stop()
        slicer.stop()
    problems = check(w, driver, stats, stream, perturb)
    if set(driver.error_codes) - {"overloaded"}:
        problems.append(f"error replies {driver.error_codes}")
    # an ``overloaded`` refusal is the server's intended backpressure, so
    # it fails the request, not the run, and counts against ``ok_share``
    measured = driver.sent - measured_from
    refused = sum(1 for b in driver.bins[measured_from:driver.sent]
                  if b is None)
    attempted = driver.sent
    failed = attempted if problems else refused
    note(f"{w.name}: {attempted} items, {len(rates)} windows, "
         f"errors {driver.error_codes}, {len(driver.advance_us)} advances, "
         f"max_open summed over shards {stats['totals']['max_open']}")
    metrics = {
        "items_per_ref_s": (median(rates), "1/s"),
        "ok_share": (0.0 if problems else 1.0 - refused / measured,
                     "ratio"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mib": (rss, "MiB"),
    }
    return problems, attempted, failed, metrics
