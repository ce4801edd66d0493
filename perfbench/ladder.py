"""The traced run: one item prefix replayed up the layer ladder.

Every cell starts from empty kernels and replays the same first
``TRACE_ITEMS`` items of the workload's stream (split over shards by
tenant, as the server routes them), calling one layer's public entry
point from here and timing the call (``replay-bestfit`` is served as
one BestFit shard, so every workload reports every per-layer metric):

==========  ==========================================================
io          ``iter_jsonl_stores`` over the prefix written as JSONL
kernel      ``PlacementKernel.release_store`` + ``drain`` per shard
place       the kernel cell with the algorithm's ``place`` wrapped in a
            timer (``algorithms.place``; the kernel's self time is the
            kernel cell minus this)
engine      ``Engine.feed_store`` + ``finish``, metrics off, then on
shard       ``parse_request`` -> ``PlacementShard.apply`` -> ``encode``
            per wire line, in one loop; the same three steps are also
            timed apart, ``SPLIT_CHUNK`` lines at a time
client      the driver against a SimNet echo listener (the client's own
            share of the in-process cell below)
simnet      ``PlacementServer`` over ``testkit.SimNet`` (faults off) on
            a real event loop, closed loop with the workload's window
tcp         the ``repro-dbp serve`` subprocess over loopback TCP, same
            closed loop, driver in this process
==========  ==========================================================

A layer's marginal cost is its cell minus the cell below it (the SimNet
cell net of the client's share, since there client and server share one
thread).  Since marginals are differences of the same cells, their sum
is the top cell by construction; what can fail is checked instead:

- ``ladder.nesting_violations``: cells whose time falls below the time
  of the cell they contain by more than ``NEST_BAND`` (a layer that is
  not nested in the one above it, or an overlap counted twice);
- ``ladder.split_additivity_error``: parse + apply + encode, timed
  apart, against the same three steps timed as one loop;
- ``ladder.replay_reconcile_error``: the loader cell plus an engine cell
  over the unsplit prefix against one ``Engine.run`` over the JSONL
  file, cells timed independently.

Each error above ``RECONCILE_TOLERANCE`` is named on stderr and
reported as measured.

``obs.trace_overhead_ratio`` is the TCP cell's throughput against a
fully traced server (``--telemetry``, every span kept) over the
untraced one; for ``replay-bestfit`` it is the in-process replay with
an ``obs`` tracer attached over the same replay without.

A server with RED telemetry but no span sampling then replays the same
prefix and is driven open loop at 30% of the TCP cell's saturation rate;
its ``telemetry`` admin verb gives the server's own per-phase
attribution, and the driver reports the open-loop latency it saw
(``driver.open_loop.*``, timed from each request's due time).  The kernel and parse phases of the
prefix pass are cross-checked against the ladder's apply and parse
cells, and their sum against the server's own share of the SimNet cell,
which must hold them (``xcheck.*``, disagreement reported, never
hidden).  Every cell's decisions or totals are checked against batch
``simulate()``.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List

from common import median, note, percentile, pin
from driver import Driver, advance_line, arrive_line
from parity import Reference, algorithm, reference
from serve_run import Server, check, settle, tenants_for
from workloads import TRACE_ITEMS, WINDOW, Workload, columns, write_jsonl

_now = time.perf_counter

#: repetitions of each in-process cell (median reported)
REPS = 3
#: wire lines per chunk of the shard cell's split loops
SPLIT_CHUNK = 4
#: a reconciliation error above this share is reported
RECONCILE_TOLERANCE = 0.15
#: an outer cell cheaper than its inner cell by more than this share
#: counts as a nesting violation
NEST_BAND = 0.10
#: telemetry/ladder ratio outside [1/x, x] is reported as disagreement
XCHECK_TOLERANCE = 1.5


class Ladder:
    """The prefix, its per-shard split, and the batch reference."""

    def __init__(self, w: Workload, instance, workdir,
                 perturb: bool = False) -> None:
        from repro.core.store import ItemStore

        self.w = w
        self.perturb = perturb
        self.attempted = 0  #: items replayed by all cells so far
        self.n = min(TRACE_ITEMS, len(instance))
        self.stream = columns(instance, self.n)
        self.workdir = workdir
        self.tenants = tenants_for(w)
        k = w.shards
        self.shard_streams = [[col[s::k] for col in self.stream]
                              for s in range(k)]
        self.stores = [ItemStore.from_tuples(zip(*cols))
                       for cols in self.shard_streams]
        for store in self.stores:
            store.assign_sequential_uids()
        self.refs: List[Reference] = [reference(w.algorithm, *cols)
                                      for cols in self.shard_streams]
        # the unsplit prefix, as the replay cell's single engine sees it
        if k == 1:
            self.whole = (self.stores[0], self.refs[0])
        else:
            whole = ItemStore.from_tuples(zip(*self.stream))
            whole.assign_sequential_uids()
            self.whole = (whole, reference(w.algorithm, *self.stream))
        self.problems: List[str] = []
        self.jsonl = write_jsonl(instance, workdir / "ladder.jsonl", self.n)
        arr, dep, siz = self.stream
        k = w.advance_every
        self.wire: List[bytes] = []
        for i in range(self.n):
            self.wire.append(arrive_line(
                i, self.tenants[i % len(self.tenants)], arr[i], dep[i],
                siz[i]))
            if k and (i + 1) % k == 0:
                self.wire.append(advance_line(i, arr[i]))

    def us(self, seconds: float, reps: int = REPS) -> float:
        """Per-item microseconds of one cell; counts the items it ran."""
        self.attempted += reps * self.n
        return 1e6 * seconds / self.n

    def expect(self, label: str, problems: List[str]) -> None:
        self.problems += [f"{label}: {p}" for p in problems]

    # -------------------------------------------------------------- #
    # In-process cells
    # -------------------------------------------------------------- #
    def io_cell(self) -> float:
        from repro.workloads.io import iter_jsonl_stores

        times = []
        for _ in range(REPS):
            gc.collect()
            t0 = _now()
            rows = sum(len(s) for s in iter_jsonl_stores(self.jsonl))
            times.append(_now() - t0)
            if rows != self.n:
                self.expect("io", [f"{rows} rows read, {self.n} written"])
        return self.us(median(times))

    def kernel_cell(self, timed_place: bool = False):
        from repro.core.kernel import PlacementKernel

        times, place_s, calls = [], [], 0
        for _ in range(REPS):
            gc.collect()
            algos = [algorithm(self.w.algorithm) for _ in self.stores]
            clocks = [_PlaceTimer(a) for a in algos] if timed_place else []
            kernels = [PlacementKernel(a) for a in algos]
            t0 = _now()
            for kernel, store in zip(kernels, self.stores):
                kernel.release_store(store)
                kernel.drain()
            times.append(_now() - t0)
            for s, kernel in enumerate(kernels):
                # the bare kernel keeps no counts; its cost must match
                if kernel.cost_so_far != self.refs[s].cost:
                    self.expect(f"kernel shard {s}", [
                        f"cost {kernel.cost_so_far!r} vs batch "
                        f"{self.refs[s].cost!r}"])
            if timed_place:
                place_s.append(sum(c.seconds for c in clocks))
                calls = sum(c.calls for c in clocks)
        if timed_place:
            return self.us(median(place_s)), calls
        return self.us(median(times))

    def engine_cell(self, *, metrics: bool, whole: bool = False):
        """Per-shard engines (or one engine over the unsplit prefix):
        ``(us per item, final summaries)``."""
        from repro.engine.loop import Engine
        from repro.engine.metrics import EngineMetrics

        stores, refs = (([self.whole[0]], [self.whole[1]]) if whole
                        else (self.stores, self.refs))
        times = []
        for _ in range(REPS):
            gc.collect()
            engines = [Engine(algorithm(self.w.algorithm),
                              metrics=EngineMetrics() if metrics else None)
                       for _ in stores]
            t0 = _now()
            summaries = []
            for engine, store in zip(engines, stores):
                engine.feed_store(store)
                summaries.append(engine.finish())
            times.append(_now() - t0)
            for s, summary in enumerate(summaries):
                self.expect(f"engine shard {s}", refs[s].check_totals(
                    summary.cost, summary.bins_opened, summary.max_open))
        return self.us(median(times)), summaries

    def replay_cell(self, *, tracer: bool) -> float:
        """In-process ``iter_jsonl_stores`` -> ``Engine.run``, one engine
        over the unsplit prefix."""
        from repro.engine.loop import Engine
        from repro.obs.trace import Tracer
        from repro.workloads.io import iter_jsonl_stores

        times = []
        for _ in range(REPS):
            gc.collect()
            engine = Engine(algorithm(self.w.algorithm),
                            tracer=Tracer() if tracer else None)
            t0 = _now()
            summary = engine.run(iter_jsonl_stores(self.jsonl))
            times.append(_now() - t0)
            self.expect("replay", self.whole[1].check_totals(
                summary.cost, summary.bins_opened, summary.max_open))
        return self.us(median(times))

    def _shards(self):
        from repro.serve.shard import PlacementShard

        return [PlacementShard(s, algorithm(self.w.algorithm))
                for s in range(self.w.shards)]

    def shard_cells(self) -> Dict[str, float]:
        """Parse, apply and encode: timed apart per chunk, and as one."""
        from repro.serve.protocol import encode, parse_request

        lines = self.wire
        route = {t: s for s, t in enumerate(self.tenants)}
        parse_t, apply_t, arrive_t, encode_t, whole_t = [], [], [], [], []
        for _ in range(REPS):
            gc.collect()
            shards = self._shards()
            all_replies = []
            tp = ta = te = adv = 0.0
            # chunks keep the split loops' working set as small as the
            # one-request-at-a-time loop's, so the pieces stay additive
            for c in range(0, len(lines), SPLIT_CHUNK):
                t0 = _now()
                reqs = [parse_request(line)
                        for line in lines[c:c + SPLIT_CHUNK]]
                t1 = _now()
                replies = []
                for req in reqs:
                    if req.op == "advance":
                        ta0 = _now()
                        for shard in shards:
                            shard.apply(req)
                        adv += _now() - ta0
                    else:
                        replies.append(shards[route[req.tenant]].apply(req))
                t2 = _now()
                for reply in replies:
                    encode(reply)
                t3 = _now()
                tp += t1 - t0
                ta += t2 - t1
                te += t3 - t2
                all_replies += replies
            parse_t.append(tp)
            apply_t.append(ta)
            arrive_t.append(ta - adv)
            encode_t.append(te)
            self._check_replies("shard", all_replies)

            gc.collect()
            shards = self._shards()
            t0 = _now()
            for line in lines:
                req = parse_request(line)
                if req.op == "advance":
                    for shard in shards:
                        encode(shard.apply(req))
                else:
                    encode(shards[route[req.tenant]].apply(req))
            whole_t.append(_now() - t0)
        self.attempted += REPS * self.n  # the split pass's items
        return {
            "parse": 1e6 * median(parse_t) / self.n,
            "apply": 1e6 * median(apply_t) / self.n,
            "apply_arrive": 1e6 * median(arrive_t) / self.n,
            "encode": 1e6 * median(encode_t) / self.n,
            "whole": self.us(median(whole_t)),
        }

    def _check_replies(self, label: str, replies: List[dict]) -> None:
        k = self.w.shards
        for s in range(k):
            mine = replies[s::k]
            self.expect(f"{label} shard {s}", self.refs[s].check_decisions(
                [r.get("bin") for r in mine],
                [r.get("opened") for r in mine]))

    # -------------------------------------------------------------- #
    # Served cells
    # -------------------------------------------------------------- #
    def _driver_kw(self, stream=None) -> dict:
        arr, dep, siz = stream or self.stream
        return dict(arrivals=arr, departures=dep, sizes=siz,
                    tenants=self.tenants, advance_every=self.w.advance_every)

    async def client_cell(self) -> float:
        """The driver's own cost: SimNet listener that echoes at once."""
        from repro.testkit.simnet import SimNet

        net = SimNet()

        async def echo(reader, writer):
            while line := await reader.readline():
                seq = line[line.rindex(b":") + 1:-2]
                writer.write(b'{"ok":true,"bin":0,"opened":false,"seq":'
                             + seq + b"}\n")
            writer.close()

        handle = await net.start_server(echo, "127.0.0.1", 0)
        times = []
        for _ in range(REPS):
            driver = await Driver.connect(handle.port, transport=net,
                                          **self._driver_kw())
            phase = await driver.closed_loop(items=self.n,
                                             window=WINDOW)
            times.append(phase.elapsed)
            await driver.close()
        handle.close()
        return self.us(median(times))

    def _config(self, **kw):
        from repro.serve.server import ServeConfig

        w = self.w
        return ServeConfig(shards=w.shards, algorithm=w.algorithm,
                           batch_max=w.batch_max, batch_delay=w.batch_delay,
                           **kw)

    async def simnet_cell(self) -> float:
        from repro.serve.server import PlacementServer
        from repro.testkit.simnet import SimNet

        times = []
        for _ in range(REPS):
            net = SimNet()
            server = PlacementServer(self._config(), transport=net)
            await server.start()
            try:
                driver = await Driver.connect(server.port, transport=net,
                                              **self._driver_kw())
                phase = await driver.closed_loop(items=self.n,
                                                 window=WINDOW)
                times.append(phase.elapsed)
                stats = await settle(driver, self.stream)
                await driver.close()
            finally:
                await server.drain()
            self.expect("simnet", check(self.w, driver, stats, self.stream))
        return self.us(median(times))

    async def _tcp_prefix(self, label: str, extra=(), perturb=False):
        """One fresh server subprocess, the prefix in closed loop."""
        server = Server(self.w, self.workdir, extra)
        try:
            await server.ready()
            driver = await Driver.connect(server.port, **self._driver_kw())
            phase = await driver.closed_loop(items=self.n,
                                             window=WINDOW)
            stats = await settle(driver, self.stream)
            await driver.close()
        finally:
            server.stop()
        self.expect(label, check(self.w, driver, stats, self.stream,
                                 perturb))
        return phase.elapsed, driver.advance_us

    async def tcp_cell(self):
        times, advances = [], []
        for _ in range(REPS):
            elapsed, adv = await self._tcp_prefix("tcp", (), self.perturb)
            times.append(elapsed)
            advances += adv
        return self.us(median(times)), advances

    async def traced_tcp_cell(self) -> float:
        """The TCP cell against a fully traced server (every span kept)."""
        elapsed, _ = await self._tcp_prefix("traced tcp", ("--telemetry",))
        return self.us(elapsed, reps=1)

    async def telemetry_pass(self, instance, rate: float,
                             seconds: float) -> dict:
        """Prefix closed loop, then open loop, with RED telemetry on.

        Span sampling is off (``--trace-sample 0``): the phase timings
        still cover every request, but kernel events are not narrated
        into the span ring, so the kernel phase times what the ladder's
        apply cell times.
        """
        stream = columns(instance)
        server = Server(self.w, self.workdir,
                        ("--telemetry", "--trace-sample", "0"))
        try:
            await server.ready()
            driver = await Driver.connect(server.port,
                                          **self._driver_kw(stream))
            prefix = await driver.closed_loop(items=self.n,
                                              window=WINDOW)
            snap1 = (await driver.request({"op": "telemetry"}))["snapshot"]
            open_phase = await driver.open_loop(rate, seconds)
            snap2 = (await driver.request({"op": "telemetry"}))["snapshot"]
            stats = await settle(driver, stream)
            await driver.close()
        finally:
            server.stop()
        self.expect("telemetry", check(self.w, driver, stats, stream))
        return {"prefix_s": prefix.elapsed, "open": open_phase,
                "sent": driver.sent,
                "snap1": snap1, "snap2": snap2,
                "errors": dict(driver.error_codes)}


class _PlaceTimer:
    """Wraps one algorithm instance's ``place`` in a timer."""

    def __init__(self, algo) -> None:
        self.seconds = 0.0
        self.calls = 0
        inner = algo.place

        def place(item, sim):
            t0 = _now()
            try:
                return inner(item, sim)
            finally:
                self.seconds += _now() - t0
                self.calls += 1

        algo.place = place


def _phase_means(snap1: dict, snap2: dict) -> Dict[str, float]:
    """Per-phase mean µs over the requests between two snapshots."""
    t1 = snap1["merged"]["timings"]
    t2 = snap2["merged"]["timings"]
    out = {}
    for name, cur in t2.items():
        prev = t1.get(name, {"count": 0, "total_s": 0.0})
        n = cur["count"] - prev["count"]
        out[name.removeprefix("phase_")] = (
            1e6 * (cur["total_s"] - prev["total_s"]) / n if n else 0.0)
    return out


async def run(w: Workload, instance, seconds: float, workdir, *,
              perturb: bool = False):
    """The traced run: per-layer metrics for ``w``."""
    pin(0, 0)  # servers get the other core, as in the untraced runs
    lad = Ladder(w, instance, workdir, perturb)
    # in-process cells run without cyclic GC (collected between reps),
    # as the served process runs with its startup heap frozen
    gc.disable()
    try:
        io = lad.io_cell()
        kernel = lad.kernel_cell()
        place, calls = lad.kernel_cell(timed_place=True)
        engine, summaries = lad.engine_cell(metrics=False)
        engine_metrics, _ = lad.engine_cell(metrics=True)
        engine_whole = (engine if w.shards == 1
                        else lad.engine_cell(metrics=False, whole=True)[0])
        shard = lad.shard_cells()
        replay_top = lad.replay_cell(tracer=False)
        replay_traced = lad.replay_cell(tracer=True)
    finally:
        gc.enable()
    client = await lad.client_cell()
    simnet = await lad.simnet_cell()
    tcp, advances = await lad.tcp_cell()

    # the open-loop pass runs at 30% of the saturation just measured
    tel = await lad.telemetry_pass(instance, 0.3e6 / tcp, 0.15 * seconds)
    if w.served:
        trace_ratio = tcp / await lad.traced_tcp_cell()
    else:
        trace_ratio = replay_top / replay_traced
    open_phases = _phase_means(tel["snap1"], tel["snap2"])
    empty = {"merged": {"timings": {}}}
    prefix_phases = _phase_means(empty, tel["snap1"])
    merged = tel["snap2"]["merged"]
    counters = merged["counters"]
    flushes = sum(v for k, v in counters.items() if k.startswith("flush_"))
    queue_max = max((s["gauges"]["queue_depth"]["max"] or 0)
                    for s in tel["snap2"]["per_shard"])
    refused = sum(tel["snap2"]["refusals"].values())

    server_own = simnet - client
    marginals = {
        "core.kernel.self_us_per_item": kernel - place,
        "algorithms.place.us_per_item": place,
        "engine.marginal_us_per_item": engine - kernel,
        "engine.metrics.marginal_us_per_item": engine_metrics - engine,
        "serve.protocol.parse_us_per_req": shard["parse"],
        "serve.protocol.encode_us_per_reply": shard["encode"],
        "serve.shard.marginal_us_per_req": shard["apply"] - engine_metrics,
        "serve.server.marginal_us_per_req": server_own - shard["whole"],
        "serve.transport.tcp_marginal_us_per_req": tcp - server_own,
    }
    # each cell contains the one it is measured against, so none may
    # come out cheaper than its inner cell by more than the noise band
    nested = {
        "kernel > place": (kernel, place),
        "engine > kernel": (engine, kernel),
        "engine+metrics > engine": (engine_metrics, engine),
        "shard apply > engine+metrics": (shard["apply"], engine_metrics),
        "server > shard": (server_own, shard["whole"]),
        "tcp > server": (tcp, server_own),
    }
    violations = [name for name, (outer, inner) in nested.items()
                  if outer < inner * (1 - NEST_BAND)]
    if violations:
        note(f"ladder cells not nested: {violations} "
             f"(noise band {NEST_BAND:.0%})")
    errors = {
        # the shard cell's pieces, timed apart, against the whole loop
        "split": abs(shard["parse"] + shard["apply"] + shard["encode"]
                     - shard["whole"]) / shard["whole"],
        # independently timed cells: loader + engine against one replay
        "replay": abs(io + engine_whole - replay_top) / replay_top,
    }
    for name, error in errors.items():
        if error > RECONCILE_TOLERANCE:
            note(f"ladder {name} term does not reconcile: {error:.1%} "
                 f"(tolerance {RECONCILE_TOLERANCE:.0%})")
    xchecks = {
        "kernel": prefix_phases.get("kernel", 0.0) / shard["apply_arrive"],
        "parse": prefix_phases.get("parse", 0.0) / shard["parse"],
        # the server's own cost phases must fit in its ladder share
        "server_share": (prefix_phases.get("parse", 0.0)
                         + prefix_phases.get("kernel", 0.0)) / server_own,
    }
    for name, ratio in xchecks.items():
        low = 0.0 if name == "server_share" else 1 / XCHECK_TOLERANCE
        if not low <= ratio <= XCHECK_TOLERANCE:
            note(f"telemetry {name} disagrees with the ladder: "
                 f"ratio {ratio:.2f}")
    if set(tel["errors"]) - {"overloaded"}:  # refusals are backpressure
        lad.problems.append(f"telemetry pass errors {tel['errors']}")

    open_phase = tel["open"]
    metrics = {
        "workloads.io.us_per_item": (io, "us"),
        "core.kernel.us_per_item": (kernel, "us"),
        "core.kernel.bins_opened": (
            sum(s.bins_opened for s in summaries), "count"),
        "core.kernel.max_open": (
            sum(s.max_open for s in summaries), "count"),
        "algorithms.place.calls": (calls, "count"),
        **{name: (value, "us") for name, value in marginals.items()},
        **{f"serve.server.phase.{p}.mean_us": (
            open_phases.get(p, 0.0), "us")
           for p in ("parse", "batch", "queue", "kernel", "write")},
        "serve.batcher.batch_size.mean": (
            merged["histograms"]["batch_size"]["mean"], "count"),
        "serve.batcher.flush_size_share": (
            counters.get("flush_size", 0) / flushes if flushes else 0.0,
            "ratio"),
        # 0 when the workload sends no advance broadcasts
        "serve.server.advance.p50_us": (
            percentile(sorted(advances), 0.5) if advances else 0.0, "us"),
        "serve.shard.queue_depth.max": (queue_max, "count"),
        "serve.server.refused": (refused, "count"),
        "driver.open_loop.p50_ms": (
            percentile(sorted(open_phase.latencies_ms), 0.50), "ms"),
        "driver.open_loop.p99_ms": (
            percentile(sorted(open_phase.latencies_ms), 0.99), "ms"),
        "driver.lag.p99_ms": (
            percentile(sorted(open_phase.lag_ms), 0.99), "ms"),
        "driver.late_share": (
            sum(1 for x in open_phase.lag_ms if x > 1.0)
            / max(1, open_phase.n),
            "ratio"),
        "driver.client_us_per_req": (client, "us"),
        "obs.trace_overhead_ratio": (trace_ratio, "ratio"),
        "ladder.top_us_per_item": (tcp, "us"),
        "ladder.split_additivity_error": (errors["split"], "ratio"),
        "ladder.replay_reconcile_error": (errors["replay"], "ratio"),
        "ladder.nesting_violations": (len(violations), "count"),
        **{f"xcheck.{name}_ratio": (ratio, "ratio")
           for name, ratio in xchecks.items()},
    }
    attempted = lad.attempted + tel["sent"]
    failed = attempted if lad.problems else 0
    return lad.problems, attempted, failed, metrics
