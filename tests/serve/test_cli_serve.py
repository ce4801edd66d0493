"""`repro-dbp serve` / `loadgen` as real subprocesses: full lifecycle."""

from __future__ import annotations

import json
import os
import pathlib
import re
import signal
import socket
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]


def env():
    e = dict(os.environ)
    e["PYTHONPATH"] = str(REPO / "src")
    return e


def start_server(*extra: str) -> "tuple[subprocess.Popen, int, str]":
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env(),
        text=True,
    )
    line = proc.stdout.readline()  # blocks until the server announces itself
    match = re.search(r" on [\w.]+:(\d+) ", line)
    if not match:  # pragma: no cover - startup failure diagnostics
        proc.kill()
        raise AssertionError(
            f"no port in banner {line!r}; stderr: {proc.stderr.read()}"
        )
    return proc, int(match.group(1)), line


def stop_server(proc: subprocess.Popen) -> str:
    proc.send_signal(signal.SIGTERM)
    out, err = proc.communicate(timeout=20)
    assert proc.returncode == 0, err
    return out


def rpc(port: int, obj: dict) -> dict:
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        stream = sock.makefile("rwb")
        stream.write(json.dumps(obj).encode() + b"\n")
        stream.flush()
        return json.loads(stream.readline())


def loadgen(port: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "loadgen",
         "--port", str(port), *extra],
        capture_output=True,
        env=env(),
        text=True,
        timeout=60,
    )


class TestServeLifecycle:
    def test_serve_loadgen_drain(self, tmp_path):
        report_path = tmp_path / "report.json"
        proc, port, banner = start_server(
            "--shards", "2", "-a", "FirstFit",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
        )
        try:
            assert "FirstFit" in banner and "2 shard(s)" in banner
            result = loadgen(
                port, "-n", "300", "--rate", "20000",
                "--connections", "2", "--json", str(report_path),
            )
            assert result.returncode == 0, result.stderr
            assert "300 requests" in result.stdout
            report = json.loads(report_path.read_text())
            assert report["ok"] == 300 and report["errors"] == 0
            assert report["server_stats"]["totals"]["accepted"] == 300
        finally:
            out = stop_server(proc)
        assert "drained:" in out
        assert "302 requests" in out  # 300 arrivals + stats probe ×2
        for shard in (0, 1):
            ckpt = tmp_path / "ckpt" / f"shard-{shard}.ckpt"
            assert ckpt.exists()
            assert ckpt.with_suffix(".ckpt.meta.json").exists()

    def test_resume_restores_every_accepted_item(self, tmp_path):
        ckpt_dir = str(tmp_path / "ckpt")
        proc, port, _ = start_server(
            "-a", "FirstFit", "--checkpoint-dir", ckpt_dir,
        )
        try:
            result = loadgen(port, "-n", "100", "--rate", "20000")
            assert result.returncode == 0, result.stderr
        finally:
            stop_server(proc)

        proc, port, banner = start_server(
            "-a", "FirstFit", "--checkpoint-dir", ckpt_dir, "--resume",
        )
        try:
            assert "resumed 1 from checkpoint" in banner
            stats = rpc(port, {"op": "stats"})
            assert stats["totals"]["items"] == 100
            assert stats["totals"]["accepted"] == 100
            # the restored kernel keeps serving from where it stopped
            reply = rpc(port, {"op": "ping"})
            assert reply["ok"]
        finally:
            stop_server(proc)

    def test_sigterm_with_a_client_connected_is_clean(self):
        # the client pings and keeps its socket open through the drain:
        # the server must close it after flushing, not leave the reader
        # task to be cancelled at loop teardown (an asyncio traceback)
        proc, port, _ = start_server("-a", "FirstFit")
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        try:
            stream = sock.makefile("rwb")
            stream.write(b'{"op": "ping", "seq": 1}\n')
            stream.flush()
            assert json.loads(stream.readline())["ok"]
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=20)
            assert stream.readline() == b""  # the server closed the socket
        finally:
            sock.close()
        assert proc.returncode == 0, err
        assert "drained:" in out
        assert "Traceback" not in err, err

    def test_unknown_algorithm_fails_fast(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", "0", "-a", "Sorter"],
            capture_output=True, env=env(), text=True, timeout=60,
        )
        assert result.returncode == 1
        assert "unknown algorithm" in result.stderr


class TestLoadgenCli:
    def test_list_workloads(self):
        result = loadgen(0, "--list-workloads")
        assert result.returncode == 0
        listed = result.stdout.split()
        assert "uniform" in listed and "poisson" in listed

    def test_unknown_workload(self):
        result = loadgen(0, "-w", "nope")
        assert result.returncode == 1
        assert "unknown workload" in result.stderr

    def test_connection_refused_is_reported(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        result = loadgen(free_port, "-n", "5")
        assert result.returncode == 1
        assert "loadgen:" in result.stderr


class TestNoIndexPropagation:
    """``--no-index`` must reach every shard's engine — fresh builds and
    the checkpoint-restore path alike (the flag is a per-boot override,
    not part of the frozen kernel state)."""

    def test_no_index_reaches_every_shard(self, tmp_path):
        ckpt_dir = str(tmp_path / "ckpt")
        proc, port, _ = start_server(
            "-a", "BestFit", "--shards", "2", "--no-index",
            "--checkpoint-dir", ckpt_dir,
        )
        try:
            result = loadgen(port, "-n", "50", "--rate", "20000")
            assert result.returncode == 0, result.stderr
            stats = rpc(port, {"op": "stats"})
            assert [s["indexed"] for s in stats["per_shard"]] == [False, False]
        finally:
            stop_server(proc)

        # resume with --no-index: the override holds on restored engines
        proc, port, _ = start_server(
            "-a", "BestFit", "--shards", "2", "--no-index",
            "--checkpoint-dir", ckpt_dir, "--resume",
        )
        try:
            stats = rpc(port, {"op": "stats"})
            assert [s["indexed"] for s in stats["per_shard"]] == [False, False]
            assert stats["totals"]["items"] == 50  # state still restored
        finally:
            stop_server(proc)

        # resume without the flag: restored engines index again
        proc, port, _ = start_server(
            "-a", "BestFit", "--shards", "2",
            "--checkpoint-dir", ckpt_dir, "--resume",
        )
        try:
            stats = rpc(port, {"op": "stats"})
            assert [s["indexed"] for s in stats["per_shard"]] == [True, True]
        finally:
            stop_server(proc)


def serve_top(port: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "top",
         "--port", str(port), *extra],
        capture_output=True,
        env=env(),
        text=True,
        timeout=60,
    )


class TestTelemetryCli:
    """The admin plane end to end: --telemetry, serve top, loadgen --trace."""

    def test_serve_top_renders_per_shard_red_view(self):
        proc, port, _ = start_server(
            "--telemetry", "--shards", "2", "-a", "FirstFit",
        )
        try:
            result = loadgen(port, "-n", "100", "--rate", "20000",
                             "--connections", "2")
            assert result.returncode == 0, result.stderr
            top = serve_top(port, "--iterations", "2", "--interval", "0.1")
            assert top.returncode == 0, top.stderr
            frames = top.stdout
            assert "serve top:" in frames and "sample 1" in frames
            # one row per shard, twice (two refresh frames)
            assert len(re.findall(r"^ +0 +[\d.]+ ", frames, re.M)) == 2
            assert len(re.findall(r"^ +1 +[\d.]+ ", frames, re.M)) == 2
            assert "p50_ms" in frames and "queue" in frames
        finally:
            stop_server(proc)

    def test_serve_top_prometheus_page(self):
        proc, port, _ = start_server("--telemetry", "-a", "FirstFit")
        try:
            loadgen(port, "-n", "20", "--rate", "20000")
            result = serve_top(port, "--prometheus")
            assert result.returncode == 0, result.stderr
            assert 'repro_serve_requests_total{shard="0"} ' in result.stdout
            assert 'le="+Inf"' in result.stdout
        finally:
            stop_server(proc)

    def test_serve_top_needs_telemetry_enabled(self):
        proc, port, _ = start_server("-a", "FirstFit")
        try:
            result = serve_top(port, "--iterations", "1")
            assert result.returncode == 1
            assert "telemetry disabled" in result.stderr
        finally:
            stop_server(proc)

    def test_trace_out_written_on_sigterm_drain(self, tmp_path):
        trace_path = tmp_path / "spans.jsonl"
        proc, port, _ = start_server(
            "-a", "FirstFit", "--trace-out", str(trace_path),
        )
        try:
            result = loadgen(port, "-n", "30", "--rate", "20000", "--trace")
            assert result.returncode == 0, result.stderr
            # the loadgen report includes the server's phase attribution
            assert "server:" in result.stdout
            assert "kernel:" in result.stdout
        finally:
            out = stop_server(proc)
        assert f"trace: {trace_path}" in out
        lines = trace_path.read_text().splitlines()
        names = {json.loads(line)["name"] for line in lines}
        assert "request" in names
        # loadgen --trace stamped deterministic ids; they were sampled
        traces = {
            json.loads(line)["fields"].get("trace")
            for line in lines
            if json.loads(line)["name"] == "request"
        }
        assert any(t and t.startswith("lg-") for t in traces)

    def test_loadgen_writes_ledger_record(self, tmp_path):
        ledger_dir = tmp_path / "lg-ledger"
        proc, port, _ = start_server("-a", "FirstFit")
        try:
            result = loadgen(
                port, "-n", "40", "--rate", "20000",
                "--ledger-dir", str(ledger_dir),
            )
            assert result.returncode == 0, result.stderr
            assert "ledger:" in result.stdout
        finally:
            stop_server(proc)
        records = list(ledger_dir.glob("loadgen-*.json"))
        assert len(records) == 1
        record = json.loads(records[0].read_text())
        assert record["kind"] == "loadgen"
        assert record["algorithm"] == "FirstFit"
        assert record["metrics"]["counters"]["ok"] == 40
        assert record["metrics"]["counters"]["errors"] == 0
        assert "client_latency_ms" in record["metrics"]["timings"]

    def test_loadgen_no_ledger_flag(self, tmp_path):
        proc, port, _ = start_server("-a", "FirstFit")
        try:
            result = loadgen(port, "-n", "10", "--rate", "20000",
                             "--no-ledger")
            assert result.returncode == 0, result.stderr
            assert "ledger:" not in result.stdout
        finally:
            stop_server(proc)
