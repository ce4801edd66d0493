"""Shared plumbing: locating the program, statistics, process hygiene.

The benchmark measures the program in the checkout it sits in: the
``repro`` package is imported from ``<root>/src`` and nowhere else, and
every child process gets the same ``PYTHONPATH``.  Scratch files live
under ``<root>/.perfbench-work`` and are removed when a run ends.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = pathlib.Path(__file__).resolve().parent

#: seconds a child process may take to exit after being asked to stop
STOP_TIMEOUT_S = 30.0


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no program to measure)."""


def use_checkout_src() -> None:
    """Import ``repro`` from this checkout's ``src`` — or fail loudly."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    where = pathlib.Path(repro.__file__).resolve()
    if SRC not in where.parents:
        raise SetupError(f"imported repro from {where}, not from {SRC}")


def child_env() -> dict:
    """Environment for child processes: this checkout's ``src`` only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_LEDGER_DIR", None)
    return env


class WorkDir:
    """A per-run scratch directory inside the checkout, removed on exit."""

    def __init__(self) -> None:
        self.path = ROOT / ".perfbench-work" / f"run-{os.getpid()}"

    def __enter__(self) -> pathlib.Path:
        self.path.mkdir(parents=True, exist_ok=True)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()  # only when no other run uses it
        except OSError:
            pass


def pin(pid: int, slot: int) -> None:
    """Pin ``pid`` to the ``slot``-th CPU this process may use.

    The driver and the process under test each get a core of their own
    (when there are two), so run-to-run placement cannot swing a result.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        os.sched_setaffinity(pid, {cpus[slot % len(cpus)]})


def stop_process(proc: subprocess.Popen, *, graceful: bool = True) -> None:
    """SIGTERM (then SIGKILL) ``proc`` and reap it."""
    if proc.poll() is None:
        if graceful:
            proc.send_signal(signal.SIGTERM)
        else:
            proc.kill()
    try:
        proc.communicate(timeout=STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


def vm_hwm_mib(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise SetupError(f"no VmHWM line in /proc/{pid}/status")


def cpu_seconds(pid: int) -> float:
    """CPU seconds used so far by every thread of process ``pid``.

    This is the kernel's per-process scheduler clock (what
    ``clock_getcpuclockid(pid)`` names), which on a paravirtualised
    guest leaves out steal time: a run measured in it does not slow
    down when the host gives the core to another machine.
    """
    return time.clock_gettime((~pid << 3) | 2)  # CPUCLOCK_SCHED, process


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(0, min(len(sorted_values) - 1,
                      round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, tuple]) -> None:
    """Print the result line: ``metrics`` maps name → (value, unit)."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }), flush=True)


def note(msg: str) -> None:
    """Progress/diagnostic line on stderr (stdout ends with the result)."""
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)

