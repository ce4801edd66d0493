"""The reference speed: how fast this core runs frozen Python right now.

A shared virtual machine's cores change speed from second to second and
from minute to minute (on a 2-vCPU KVM guest, a fixed pure-Python loop
varied by 18% over twelve one-second samples, and the server's start-up
took 0.58 CPU s in one run and 0.73 in another), and the process's own
CPU time does not leave that out.
So every timing the benchmark reports is rescaled to a reference speed:
right before and after each measured interval, the same core runs
:func:`ref_pack` -- a best-fit packer with departures written here, in
the benchmark, so no change to the program can move it -- and the
interval's CPU seconds are multiplied by ``measured rate / NOMINAL``.
A change to the program moves the rescaled figure as it moves the raw
one; a slow minute of the host moves both the program and the
reference, and cancels.

Run as ``python refspeed.py``, the module serves slices to a parent
that pins it to the core under test: each input line ``<seconds>``
answers one line, the reference rate over at least that much CPU time.
"""

from __future__ import annotations

import heapq
import random
import subprocess
import sys
import time

#: reference items per CPU second of a calm 2-vCPU Xeon (Sapphire
#: Rapids) KVM guest under CPython 3.11: the speed reported figures are
#: rescaled to
NOMINAL = 135_000.0
#: CPU seconds of one reference slice
SLICE_S = 0.1


def _items():
    rng = random.Random(20170724)
    items, t = [], 0.0
    for _ in range(4000):
        t += rng.expovariate(40.0)
        items.append((t, t + rng.uniform(1.0, 16.0), rng.uniform(0.01, 0.5)))
    return items


ITEMS = _items()


class _Bin:
    __slots__ = ("uid", "level", "items")

    def __init__(self, uid: int) -> None:
        self.uid = uid
        self.level = 0.0
        self.items = {}


def ref_pack() -> int:
    """Best fit with departures over ``ITEMS``; returns bins opened."""
    open_bins, heap, opened = {}, [], 0
    for k, (arrival, departure, size) in enumerate(ITEMS):
        while heap and heap[0][0] <= arrival:
            _, uid, b = heapq.heappop(heap)
            b.level -= b.items.pop(uid)
            if not b.items:
                del open_bins[b.uid]
        best = None
        for b in open_bins.values():
            if b.level + size <= 1.0 and (best is None
                                          or b.level > best.level):
                best = b
        if best is None:
            best = _Bin(opened)
            opened += 1
            open_bins[best.uid] = best
        best.level += size
        best.items[k] = size
        heapq.heappush(heap, (departure, k, best))
    return opened


#: the packing every slice must reproduce
BINS_OPENED = ref_pack()


def rate(cpu_s: float = SLICE_S) -> float:
    """Reference items per CPU second over at least ``cpu_s`` CPU s."""
    c0 = time.process_time()
    runs = 0
    while True:
        if ref_pack() != BINS_OPENED:
            raise RuntimeError("reference packer gave a different result")
        runs += 1
        elapsed = time.process_time() - c0
        if elapsed >= cpu_s:
            return runs * len(ITEMS) / elapsed


def scale(rates) -> float:
    """Factor from CPU seconds to reference seconds, for an interval
    bracketed by reference slices that measured ``rates``."""
    return sum(rates) / len(rates) / NOMINAL


class Slicer:
    """A child that runs reference slices on the core of the process
    under test (``common.pin`` slot ``slot``), when asked."""

    def __init__(self, slot: int) -> None:
        from common import BENCH_DIR, child_env, pin

        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "refspeed.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(),
        )
        pin(self.proc.pid, slot)

    def rate(self) -> float:
        """The reference rate over one slice."""
        self.proc.stdin.write(f"{SLICE_S!r}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("reference slicer exited")
        return float(line)

    def stop(self) -> None:
        from common import stop_process

        stop_process(self.proc, graceful=False)


def main() -> None:
    for line in sys.stdin:
        print(repr(rate(float(line))), flush=True)


if __name__ == "__main__":
    main()
