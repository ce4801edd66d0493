"""Batch frontends over the placement kernel.

Two entry points:

- :func:`simulate` — run an online algorithm over a complete
  :class:`~repro.core.instance.Instance` and return a
  :class:`~repro.core.result.PackingResult`.
- :class:`IncrementalSimulation` — feed items one at a time and inspect the
  algorithm's state between releases.  This is what adaptive adversaries
  (Section 4 of the paper, and the non-clairvoyant Ω(μ) construction) use:
  they watch how many bins the online algorithm has open *right now* and
  choose the next item (or a departure time) accordingly.

All simulation semantics — half-open intervals, departures-before-arrivals
at equal ``t``, release-order tie-breaks, bin-closes-when-empty,
clairvoyance masking, the pending-bin commit protocol — live in
:class:`~repro.core.kernel.PlacementKernel`; ``IncrementalSimulation`` is
that kernel with recording switched on, and ``simulate`` drives a
recording kernel through one instance.  The streaming
:class:`~repro.engine.loop.Engine` is another subclass of the *same*
kernel, so batch/stream parity holds by construction.
"""

from __future__ import annotations

from typing import Iterable

from .instance import Instance
from .kernel import PlacementKernel
from .result import PackingResult

__all__ = ["IncrementalSimulation", "simulate", "simulate_many"]


class IncrementalSimulation(PlacementKernel):
    """Drives one online algorithm over a stream of items.

    A fully-recording :class:`~repro.core.kernel.PlacementKernel`: it
    keeps complete history (items, bin records, assignment, the ON_t
    event log) so :meth:`finish` returns an audited
    :class:`~repro.core.result.PackingResult`.  Adversaries call the
    kernel's ``release``/``depart``/``run_until`` and inspect its state
    between calls; ``place()`` sees this very object as its ``sim``.

    Parameters
    ----------
    algorithm:
        An object satisfying the
        :class:`~repro.algorithms.base.OnlineAlgorithm` protocol.
    capacity:
        Bin capacity (1.0 in the paper; parameterisable so the
        bounded-parallelism setting of Shalom et al. — ``g`` unit slots — can
        be expressed as ``capacity=1`` with sizes ``1/g``, or directly as
        ``capacity=g`` with unit sizes).
    indexed:
        Maintain the kernel's O(log n) open-bin index (default).  Pass
        ``False`` for the plain linear-scan placement queries.
    listener:
        Optional :class:`~repro.core.kernel.KernelListener` (or sequence
        of them) observing every kernel event — the hook the
        observability layer (:mod:`repro.obs`) uses.
    """

    def __init__(
        self,
        algorithm,
        *,
        capacity: float = 1.0,
        indexed: bool = True,
        listener=None,
    ) -> None:
        super().__init__(
            algorithm,
            capacity=capacity,
            record=True,
            record_events=True,
            indexed=indexed,
            listener=listener,
        )

    def finish(self) -> PackingResult:
        """:meth:`drain` then :meth:`result` — the batch-style ending."""
        self.drain()
        return self.result()


def simulate(
    algorithm,
    instance: Instance,
    *,
    capacity: float = 1.0,
    indexed: bool = True,
    listener=None,
) -> PackingResult:
    """Run ``algorithm`` over ``instance`` and return the audited result.

    ``listener`` (a :class:`~repro.core.kernel.KernelListener` or a
    sequence of them) observes every kernel event — this is how the
    observability layer (:mod:`repro.obs`) traces or meters a batch run
    without touching its semantics.
    """
    kernel = PlacementKernel(
        algorithm,
        capacity=capacity,
        record=True,
        indexed=indexed,
        listener=listener,
    )
    if isinstance(instance, Instance):
        # columnar fast path: release straight off the store's columns
        kernel.release_store(instance.store)
    else:
        release = kernel.release
        for item in instance:
            release(item)
    kernel.drain()
    return kernel.result()


def simulate_many(
    algorithm_factory, instances: Iterable[Instance], *, capacity: float = 1.0
) -> list[PackingResult]:
    """Run a fresh algorithm (from ``algorithm_factory``) on each instance."""
    return [
        simulate(algorithm_factory(), inst, capacity=capacity)
        for inst in instances
    ]
