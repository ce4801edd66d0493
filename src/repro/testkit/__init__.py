"""repro.testkit — deterministic simulation testing for the service.

A VOPR/Jepsen-style harness that runs the **full**
:mod:`repro.serve` stack — server, shards, micro-batchers, clients —
inside one process on a **virtual clock** with **no real sockets**:

- :mod:`repro.testkit.clock` — :class:`SimLoop`, an asyncio event loop
  whose ``time()`` is simulated: sleeps complete instantly by jumping
  the clock to the next timer, so a "30 second" chaos schedule runs in
  milliseconds and two runs with the same seed interleave identically;
- :mod:`repro.testkit.simnet` — :class:`SimNet`, an in-process
  transport (the :class:`repro.serve.transport.Transport` seam) whose
  seeded fault policy drops, delays, reorders and truncates frames and
  kills connections;
- :mod:`repro.testkit.faults` — :class:`FaultPlan`, the declarative
  JSON-serializable schedule of what goes wrong when: shard crashes
  (including mid-batch), recoveries, checkpoint/restart cycles, network
  degradation windows, shard stalls (overload);
- :mod:`repro.testkit.chaos_client` — :class:`ChaosClient`, a
  closed-loop client with timeouts, exponential backoff and seq-stable
  idempotent resend, so every accepted item is applied exactly once no
  matter how often its ack is lost;
- :mod:`repro.testkit.harness` — :func:`run_chaos` executes one
  :class:`FaultPlan` end to end and returns a :class:`ChaosReport`;
- :mod:`repro.testkit.oracle` — the end-of-run checks: zero
  accepted-item loss, exactly-once application, decision/cost streams
  bit-identical to batch ``simulate()`` on the acked items (via
  :func:`repro.engine.parity.check_against_batch`), invariants clean;
- :mod:`repro.testkit.reference` — :class:`ReferenceSim`, a
  kernel-independent simulator of the paper's model that batch
  ``simulate()`` is held against (the parity sweep's ``reference`` leg);
- :mod:`repro.testkit.shrink` — delta-debugging minimizer that reduces
  a failing plan to the smallest still-failing one and writes a
  replayable artifact under ``.ledger/chaos/``.

Entry points: ``repro-dbp chaos`` (CLI sweep/replay/minimize) and
``tests/chaos/`` (the pytest suite).  See ``docs/testing.md``.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".chaos_client": ("ChaosClient", "ClientReport"),
    ".clock": ("SimDeadlockError", "SimLoop", "sim_run"),
    ".faults": ("FaultPlan", "NetWindow", "ShardEvent", "generate_plan"),
    ".harness": ("ChaosReport", "run_chaos"),
    ".oracle": ("OracleVerdict", "check_oracles"),
    ".reference": ("ReferenceSim", "reference_run"),
    ".shrink": ("minimize", "write_artifact"),
    ".simnet": ("SimNet", "SimNetPolicy"),
})
