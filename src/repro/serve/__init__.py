"""repro.serve — the asyncio placement service.

A JSONL-over-TCP daemon that exposes the streaming placement engine as
a network service: clients submit ``arrive``/``depart``/``advance``/
``stats`` requests and receive placement decisions (which bin, whether
it was freshly opened) as replies.  The moving pieces:

- :mod:`repro.serve.protocol` — the versioned wire schema, strict
  validation, structured error replies;
- :mod:`repro.serve.shard` — worker shards, each owning one placement
  kernel behind a bounded queue, consistent-hash routed;
- :mod:`repro.serve.batcher` — micro-batching of near-simultaneous
  arrivals (flush on size or age);
- :mod:`repro.serve.server` — the daemon: backpressure, graceful
  drain with per-shard v4 checkpoints, obs/ledger integration;
- :mod:`repro.serve.transport` — the network seam: real TCP by
  default, or the chaos harness's simulated fault-injecting net
  (:mod:`repro.testkit`);
- :mod:`repro.serve.telemetry` — request-scoped tracing (span trees
  with deterministic head-sampling), per-shard RED metrics, and the
  ``{"op": "telemetry"}`` admin plane behind ``repro-dbp serve top``;
- :mod:`repro.serve.client` — a pipelined async client;
- :mod:`repro.serve.loadgen` — an open-loop load generator with
  latency percentiles;
- :mod:`repro.serve.parity` — the correctness anchor: a single-shard
  server's decisions are bit-identical to batch ``simulate()`` (not
  imported here, so ``python -m`` runs it fresh).

See ``docs/serving.md`` for the protocol spec and lifecycle, and
``docs/testing.md`` for the chaos-testing story built on these seams.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".batcher": ("MicroBatcher",),
    ".client": ("PlacementClient",),
    ".loadgen": ("LoadReport", "WORKLOADS", "make_workload", "run_loadgen"),
    ".protocol": (
        "ERROR_CODES", "OPS", "PROTOCOL_VERSION", "RETRYABLE_ERROR_CODES",
        "ProtocolError", "Request", "error_reply", "ok_reply", "parse_request",
    ),
    ".server": ("PlacementServer", "ServeConfig"),
    ".shard": ("HashRing", "PlacementShard", "stable_hash"),
    ".telemetry": (
        "BATCH_SIZE_EDGES", "PHASES", "GatedNarrator", "RequestContext",
        "ServiceTelemetry", "ShardTelemetry", "render_service_prometheus",
    ),
    ".transport": ("TcpTransport", "Transport"),
})
