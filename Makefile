# Convenience targets for the reproduction workflow.

PYTHON ?= python

.PHONY: install test bench bench-report flame report figures table1 curves docs regress sweep serve-smoke chaos clean all

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Aggregate benchmarks/output/BENCH_*.json into BENCH_SUMMARY.{json,md}.
bench-report:
	$(PYTHON) scripts/bench_report.py

# Profile a 20k-item replay under the CPU-time stack sampler and render
# the flamegraph views (top-functions table + collapsed + speedscope
# under benchmarks/output/).  The bundled 1k trace replays in ~10 ms of
# CPU, too little for more than a few samples.
flame:
	$(PYTHON) -c "from repro.workloads import dump_jsonl, uniform_random; \
	  dump_jsonl(uniform_random(20000, 16, seed=1), \
	  'benchmarks/output/flame.trace.jsonl')"
	$(PYTHON) -m repro replay benchmarks/output/flame.trace.jsonl \
	  -a HybridAlgorithm --sample-hz 997 \
	  --profile-out benchmarks/output/replay.prof.json --no-ledger
	$(PYTHON) -m repro obs flame benchmarks/output/replay.prof.json \
	  --collapsed benchmarks/output/replay.collapsed.txt \
	  --speedscope benchmarks/output/replay.speedscope.json

report:
	$(PYTHON) -m repro report -o REPORT.md

figures:
	$(PYTHON) -m repro figures

table1:
	$(PYTHON) -m repro table1

curves:
	$(PYTHON) -m repro curves

docs:
	$(PYTHON) scripts/gen_api_docs.py

# Re-run the baseline workloads and gate the fresh ledger records
# against the frozen .ledger/baseline.json (exit 1 on cost drift or
# new invariant violations).
regress:
	$(PYTHON) -m repro replay examples/traces/uniform_1k.jsonl -a FirstFit --invariants
	$(PYTHON) -m repro replay examples/traces/uniform_1k.jsonl -a HybridAlgorithm --invariants
	$(PYTHON) -m repro obs regress

# Every algorithm x workload family with the theory-invariant monitors
# attached; fails on any violation.
sweep:
	$(PYTHON) scripts/invariant_sweep.py

# Boot a placement server, round-trip 1k requests through the load
# generator, SIGTERM-drain it, then prove service/batch parity for
# every registered algorithm.
serve-smoke:
	$(PYTHON) scripts/serve_smoke.py
	$(PYTHON) -m repro.serve.parity

# Deterministic fault-injection sweep: 25 seeded schedules of network
# faults, shard crashes, and checkpoint/restore cycles on a virtual
# clock; exactly-once + decision-parity oracles must pass on each.
# Failing plans are shrunk to replayable artifacts under .ledger/chaos/.
chaos:
	$(PYTHON) -m repro chaos --schedules 25 --minimize

all: install test bench report

clean:
	rm -rf build *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
