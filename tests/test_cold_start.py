"""Cold start: a replay or serve process loads only what it runs.

Each check runs in a fresh interpreter, since the test process itself
has long since imported everything.  The replay child and the serve
path must not pull in numpy, the experiments, the adversaries, the
offline oracles or the other subsystems they never call.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
TRACE = REPO / "examples" / "traces" / "uniform_1k.jsonl"

#: modules no replay or serve process needs at start-up
NOT_LOADED = (
    "numpy",
    "repro.experiments",
    "repro.adversary",
    "repro.offline",
    "repro.analysis",
    "repro.search",
    "repro.viz",
    "repro.testkit",
    "repro.obs.prof",
    "repro.serve.loadgen",
    "concurrent.futures.process",
)

REPLAY_PATH = """
import repro.engine.loop
import repro.workloads.io
import repro.parallel

registry = repro.parallel._registry()
repro.engine.loop.Engine(registry["BestFit"]())
repro.engine.loop.Engine(registry["HybridAlgorithm"]())
"""

SERVE_PATH = """
import repro.cli
from repro.serve.server import PlacementServer, ServeConfig

server = PlacementServer(ServeConfig(shards=4))
server._build_shards()
assert len(server.shards) == 4
"""


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it leaves its answer in ``out``."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    script = (
        "import json, sys\nout = {}\n" + code
        + "\nout['loaded'] = sorted(sys.modules)\nprint(json.dumps(out))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "code", [REPLAY_PATH, SERVE_PATH], ids=["replay", "serve"]
)
def test_start_up_loads_only_what_it_runs(code):
    loaded = set(run_fresh(code)["loaded"])
    assert [m for m in NOT_LOADED if m in loaded] == []


def test_random_fit_checkpoint_resumes_in_a_fresh_process(tmp_path):
    """The ``$rng`` entry encodes once numpy is loaded (RandomFit loads
    it) and decodes in a process that has not loaded numpy yet."""
    ckpt = tmp_path / "randomfit.ckpt"
    prelude = f"""
from repro.engine.loop import Engine
from repro.workloads.io import load_jsonl

items = list(load_jsonl({str(TRACE)!r}))
cut = len(items) // 2
"""
    straight = run_fresh(prelude + f"""
from repro.algorithms import RandomFit
from repro.engine.checkpoint import save_checkpoint

engine = Engine(RandomFit(seed=4))
out["decisions"] = [engine.feed(it).uid for it in items[:cut]]
save_checkpoint(engine, {str(ckpt)!r})
out["decisions"] += [engine.feed(it).uid for it in items[cut:]]
s = engine.finish()
out["totals"] = [s.items, s.bins_opened, s.max_open, s.cost]
""")
    resumed = run_fresh(prelude + f"""
from repro.engine.checkpoint import load_checkpoint

out["numpy_before_load"] = "numpy" in sys.modules
engine = load_checkpoint({str(ckpt)!r})
out["decisions"] = [engine.feed(it).uid for it in items[cut:]]
s = engine.finish()
out["totals"] = [s.items, s.bins_opened, s.max_open, s.cost]
""")
    assert resumed["numpy_before_load"] is False
    cut = len(straight["decisions"]) // 2
    assert resumed["decisions"] == straight["decisions"][cut:]
    assert resumed["totals"] == straight["totals"]
