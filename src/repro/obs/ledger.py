"""The run ledger: one machine-readable provenance record per run.

Benchmarks and CLI runs used to be write-only — free-form text under
``benchmarks/output/`` and terminal summaries nobody could diff.  The
ledger makes every run (``simulate``/``replay``/``experiment``/
``benchmark``) leave a JSON record behind in a ledger directory
(default ``.ledger/``, overridable with ``--ledger-dir`` or the
``REPRO_LEDGER_DIR`` environment variable):

- **provenance** — git SHA, schema version, run kind, wall-clock stamp;
- **identity** — algorithm, workload/generator, config dict and its
  SHA-256 hash, seed;
- **measurements** — the deterministic metrics snapshot, wall time and
  peak RSS, the stack sampler's summary (if one ran), and the
  invariant verdicts from
  :class:`~repro.obs.invariants.InvariantMonitor`.

Records are written by :class:`LedgerSink`, which speaks the same
``emit(snapshot)`` protocol as every other sink in
:mod:`repro.obs.export` — so anything that can flush metrics can feed
the ledger.

The **regression sentinel** lives here too: :func:`diff_records`
compares two records' deterministic metrics with per-metric relative
tolerances, and :func:`regress` matches a ledger directory against a
frozen baseline (``.ledger/baseline.json``), failing on cost drift,
new invariant violations, or a stale baseline record (one whose run a
current record repeats under a different config).  ``repro-dbp obs
diff`` / ``obs regress`` and
the CI gate are thin wrappers over these functions.

Wall-clock sections (``timings``, ``wall_s``, ``peak_rss_kb``, the
``profile`` section) are carried in records for humans but **never
gated on** — only quantities that are pure functions of the event
sequence participate in drift detection.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import os
import pathlib
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "LEDGER_ENV",
    "DEFAULT_LEDGER_DIR",
    "DEFAULT_TOLERANCES",
    "RunRecord",
    "LedgerSink",
    "resolve_ledger_dir",
    "git_sha",
    "config_hash",
    "read_record",
    "read_ledger",
    "read_baseline",
    "flatten_metrics",
    "Drift",
    "RegressReport",
    "diff_records",
    "regress",
    "render_drifts",
    "parse_tolerances",
]

#: environment variable redirecting ledger writes (tests point it at tmpdirs)
LEDGER_ENV = "REPRO_LEDGER_DIR"
#: ledger directory used when neither a flag nor the env var is given
DEFAULT_LEDGER_DIR = ".ledger"
#: record schema version (bump on incompatible field changes)
SCHEMA_VERSION = 1

#: metric-pattern -> relative tolerance used by the sentinel.  Patterns
#: are ``fnmatch``-style over flattened dotted keys; first match wins,
#: in most-specific-first order.  Anything unmatched defaults to exact.
DEFAULT_TOLERANCES: Dict[str, float] = {
    "metrics.cost": 1e-9,
    "metrics.util_area": 1e-9,
    "metrics.histograms.*mean": 1e-9,
    "invariants.span": 1e-9,
    "invariants.demand": 1e-9,
    "invariants.recomputed_cost": 1e-9,
    "invariants.mu": 1e-9,
}

#: flattened-key prefixes excluded from drift detection (wall-clock /
#: provenance noise, never deterministic across machines)
NONDETERMINISTIC_PREFIXES = (
    "metrics.timings",
    "metrics.telemetry",
    "profile",
    "wall_s",
    "peak_rss_kb",
)


def resolve_ledger_dir(
    explicit: Union[str, pathlib.Path, None] = None,
) -> pathlib.Path:
    """The ledger directory: explicit flag > ``REPRO_LEDGER_DIR`` > default."""
    if explicit is not None:
        return pathlib.Path(explicit)
    env = os.environ.get(LEDGER_ENV)
    if env:
        return pathlib.Path(env)
    return pathlib.Path(DEFAULT_LEDGER_DIR)


def git_sha(cwd: Union[str, pathlib.Path, None] = None) -> Optional[str]:
    """The current git commit SHA, or ``None`` outside a repo / no git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def peak_rss_kb() -> Optional[float]:
    """The process's high-water RSS in KiB on Linux, ``None`` off POSIX."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def config_hash(config: Optional[dict]) -> str:
    """A stable SHA-256 over a (JSON-able) config dict."""
    return hashlib.sha256(_canonical(config or {}).encode()).hexdigest()[:16]


@dataclass
class RunRecord:
    """One run's provenance + deterministic measurements (JSON-friendly)."""

    kind: str  #: "simulate" | "replay" | "pack" | "experiment" | "benchmark"
    algorithm: str
    generator: str  #: workload/generator/trace identity (free-form)
    config: dict = field(default_factory=dict)
    seed: Optional[int] = None
    metrics: dict = field(default_factory=dict)
    invariants: Optional[dict] = None
    profile: Optional[dict] = None
    wall_s: Optional[float] = None
    peak_rss_kb: Optional[float] = None
    git: Optional[str] = None
    created_unix: Optional[float] = None
    schema: int = SCHEMA_VERSION

    @property
    def key(self) -> Tuple[str, str, str, str]:
        """Identity used to match records against a baseline."""
        return (self.kind, self.algorithm, self.generator,
                config_hash(self.config))

    @property
    def run_id(self) -> str:
        """Content hash over the deterministic fields."""
        return hashlib.sha256(
            _canonical(
                {
                    "kind": self.kind,
                    "algorithm": self.algorithm,
                    "generator": self.generator,
                    "config": self.config,
                    "seed": self.seed,
                    "metrics": self.metrics,
                    "invariants": self.invariants,
                }
            ).encode()
        ).hexdigest()[:12]

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "kind": self.kind,
            "run_id": self.run_id,
            "algorithm": self.algorithm,
            "generator": self.generator,
            "config": self.config,
            "config_hash": config_hash(self.config),
            "seed": self.seed,
            "git": self.git,
            "created_unix": self.created_unix,
            "wall_s": self.wall_s,
            "peak_rss_kb": self.peak_rss_kb,
            "metrics": self.metrics,
            "invariants": self.invariants,
            "profile": self.profile,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        return cls(
            kind=d.get("kind", "?"),
            algorithm=d.get("algorithm", "?"),
            generator=d.get("generator", "?"),
            config=d.get("config", {}) or {},
            seed=d.get("seed"),
            metrics=d.get("metrics", {}) or {},
            invariants=d.get("invariants"),
            profile=d.get("profile"),
            wall_s=d.get("wall_s"),
            peak_rss_kb=d.get("peak_rss_kb"),
            git=d.get("git"),
            created_unix=d.get("created_unix"),
            schema=d.get("schema", SCHEMA_VERSION),
        )

    def write(
        self, ledger_dir: Union[str, pathlib.Path, None] = None
    ) -> pathlib.Path:
        """Persist this record as ``<dir>/<kind>-<run_id>.json``."""
        directory = resolve_ledger_dir(ledger_dir)
        directory.mkdir(parents=True, exist_ok=True)
        safe_kind = "".join(
            c if c.isalnum() or c in "._-" else "_" for c in self.kind
        )
        path = directory / f"{safe_kind}-{self.run_id}.json"
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        return path

    @property
    def n_violations(self) -> int:
        inv = self.invariants or {}
        return len(inv.get("violations", ()))


def read_record(path: Union[str, pathlib.Path]) -> RunRecord:
    """Load one record file; raises ``ValueError`` on damaged content."""
    path = pathlib.Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a ledger record: {exc}") from exc
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError(f"{path}: not a ledger record (no 'kind' field)")
    return RunRecord.from_dict(data)


def read_ledger(
    ledger_dir: Union[str, pathlib.Path, None] = None,
) -> List[RunRecord]:
    """All records in a ledger directory, sorted by (key, run_id).

    ``baseline.json`` (the frozen comparison target) is skipped.
    """
    directory = resolve_ledger_dir(ledger_dir)
    records: List[RunRecord] = []
    if not directory.is_dir():
        return records
    for path in sorted(directory.glob("*.json")):
        if path.name == "baseline.json":
            continue
        records.append(read_record(path))
    records.sort(key=lambda r: (r.key, r.run_id))
    return records


def read_baseline(path: Union[str, pathlib.Path]) -> List[RunRecord]:
    """Load a frozen baseline file: ``{"records": [...]}`` or a list."""
    path = pathlib.Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a baseline file: {exc}") from exc
    if isinstance(data, dict):
        data = data.get("records", [])
    if not isinstance(data, list):
        raise ValueError(f"{path}: baseline must hold a list of records")
    return [RunRecord.from_dict(d) for d in data]


class LedgerSink:
    """A :class:`~repro.obs.export.MetricsSink` that writes run records.

    Construct with the run's identity; each ``emit(snapshot)`` wraps the
    snapshot into a :class:`RunRecord` (stamping git SHA, wall time,
    peak RSS and any invariant verdicts) and persists it.  The path
    of the most recent record is kept in :attr:`last_path`.
    """

    def __init__(
        self,
        *,
        kind: str,
        algorithm: str,
        generator: str,
        config: Optional[dict] = None,
        seed: Optional[int] = None,
        ledger_dir: Union[str, pathlib.Path, None] = None,
        invariants=None,
        wall_s: Optional[float] = None,
        profile_info: Optional[dict] = None,
    ) -> None:
        self.kind = kind
        self.algorithm = algorithm
        self.generator = generator
        self.config = dict(config or {})
        self.seed = seed
        self.ledger_dir = ledger_dir
        self.invariants = invariants
        self.wall_s = wall_s
        #: extra entries merged into the record's ``profile`` section —
        #: the sampler's stats and artifact path land here.  The whole
        #: section sits under :data:`NONDETERMINISTIC_PREFIXES`, so
        #: nothing in it can ever trip the regression sentinel.
        self.profile_info = dict(profile_info or {})
        self.last_path: Optional[pathlib.Path] = None
        self._t0 = time.perf_counter()

    def emit(self, snapshot: dict) -> None:
        wall = (
            self.wall_s
            if self.wall_s is not None
            else time.perf_counter() - self._t0
        )
        verdicts = None
        if self.invariants is not None:
            verdicts = self.invariants.verdicts()
        record = RunRecord(
            kind=self.kind,
            algorithm=self.algorithm,
            generator=self.generator,
            config=self.config,
            seed=self.seed,
            metrics=snapshot,
            invariants=verdicts,
            profile=self.profile_info or None,
            wall_s=wall,
            peak_rss_kb=peak_rss_kb(),
            git=git_sha(),
            created_unix=time.time(),
        )
        self.last_path = record.write(self.ledger_dir)


# ---------------------------------------------------------------------- #
# The regression sentinel
# ---------------------------------------------------------------------- #
def flatten_metrics(record: RunRecord) -> Dict[str, float]:
    """Numeric leaves of a record's gated sections, as dotted keys.

    Only ``metrics.*`` and ``invariants.*`` participate; wall-clock
    sections (:data:`NONDETERMINISTIC_PREFIXES`) are dropped, as is the
    raw violation list (its *count* is gated instead).
    """
    flat: Dict[str, float] = {}

    def walk(prefix: str, obj) -> None:
        if any(prefix.startswith(p) for p in NONDETERMINISTIC_PREFIXES):
            return
        if isinstance(obj, bool):
            flat[prefix] = float(obj)
        elif isinstance(obj, (int, float)):
            flat[prefix] = float(obj)
        elif isinstance(obj, dict):
            for k, v in obj.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)

    walk("metrics", record.metrics)
    inv = dict(record.invariants or {})
    inv.pop("violations", None)
    walk("invariants", inv)
    flat["invariants.n_violations"] = float(record.n_violations)
    return flat


def _tolerance_for(key: str, *tolerance_maps: Dict[str, float]) -> float:
    """First match wins: earlier maps beat later ones, and within a map
    longer (more specific) patterns beat shorter ones."""
    for tolerances in tolerance_maps:
        for pattern in sorted(tolerances, key=len, reverse=True):
            if key == pattern or fnmatch.fnmatch(key, pattern):
                return tolerances[pattern]
    return 0.0


@dataclass(frozen=True, slots=True)
class Drift:
    """One metric's movement between two records."""

    metric: str
    baseline: Optional[float]
    current: Optional[float]
    rel: float  #: relative drift (inf when one side is missing)
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.rel <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "baseline": self.baseline,
            "current": self.current,
            "rel": self.rel,
            "tolerance": self.tolerance,
            "ok": self.ok,
        }


def diff_records(
    baseline: RunRecord,
    current: RunRecord,
    tolerances: Optional[Dict[str, float]] = None,
) -> List[Drift]:
    """Per-metric drift between two records (all metrics, failing first).

    The violation count is special-cased: *new* violations always fail,
    regardless of tolerance configuration.  Caller-supplied patterns
    take precedence over :data:`DEFAULT_TOLERANCES`, so a catch-all
    like ``*=0.1`` really loosens everything.
    """
    tol_maps = (
        (tolerances, DEFAULT_TOLERANCES) if tolerances
        else (DEFAULT_TOLERANCES,)
    )
    a = flatten_metrics(baseline)
    b = flatten_metrics(current)
    drifts: List[Drift] = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va is None or vb is None:
            rel = float("inf")
        elif va == vb:
            rel = 0.0
        else:
            rel = abs(vb - va) / max(1e-300, abs(va), abs(vb))
        t = _tolerance_for(key, *tol_maps)
        if key == "invariants.n_violations":
            # new violations are never tolerable; disappearing ones are
            t = float("inf") if (vb or 0.0) <= (va or 0.0) else 0.0
        drifts.append(
            Drift(metric=key, baseline=va, current=vb, rel=rel, tolerance=t)
        )
    drifts.sort(key=lambda d: (d.ok, d.metric))
    return drifts


@dataclass
class RegressReport:
    """Outcome of matching a ledger against a frozen baseline."""

    compared: List[Tuple[RunRecord, RunRecord, List[Drift]]]
    missing: List[RunRecord]  #: baseline keys with no current record
    new: List[RunRecord]  #: current records the baseline doesn't know
    #: ``(baseline, current, differing config keys)``: a baseline record
    #: with no exact counterpart whose run a current record repeats
    #: under another config — it can never gate, so it fails
    stale: List[Tuple[RunRecord, RunRecord, List[str]]]

    @property
    def failures(self) -> List[Tuple[RunRecord, Drift]]:
        return [
            (cur, d)
            for _, cur, drifts in self.compared
            for d in drifts
            if not d.ok
        ]

    @property
    def ok(self) -> bool:
        return not self.failures and not self.stale

    def render(self) -> str:
        lines: List[str] = []
        for base, cur, drifts in self.compared:
            bad = [d for d in drifts if not d.ok]
            status = "ok" if not bad else f"{len(bad)} regression(s)"
            lines.append(
                f"{cur.kind}/{cur.algorithm}/{cur.generator} "
                f"[{config_hash(cur.config)}]: {len(drifts)} metrics, "
                f"{status}"
            )
            lines.extend("  " + line for line in render_drifts(bad))
        for base, cur, keys in self.stale:
            lines.append(
                f"{base.kind}/{base.algorithm}/{base.generator} "
                f"[{config_hash(base.config)}]: STALE baseline — the current "
                f"run [{config_hash(cur.config)}] differs in config key(s) "
                f"{', '.join(keys)}; re-freeze the baseline"
            )
        for rec in self.missing:
            lines.append(
                f"{rec.kind}/{rec.algorithm}/{rec.generator}: baseline "
                "record has no current counterpart (not gated)"
            )
        for rec in self.new:
            lines.append(
                f"{rec.kind}/{rec.algorithm}/{rec.generator}: new record "
                "(absent from baseline, not gated)"
            )
        if not lines:
            lines.append("nothing to compare (empty ledger and baseline)")
        lines.append(
            "regress: PASS" if self.ok else
            f"regress: FAIL ({len(self.failures)} metric(s) drifted, "
            f"{len(self.stale)} stale baseline record(s))"
        )
        return "\n".join(lines)


def regress(
    current: Iterable[RunRecord],
    baseline: Iterable[RunRecord],
    tolerances: Optional[Dict[str, float]] = None,
) -> RegressReport:
    """Match current records against a baseline by identity key.

    Records pair up on ``(kind, algorithm, generator, config_hash)``.
    Matched pairs are compared with :func:`diff_records`.  A baseline
    record left unmatched while a current record shares its ``(kind,
    algorithm, generator)`` is *stale* — its config drifted from the
    run it stands for (e.g. a config key was added), so it would
    silently gate nothing — and fails, naming the differing keys.  Other
    unmatched records on either side are reported but do not gate
    (adding a new benchmark must not break CI; removing one is visible
    in review).
    """
    by_key: Dict[Tuple, List[RunRecord]] = {}
    for rec in baseline:
        by_key.setdefault(rec.key, []).append(rec)
    compared, new = [], []
    seen = set()
    for rec in current:
        matches = by_key.get(rec.key)
        if not matches:
            new.append(rec)
            continue
        seen.add(rec.key)
        compared.append(
            (matches[0], rec, diff_records(matches[0], rec, tolerances))
        )
    runs: Dict[Tuple, List[RunRecord]] = {}
    for rec in new:
        runs.setdefault(rec.key[:3], []).append(rec)
    missing, stale = [], []
    for key, matches in by_key.items():
        if key in seen:
            continue
        for rec in matches:
            near = runs.get(key[:3])
            if not near:
                missing.append(rec)
                continue
            diffs = [(_config_diff(rec.config, cur.config), cur) for cur in near]
            keys, cur = min(diffs, key=lambda d: len(d[0]))
            stale.append((rec, cur, keys))
    return RegressReport(
        compared=compared, missing=missing, new=new, stale=stale
    )


def _config_diff(a: dict, b: dict) -> List[str]:
    """The keys on which two config dicts disagree (absent counts)."""
    absent = object()
    return sorted(
        k for k in set(a) | set(b) if a.get(k, absent) != b.get(k, absent)
    )


def render_drifts(drifts: Iterable[Drift]) -> List[str]:
    """Terminal lines for a drift list (shared by ``obs diff``/``regress``)."""
    lines = []
    for d in drifts:
        mark = "ok " if d.ok else "DRIFT"
        lines.append(
            f"{mark} {d.metric}: {d.baseline!r} -> {d.current!r} "
            f"(rel {d.rel:.3g}, tol {d.tolerance:.3g})"
        )
    return lines


def parse_tolerances(specs: Iterable[str]) -> Dict[str, float]:
    """Parse ``PATTERN=REL`` CLI specs into a tolerance mapping."""
    out: Dict[str, float] = {}
    for spec in specs:
        pattern, sep, value = spec.partition("=")
        if not sep or not pattern:
            raise ValueError(
                f"tolerance spec {spec!r} is not of the form PATTERN=REL"
            )
        try:
            out[pattern] = float(value)
        except ValueError as exc:
            raise ValueError(
                f"tolerance spec {spec!r}: {value!r} is not a number"
            ) from exc
    return out
