"""Experiment harness: tables, CSV emission, and the experiment registry.

Every paper artifact (DESIGN.md §3) maps to one function in this package
returning an :class:`ExperimentResult` — a named table plus free-form
notes.  The CLI and the benchmark suite both render these; EXPERIMENTS.md
records a frozen copy of the measured numbers next to the paper's claims.
"""

from __future__ import annotations

import csv
import io
import pathlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

__all__ = [
    "ExperimentResult",
    "format_table",
    "EXPERIMENTS",
    "register",
    "run_experiment",
]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Plain-text table with right-aligned numeric columns."""

    def cell(x: Any) -> str:
        if isinstance(x, float):
            return f"{x:.3f}"
        return str(x)

    str_rows = [[cell(x) for x in row] for row in rows]
    widths = [
        max(len(h), *(len(r[k]) for r in str_rows)) if str_rows else len(h)
        for k, h in enumerate(headers)
    ]
    out = []
    out.append("  ".join(h.ljust(widths[k]) for k, h in enumerate(headers)))
    out.append("  ".join("-" * widths[k] for k in range(len(headers))))
    for r in str_rows:
        out.append("  ".join(r[k].rjust(widths[k]) for k in range(len(headers))))
    return "\n".join(out)


@dataclass
class ExperimentResult:
    """One experiment's outcome: a table plus conclusions."""

    experiment_id: str  #: e.g. "T1.GEN.UB" — matches DESIGN.md §3
    title: str
    headers: List[str]
    rows: List[List[Any]]
    notes: List[str] = field(default_factory=list)
    passed: bool = True  #: whether every checked bound held

    def table(self) -> str:
        return format_table(self.headers, self.rows)

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = [f"== {self.experiment_id}: {self.title} [{status}] =="]
        parts.append(self.table())
        for n in self.notes:
            parts.append(f"  note: {n}")
        return "\n".join(parts) + "\n"

    def to_csv(self) -> str:
        """RFC-4180 CSV of the table (``\\n`` line ends on every platform).

        Cells containing commas, quotes or newlines are quoted/escaped by
        the ``csv`` module, so the output round-trips through any
        standard CSV reader.
        """
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
        w.writerow(self.headers)
        w.writerows(self.rows)
        return buf.getvalue()


#: experiment id -> zero-argument callable producing an ExperimentResult
EXPERIMENTS: Dict[str, Callable[[], ExperimentResult]] = {}


def register(experiment_id: str):
    """Decorator adding an experiment to the registry under its DESIGN id."""

    def deco(fn: Callable[..., ExperimentResult]):
        EXPERIMENTS[experiment_id] = fn
        fn.experiment_id = experiment_id  # type: ignore[attr-defined]
        return fn

    return deco


def run_experiment(
    experiment_id: str,
    *,
    ledger_dir: Optional[Union[str, pathlib.Path]] = None,
    profile_info: Optional[Dict[str, Any]] = None,
) -> ExperimentResult:
    """Run one registered experiment and return its result.

    With ``ledger_dir`` set, a ``kind="experiment"`` run record (the
    table plus pass/fail, wall time and peak RSS, see
    :mod:`repro.obs.ledger`) is written there; ``None`` (the default)
    keeps library callers write-free.

    ``profile_info`` (e.g. stack-sampler stats and the profile artifact
    path from ``repro-dbp run --sample-hz``) becomes the record's
    ``profile`` section — a never-gated field, so sampler jitter cannot
    trip ``obs regress``.
    """
    fn = EXPERIMENTS.get(experiment_id)
    if fn is None:
        raise KeyError(f"unknown experiment id: {experiment_id}")
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    if ledger_dir is not None:
        from ..obs.ledger import RunRecord, git_sha, peak_rss_kb

        record = RunRecord(
            kind="experiment",
            algorithm=experiment_id,
            generator="registry",
            config={"experiment_id": experiment_id},
            metrics={
                "passed": result.passed,
                "rows": len(result.rows),
                "columns": len(result.headers),
            },
            profile=dict(profile_info) if profile_info else None,
            wall_s=wall,
            peak_rss_kb=peak_rss_kb(),
            git=git_sha(),
        )
        record.write(ledger_dir)
    return result
