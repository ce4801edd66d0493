"""Full-report generation: run every experiment, emit one Markdown file.

``repro-dbp report [-o REPORT.md]`` runs the whole registry (or a subset)
and writes a self-contained Markdown report: a verdict table up front,
then each experiment's rendered output.  Benchmarks freeze their own
copies under ``benchmarks/output/``; this is the human-readable roll-up.
"""

from __future__ import annotations

import pathlib
import time
from typing import Optional, Sequence

from .runner import EXPERIMENTS, ExperimentResult

__all__ = ["generate_report", "run_experiments"]


def run_experiments(
    ids: Optional[Sequence[str]] = None,
) -> list[ExperimentResult]:
    """Run the given experiment ids (default: the full registry, sorted)."""
    chosen = sorted(EXPERIMENTS) if ids is None else list(ids)
    results = []
    for eid in chosen:
        fn = EXPERIMENTS.get(eid)
        if fn is None:
            raise KeyError(f"unknown experiment id: {eid}")
        results.append(fn())
    return results


def generate_report(
    ids: Optional[Sequence[str]] = None,
    *,
    out_path: Optional[str | pathlib.Path] = None,
    title: str = "Reproduction report — Tight Bounds for Clairvoyant "
    "Dynamic Bin Packing (SPAA 2017)",
) -> str:
    """Run experiments and return (and optionally write) the Markdown report."""
    started = time.time()
    results = run_experiments(ids)
    elapsed = time.time() - started

    lines: list[str] = [f"# {title}", ""]
    n_pass = sum(1 for r in results if r.passed)
    lines.append(
        f"{n_pass}/{len(results)} experiments passed "
        f"(wall time {elapsed:.1f}s).  Ids map to DESIGN.md §3; "
        "paper-vs-measured commentary lives in EXPERIMENTS.md."
    )
    lines.append("")
    lines.append("| experiment | title | status |")
    lines.append("|---|---|---|")
    for r in results:
        status = "PASS" if r.passed else "**FAIL**"
        lines.append(f"| {r.experiment_id} | {r.title} | {status} |")
    lines.append("")

    for r in results:
        lines.append(f"## {r.experiment_id} — {r.title}")
        lines.append("")
        lines.append("```")
        lines.append(r.table())
        lines.append("```")
        for note in r.notes:
            # figure experiments carry the rendered figure in their notes
            if "\n" in note:
                lines.append("")
                lines.append("```")
                lines.append(note.rstrip())
                lines.append("```")
            else:
                lines.append(f"- {note}")
        lines.append("")

    text = "\n".join(lines)
    if out_path is not None:
        pathlib.Path(out_path).write_text(text)
    return text
