"""Flamegraph exporters for :class:`repro.obs.prof.sampler.Profile`.

Three renderings of one aggregate:

- :func:`to_collapsed` — Brendan Gregg's collapsed-stack text
  (``thread;root;...;leaf count`` per line), the input format of
  ``flamegraph.pl`` and most flamegraph tooling;
- :func:`to_speedscope` — a `speedscope <https://www.speedscope.app>`_
  file (one ``sampled`` profile per thread) that drag-and-drops into
  the browser viewer;
- :func:`render_top` — a terminal table of the hottest functions with
  *self* (leaf) vs *cumulative* (anywhere-on-stack) weight, the
  profiling analogue of ``obs summarize``.

All three are deterministic: output order is fixed by (weight, label)
sorts, so the same profile always renders to identical bytes.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Dict, List, Optional, Set, Tuple

from repro.obs.export import _table
from repro.obs.prof.sampler import Frame, Profile

__all__ = [
    "SPEEDSCOPE_SCHEMA",
    "frame_label",
    "render_top",
    "to_collapsed",
    "to_speedscope",
    "top_functions",
    "write_speedscope",
]

SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


def frame_label(frame: Frame, *, short: bool = True) -> str:
    """A one-token label for a frame, safe for collapsed-stack lines.

    Semicolons separate frames in the collapsed format, so they are
    rewritten to ``:`` (the trailing count is split off the *last*
    space by flamegraph tooling, so spaces inside labels are fine).  ``short`` keeps only the
    file's basename — full paths make flamegraph cells unreadable.
    """
    if not frame.file:
        label = frame.name
    else:
        file = os.path.basename(frame.file) if short else frame.file
        label = f"{frame.name} ({file}:{frame.line})"
    return label.replace(";", ":")


def to_collapsed(profile: Profile, *, short: bool = True) -> str:
    """Render as collapsed-stack text, one ``stack count`` per line.

    The thread name is the root frame, so per-thread flame towers stay
    separate.  Lines are sorted, making the output canonical.
    """
    labels = [frame_label(f, short=short) for f in profile.frames]
    lines = []
    for stack in profile.stacks:
        root = stack.thread.replace(";", ":")
        path = ";".join([root] + [labels[i] for i in stack.frames])
        lines.append(f"{path} {stack.count}")
    return "\n".join(sorted(lines)) + ("\n" if lines else "")


def to_speedscope(profile: Profile, *, name: str = "repro-dbp profile") -> dict:
    """Render as a speedscope-format dict (one sampled profile/thread).

    Weights are sample counts; at ``hz`` samples per second a weight of
    ``hz`` is one second of on-CPU time.  The dict round-trips through
    ``json.dumps``/``json.loads`` unchanged.
    """
    frames = [
        {"name": f.name, "file": f.file, "line": f.line}
        for f in profile.frames
    ]
    profiles = []
    for thread in profile.threads:
        samples: List[List[int]] = []
        weights: List[int] = []
        for stack in profile.stacks:
            if stack.thread != thread:
                continue
            samples.append(list(stack.frames))
            weights.append(stack.count)
        profiles.append(
            {
                "type": "sampled",
                "name": thread,
                "unit": "none",
                "startValue": 0,
                "endValue": sum(weights),
                "samples": samples,
                "weights": weights,
            }
        )
    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "name": name,
        "exporter": "repro-dbp obs flame",
        "activeProfileIndex": 0 if profiles else None,
        "shared": {"frames": frames},
        "profiles": profiles,
    }


def top_functions(
    profile: Profile, n: Optional[int] = None
) -> List[Tuple[Frame, int, int]]:
    """The hottest frames as ``(frame, self, cumulative)`` rows.

    *self* counts samples where the frame was the leaf (on-CPU);
    *cumulative* counts samples where it appeared anywhere on the
    stack, counted once per sample even under recursion.  Rows sort by
    descending self weight, then cumulative, then label — ties resolve
    deterministically.
    """
    self_w: Dict[int, int] = {}
    cum_w: Dict[int, int] = {}
    for stack in profile.stacks:
        if not stack.frames:
            continue
        leaf = stack.frames[-1]
        self_w[leaf] = self_w.get(leaf, 0) + stack.count
        seen: Set[int] = set(stack.frames)
        for idx in seen:
            cum_w[idx] = cum_w.get(idx, 0) + stack.count
    rows = [
        (profile.frames[idx], self_w.get(idx, 0), cum)
        for idx, cum in cum_w.items()
    ]
    rows.sort(key=lambda r: (-r[1], -r[2], r[0].name, r[0].file, r[0].line))
    return rows[:n] if n is not None else rows


def render_top(profile: Profile, *, top: int = 20) -> str:
    """A terminal top-functions table (self vs cumulative weight)."""
    total = profile.total_weight
    rate = f"{profile.hz:g} Hz"
    if profile.delivered_hz is not None:
        rate += (
            f" requested, {profile.delivered_hz:.0f} Hz delivered "
            f"({profile.cpu_s:.2f}s CPU)"
        )
    header = (
        f"{profile.samples:,} samples at {rate} over "
        f"{profile.duration_s:.2f}s across {len(profile.threads)} thread(s)"
    )
    extras = []
    if profile.missed:
        extras.append(f"{profile.missed:,} ticks missed")
    if profile.truncated:
        extras.append(f"{profile.truncated:,} samples truncated")
    if extras:
        header += f" ({', '.join(extras)})"
    lines = [header, ""]
    if not total:
        lines.append("(no samples captured)")
        return "\n".join(lines)
    rows = []
    for frame, self_count, cum_count in top_functions(profile, top):
        location = (
            f"{os.path.basename(frame.file)}:{frame.line}"
            if frame.file
            else "-"
        )
        rows.append(
            [
                frame.name,
                location,
                f"{self_count:,}",
                f"{100.0 * self_count / total:.1f}%",
                f"{cum_count:,}",
                f"{100.0 * cum_count / total:.1f}%",
            ]
        )
    lines += _table(
        ["function", "location", "self", "self%", "cum", "cum%"], rows
    )
    return "\n".join(lines)


def write_speedscope(profile: Profile, path, *, name: str = "repro-dbp profile"):
    """Serialise :func:`to_speedscope` output to ``path``; returns it."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_speedscope(profile, name=name),
                               sort_keys=True) + "\n")
    return path
