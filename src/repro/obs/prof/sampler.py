"""Statistical stack sampler: continuous, in-process CPU profiling.

The question the metrics and traces cannot answer is *which code* was
on-CPU when a latency budget burned.  :class:`StackSampler` answers
it with nothing but the stdlib: ``start()`` installs a ``SIGPROF``
handler and arms ``ITIMER_PROF``, so the kernel signals the process
once per ``1/hz`` seconds of CPU time it consumes (default 97 Hz —
prime, so it does not alias against periodic work).  CPython runs the
handler on the main thread between bytecodes and hands it the frame it
interrupted; the handler folds that stack into an interned aggregate.
Samples therefore follow CPU time, the clock ``items_per_ref_s`` is
measured on: pure-Python work between I/O calls is seen, and a run
that sleeps or blocks draws no samples.  Memory is bounded and
drop-free: past ``max_stacks`` unique stacks, further samples land in a
synthetic ``(truncated)`` bucket so total sample weight is always
conserved.

Scope:

- only the main thread is sampled (Python runs signal handlers there
  and nowhere else);
- one sampler may be armed per process, and ``start()`` must be called
  on the main thread;
- a C call (``bisect``, ``json`` decoding) counts as self time of the
  Python frame that made it, and ticks that fall inside one C call fold
  into one sample.

Cost model: a sampler that is not running installs nothing.  A running
one walks one stack per tick; at 97 Hz and ~20-frame stacks this is
well under 1% of a core, and the contract is frozen by
``benchmarks/bench_profiler.py`` (``profiler_on_ratio``).

The aggregate is exposed as an immutable :class:`Profile` (frame table
+ weighted collapsed stacks) which ``repro.obs.prof.flame`` renders as
flamegraph inputs and ``repro-dbp obs flame`` serves from the CLI.
"""

from __future__ import annotations

import json
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_HZ",
    "DEFAULT_MAX_STACKS",
    "Frame",
    "Profile",
    "Stack",
    "StackSampler",
    "TRUNCATED_FRAME",
    "merge_profiles",
]

#: Default sampling rate.  Prime on purpose: a rate that divides common
#: timer frequencies (50/100/250 Hz) samples the same scheduler phase
#: over and over; 97 Hz walks across it.
DEFAULT_HZ = 97.0

#: Bound on distinct (thread, stack) aggregates before overflow samples
#: collapse into the ``(truncated)`` bucket.
DEFAULT_MAX_STACKS = 10_000

PROFILE_SCHEMA = 1

#: Synthetic frame used for the overflow bucket.
TRUNCATED_FRAME = ("(truncated)", "", 0)

#: Thread name of every sampled stack: only the main thread is sampled.
MAIN_THREAD = "MainThread"

#: The sampler whose handler and timer are installed, if any.
_armed: Optional["StackSampler"] = None


@dataclass(frozen=True)
class Frame:
    """One interned code location."""

    name: str
    file: str
    line: int

    def to_dict(self) -> dict:
        return {"name": self.name, "file": self.file, "line": self.line}

    @classmethod
    def from_dict(cls, data: dict) -> "Frame":
        return cls(
            name=str(data["name"]),
            file=str(data.get("file", "")),
            line=int(data.get("line", 0)),
        )


@dataclass(frozen=True)
class Stack:
    """One aggregated call stack: root-first frame indices + weight."""

    thread: str
    frames: Tuple[int, ...]
    count: int

    def to_dict(self) -> dict:
        return {"thread": self.thread, "frames": list(self.frames),
                "count": self.count}

    @classmethod
    def from_dict(cls, data: dict) -> "Stack":
        return cls(
            thread=str(data["thread"]),
            frames=tuple(int(i) for i in data["frames"]),
            count=int(data["count"]),
        )


@dataclass(frozen=True)
class Profile:
    """An immutable sampling aggregate.

    ``frames`` is the interned frame table; each :class:`Stack` holds
    root-first indices into it.  ``samples`` counts captured ticks;
    ``truncated`` counts samples folded into the overflow bucket.
    ``missed`` is always 0 from :class:`StackSampler`; the field stays
    so every schema-1 file reads unchanged.  Weight is conserved:
    ``sum(s.count for s in stacks)`` equals the number of captured
    (thread, tick) pairs, including truncated ones.
    """

    hz: float
    samples: int
    missed: int
    truncated: int
    duration_s: float
    frames: Tuple[Frame, ...]
    stacks: Tuple[Stack, ...]

    @property
    def total_weight(self) -> int:
        return sum(stack.count for stack in self.stacks)

    @property
    def threads(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for stack in self.stacks:
            seen.setdefault(stack.thread, None)
        return tuple(seen)

    def to_dict(self) -> dict:
        return {
            "schema": PROFILE_SCHEMA,
            "hz": self.hz,
            "samples": self.samples,
            "missed": self.missed,
            "truncated": self.truncated,
            "duration_s": self.duration_s,
            "frames": [frame.to_dict() for frame in self.frames],
            "stacks": [stack.to_dict() for stack in self.stacks],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Profile":
        schema = data.get("schema")
        if schema != PROFILE_SCHEMA:
            raise ValueError(
                f"unsupported profile schema {schema!r} "
                f"(expected {PROFILE_SCHEMA})"
            )
        frames = tuple(Frame.from_dict(f) for f in data.get("frames", ()))
        stacks = tuple(Stack.from_dict(s) for s in data.get("stacks", ()))
        for stack in stacks:
            for index in stack.frames:
                if not 0 <= index < len(frames):
                    raise ValueError(
                        f"profile stack references frame {index} outside "
                        f"the {len(frames)}-entry frame table"
                    )
        return cls(
            hz=float(data.get("hz", DEFAULT_HZ)),
            samples=int(data.get("samples", 0)),
            missed=int(data.get("missed", 0)),
            truncated=int(data.get("truncated", 0)),
            duration_s=float(data.get("duration_s", 0.0)),
            frames=frames,
            stacks=stacks,
        )

    def write(self, path) -> Path:
        """Serialise to ``path`` as deterministic JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        return path

    @classmethod
    def read(cls, path) -> "Profile":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def stats(self) -> dict:
        """A small scalar summary suitable for ledger records."""
        return {
            "hz": self.hz,
            "samples": self.samples,
            "missed": self.missed,
            "truncated": self.truncated,
            "duration_s": round(self.duration_s, 6),
            "unique_stacks": len(self.stacks),
            "threads": len(self.threads),
        }


class StackSampler:
    """CPU-time statistical profiler on ``ITIMER_PROF``.

    Usage::

        sampler = StackSampler(hz=97.0)
        sampler.start()
        ...
        profile = sampler.stop()
        profile.write("run.prof.json")

    or as a context manager, after which :attr:`profile` holds the
    result.  ``snapshot()`` produces an intermediate :class:`Profile`
    without stopping — that is what the serve ``profile`` admin verb
    returns while the service is live.

    ``start()`` must run on the main thread, and only one sampler may be
    armed per process (there is one ``ITIMER_PROF``); either mistake
    raises :class:`RuntimeError`.
    """

    def __init__(
        self,
        hz: float = DEFAULT_HZ,
        *,
        max_stacks: int = DEFAULT_MAX_STACKS,
    ) -> None:
        if hz <= 0:
            raise ValueError(f"sample rate must be positive, got {hz!r}")
        if max_stacks < 1:
            raise ValueError(f"max_stacks must be >= 1, got {max_stacks!r}")
        self.hz = float(hz)
        self.max_stacks = int(max_stacks)
        self._previous_handler = None
        self._started_at: Optional[float] = None
        self._stopped_after: float = 0.0
        # Interning tables.  Keys hold code objects alive, which is the
        # point: identity stays valid for the run's duration.
        self._frame_index: Dict[object, int] = {}
        self._frames: List[Tuple[str, str, int]] = []
        self._counts: Dict[Tuple[str, Tuple[int, ...]], int] = {}
        self._samples = 0
        self._truncated_count = 0
        self.profile: Optional[Profile] = None

    # -- lifecycle -----------------------------------------------------

    @property
    def running(self) -> bool:
        return _armed is self

    def start(self) -> "StackSampler":
        global _armed
        if _armed is self:
            return self
        if _armed is not None:
            raise RuntimeError(
                "a StackSampler is already armed in this process; "
                "ITIMER_PROF allows one at a time"
            )
        try:
            previous = signal.signal(signal.SIGPROF, self._on_tick)
        except ValueError:  # signal.signal refuses other threads
            raise RuntimeError(
                "StackSampler.start() must be called from the main thread"
            ) from None
        # restart interrupted system calls instead of failing them
        signal.siginterrupt(signal.SIGPROF, False)
        self._previous_handler = previous
        _armed = self
        self._started_at = time.perf_counter()
        interval = 1.0 / self.hz
        signal.setitimer(signal.ITIMER_PROF, interval, interval)
        return self

    def stop(self) -> Profile:
        """Stop sampling (idempotent) and return the final profile."""
        global _armed
        if _armed is self:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            previous = self._previous_handler
            # None: the prior handler was not installed from Python
            signal.signal(
                signal.SIGPROF,
                signal.SIG_DFL if previous is None else previous,
            )
            _armed = None
            self._stopped_after = time.perf_counter() - self._started_at
            self._started_at = None
        self.profile = self.snapshot()
        return self.profile

    def __enter__(self) -> "StackSampler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- sampling ------------------------------------------------------

    def _on_tick(self, signum, frame) -> None:
        """The ``SIGPROF`` handler: fold the interrupted main-thread
        stack into the aggregate."""
        if frame is None:
            return
        key = (MAIN_THREAD, self._collapse(frame))
        counts = self._counts
        if key in counts:
            counts[key] += 1
        elif len(counts) < self.max_stacks:
            counts[key] = 1
        else:
            overflow = (MAIN_THREAD, (self._intern_truncated(),))
            counts[overflow] = counts.get(overflow, 0) + 1
            self._truncated_count += 1
        self._samples += 1

    def _collapse(self, frame) -> Tuple[int, ...]:
        """Walk a frame chain leaf->root, returning root-first indices."""
        indices: List[int] = []
        index = self._frame_index
        frames = self._frames
        while frame is not None:
            code = frame.f_code
            idx = index.get(code)
            if idx is None:
                idx = len(frames)
                frames.append(
                    (code.co_name, code.co_filename, code.co_firstlineno)
                )
                index[code] = idx
            indices.append(idx)
            frame = frame.f_back
        indices.reverse()
        return tuple(indices)

    def _intern_truncated(self) -> int:
        idx = self._frame_index.get(TRUNCATED_FRAME)
        if idx is None:
            idx = len(self._frames)
            self._frames.append(TRUNCATED_FRAME)
            self._frame_index[TRUNCATED_FRAME] = idx
        return idx

    # -- export --------------------------------------------------------

    def snapshot(self) -> Profile:
        """An immutable copy of the aggregate so far (safe while live).

        A tick runs between bytecodes, never inside a C-level copy, so
        ``dict(...)`` and ``list(...)`` read a consistent table; the
        frame list is copied after the counts, so it covers every index
        they hold."""
        samples = self._samples
        truncated = self._truncated_count
        counts = dict(self._counts)
        frames = tuple(Frame(n, f, ln) for n, f, ln in list(self._frames))
        if self._started_at is not None:
            duration = time.perf_counter() - self._started_at
        else:
            duration = self._stopped_after
        stacks = tuple(
            Stack(thread=thread, frames=stack, count=count)
            for (thread, stack), count in sorted(counts.items())
        )
        return Profile(
            hz=self.hz,
            samples=samples,
            missed=0,
            truncated=truncated,
            duration_s=duration,
            frames=frames,
            stacks=stacks,
        )


def merge_profiles(profiles: Sequence[Profile]) -> Profile:
    """Merge profiles (e.g. across chaos restarts) into one aggregate.

    Frame tables are re-interned by (name, file, line); stack weights
    for identical (thread, stack) keys are summed.  ``hz`` is taken
    from the first profile; callers should only merge same-rate runs.
    """
    if not profiles:
        return Profile(hz=DEFAULT_HZ, samples=0, missed=0, truncated=0,
                       duration_s=0.0, frames=(), stacks=())
    frame_index: Dict[Tuple[str, str, int], int] = {}
    frames: List[Frame] = []
    counts: Dict[Tuple[str, Tuple[int, ...]], int] = {}
    for profile in profiles:
        remap = []
        for frame in profile.frames:
            key = (frame.name, frame.file, frame.line)
            idx = frame_index.get(key)
            if idx is None:
                idx = len(frames)
                frames.append(frame)
                frame_index[key] = idx
            remap.append(idx)
        for stack in profile.stacks:
            key = (stack.thread, tuple(remap[i] for i in stack.frames))
            counts[key] = counts.get(key, 0) + stack.count
    stacks = tuple(
        Stack(thread=thread, frames=stack, count=count)
        for (thread, stack), count in sorted(counts.items())
    )
    return Profile(
        hz=profiles[0].hz,
        samples=sum(p.samples for p in profiles),
        missed=sum(p.missed for p in profiles),
        truncated=sum(p.truncated for p in profiles),
        duration_s=sum(p.duration_s for p in profiles),
        frames=tuple(frames),
        stacks=stacks,
    )
