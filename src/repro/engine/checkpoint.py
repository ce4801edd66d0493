"""Snapshot/restore of a mid-stream engine (and its algorithm).

Format
------
A checkpoint is a single pickle blob wrapped in a small versioned
envelope (:class:`Checkpoint`).  The engine's
:class:`~repro.core.kernel.PlacementKernel` (which owns the clock, the
open bins, the departure heap, the counters, the adaptive-item set and
record-mode history) and the algorithm object are pickled **together**
in one object graph: algorithms legitimately hold references
to live :class:`~repro.core.bins.Bin` objects (CDFF's rows, NextFit's
active bin), and a joint pickle is what preserves that identity —
pickling them separately would silently duplicate bins and desynchronise
the restored run.

What is captured: the kernel (with the algorithm inside it, and the
run's totals — cost, arrivals, departures, bins opened, ``max_open``,
load, peak load, load integral — which the kernel owns), the ``record``
flag and optional metrics.  What is *not*: the kernel's open-bin index
(derived state; only whether there was one is recorded, and the restored
kernel gets a fresh index over its open bins), observers (may close over
file handles; re-``subscribe`` after restore), listeners and the trace
source — the caller resumes the stream at item index
``checkpoint.arrivals`` (``repro-dbp replay --resume`` does exactly
that, see the CLI).

Version history: **v1** pickled the pre-kernel engine's flat attribute
dict (PR 1); **v2** pickles the kernel-backed state; **v3** (current)
additionally lifts every :class:`~repro.core.item.Item` out of the
object graph into four struct-of-arrays columns stored next to the blob
(``Checkpoint.columns``), using the pickle ``persistent_id`` hook — the
blob shrinks to pure kernel/algorithm state and restoring rebuilds each
distinct item exactly once.  v2 files remain loadable (the columns field
is simply absent); v1 files are rejected with an explicit error rather
than a pickle/attribute failure.  Blobs written while the engine still
kept its own copy of the totals carry an extra ``accounting`` entry (a
pickled ``repro.engine.accounting.RunningAccounting``, a class that no
longer exists): the unpickler maps it to :class:`_LegacyAccounting`,
:func:`restore` seeds the kernel's totals from it, and the kernel moves
their per-bin peak/item-count dicts onto the restored open bins.

Restoring never calls ``algorithm.reset()`` — the algorithm continues
from its pickled private state.  The parity guarantee carries over: a
run resumed from any mid-stream checkpoint finishes with a final cost
bit-identical to the uninterrupted run (pinned by the checkpoint tests).
"""

from __future__ import annotations

import io
import math
import pathlib
import pickle
from array import array
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from ..core.errors import CheckpointError, SimulationError
from ..core.item import Item, item_view
from .loop import Engine

__all__ = [
    "CHECKPOINT_VERSION",
    "COMPAT_VERSIONS",
    "Checkpoint",
    "CheckpointError",
    "snapshot",
    "restore",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 3
#: versions :meth:`Checkpoint.loads` accepts (v2 blobs carry no columns)
COMPAT_VERSIONS = (2, 3)

#: engine attributes captured in a snapshot, in a stable order
_STATE_ATTRS = (
    "_kernel",  # owns algorithm, bins, heap, totals, record history
    "record",
    "metrics",
)

#: kernel totals an old blob's ``accounting`` entry seeds on restore
_LEGACY_TOTALS = (
    "arrivals",
    "departures",
    "bins_opened",
    "max_open",
    "load",
    "peak_load",
    "util_area",
)

_NAN = math.nan


class _ColumnPickler(pickle.Pickler):
    """Extract every :class:`Item` into struct-of-arrays columns.

    ``persistent_id`` intercepts items during the joint engine pickle
    and replaces each one with a row number; equal rows deduplicate, so
    an item referenced from several places (a bin's contents *and* the
    record history, say) costs 28 bytes once.  Everything else pickles
    normally — bins, algorithms and the kernel keep their exact object
    graph, which is what preserves shared-bin identity on restore.
    """

    def __init__(self, buf, protocol: int) -> None:
        super().__init__(buf, protocol)
        self._rows: dict[tuple, int] = {}
        self.arrivals = array("d")
        self.departures = array("d")  # NaN encodes an unknown departure
        self.sizes = array("d")
        self.uids = array("q")

    def persistent_id(self, obj):
        if type(obj) is Item:
            key = (obj.arrival, obj.departure, obj.size, obj.uid)
            row = self._rows.get(key)
            if row is None:
                row = len(self._rows)
                self._rows[key] = row
                self.arrivals.append(obj.arrival)
                self.departures.append(
                    _NAN if obj.departure is None else obj.departure
                )
                self.sizes.append(obj.size)
                self.uids.append(obj.uid)
            return row
        return None

    def columns(self) -> Tuple[array, array, array, array]:
        return (self.arrivals, self.departures, self.sizes, self.uids)


class _LegacyAccounting:
    """Unpickling stand-in for the engine's former ``RunningAccounting``.

    Carries only the pickled state dict, whose totals :func:`restore`
    copies into the kernel.
    """

    def __setstate__(self, state: dict) -> None:
        self.state = state


class _ColumnUnpickler(pickle.Unpickler):
    """Rebuild extracted items from their columns, one object per row.

    ``columns`` is ``None`` for v2 blobs, which carry their items inline.
    """

    def __init__(self, buf, columns) -> None:
        super().__init__(buf)
        arrivals, departures, sizes, uids = columns or ((), (), (), ())
        self._items = [
            item_view(
                arrivals[k],
                None if departures[k] != departures[k] else departures[k],
                sizes[k],
                uids[k],
            )
            for k in range(len(arrivals))
        ]

    def find_class(self, module, name):
        if (module, name) == ("repro.engine.accounting", "RunningAccounting"):
            return _LegacyAccounting
        return super().find_class(module, name)

    def persistent_load(self, pid):
        try:
            return self._items[pid]
        except (TypeError, IndexError) as exc:
            raise CheckpointError(
                f"checkpoint columns do not cover item row {pid!r}"
            ) from exc


@dataclass(frozen=True)
class Checkpoint:
    """A restorable point-in-time capture of an :class:`Engine`."""

    version: int
    arrivals: int  #: items fed so far — resume the source at this index
    time: float
    cost_so_far: float
    blob: bytes  #: joint pickle of engine state + algorithm
    #: v3 struct-of-arrays item columns (arrivals, departures, sizes,
    #: uids) referenced by the blob's persistent ids; ``None`` on v2
    columns: Optional[Tuple[array, array, array, array]] = field(
        default=None
    )

    # ------------------------------------------------------------------ #
    def dumps(self) -> bytes:
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def loads(cls, data: bytes) -> "Checkpoint":
        try:
            ckpt = pickle.loads(data)
        except Exception as exc:
            # a truncated or corrupted file surfaces as any of half a
            # dozen pickle-layer exceptions; translate them all into one
            # diagnosable error instead of a bare UnpicklingError
            raise CheckpointError(
                "checkpoint data is unreadable (truncated or corrupted "
                f"file?): {type(exc).__name__}: {exc}"
            ) from exc
        if not isinstance(ckpt, cls):
            raise CheckpointError(
                f"not a checkpoint payload: {type(ckpt).__name__}"
            )
        if ckpt.version not in COMPAT_VERSIONS:
            if ckpt.version == 1:
                raise CheckpointError(
                    "checkpoint format v1 (pre-kernel engine state) is no "
                    "longer loadable: this version stores the unified "
                    f"placement kernel as format v{CHECKPOINT_VERSION}. "
                    "Re-run the stream to write a fresh checkpoint."
                )
            raise CheckpointError(
                f"checkpoint version {ckpt.version} is not supported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        return ckpt

    def save(self, path: Union[str, pathlib.Path]) -> None:
        pathlib.Path(path).write_bytes(self.dumps())

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "Checkpoint":
        return cls.loads(pathlib.Path(path).read_bytes())


def snapshot(engine: Engine) -> Checkpoint:
    """Capture ``engine`` (including its algorithm) mid-stream.

    The pending-bin protocol guarantees snapshots only make sense between
    events; taking one during a ``place()`` call is a caller error.
    """
    if engine._kernel._pending_bin is not None:
        raise SimulationError("cannot snapshot mid-placement")
    state = {name: getattr(engine, name) for name in _STATE_ATTRS}
    buf = io.BytesIO()
    pickler = _ColumnPickler(buf, pickle.HIGHEST_PROTOCOL)
    pickler.dump(state)
    return Checkpoint(
        version=CHECKPOINT_VERSION,
        arrivals=engine.kernel.arrivals,
        time=engine.time,
        cost_so_far=engine.cost_so_far,
        blob=buf.getvalue(),
        columns=pickler.columns(),
    )


def restore(checkpoint: Checkpoint) -> Engine:
    """Rebuild a live engine from a checkpoint.

    The result is fully independent of the engine that produced the
    snapshot (the blob round-trip deep-copies everything), with no
    observers, no tracer, no extra listeners, and whatever metrics were
    captured.  The engine rejoins the kernel's listeners only when
    metrics came back with it.
    Re-attach observability via
    :meth:`~repro.engine.loop.Engine.attach_tracer` /
    :meth:`~repro.engine.loop.Engine.attach_listener`.
    """
    # v3 blobs reference item rows via persistent ids; v2 blobs (from
    # before the columnar data plane) carry their items inline — the
    # upgrade path is read-only
    columns = getattr(checkpoint, "columns", None)
    try:
        state = _ColumnUnpickler(io.BytesIO(checkpoint.blob), columns).load()
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(
            "checkpoint blob is unreadable (truncated or corrupted "
            f"file?): {type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(state, dict) or not set(_STATE_ATTRS) <= set(state):
        raise CheckpointError(
            "checkpoint blob does not contain engine state "
            f"(expected keys {_STATE_ATTRS})"
        )
    kernel = state["_kernel"]
    legacy = state.get("accounting")
    if legacy is not None:
        for name in _LEGACY_TOTALS:
            setattr(kernel, name, legacy.state[name])
    engine = object.__new__(Engine)
    engine._kernel = kernel
    engine.record = state["record"]
    engine._observers = []
    engine._listening = False
    engine.tracer = None
    engine.invariants = None  # monitors, like observers, are re-attached
    engine.metrics = state["metrics"]  # rejoins the listeners if metered
    return engine


def save_checkpoint(engine: Engine, path: Union[str, pathlib.Path]) -> Checkpoint:
    """Snapshot ``engine`` to ``path``; returns the checkpoint."""
    ckpt = snapshot(engine)
    ckpt.save(path)
    if engine.metrics is not None:
        engine.metrics.on_checkpoint()
    return ckpt


def load_checkpoint(path: Union[str, pathlib.Path]) -> Engine:
    """Rebuild an engine from a checkpoint file."""
    return restore(Checkpoint.load(path))
