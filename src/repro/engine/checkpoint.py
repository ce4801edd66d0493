"""Snapshot/restore of a mid-stream engine (and its algorithm).

Format
------
A checkpoint (format **v4**) is one JSON document of the run state,
never a pickle, so loading one cannot run code.  Its envelope holds
``arrivals``, ``time`` and ``cost_so_far`` at the cut; its ``state`` has
three sections:

- ``kernel`` — :meth:`~repro.core.kernel.PlacementKernel.export_state`:
  the clock, the counters, the exact float totals, the open bins with
  their residents, the active items as columns, the departure heap as
  stored, the adaptive set and the record-mode history.  Only the
  kernel knows this layout.
- ``algorithm`` — the algorithm object through a small allow-listed
  structural encoder: numbers, strings, ``None``, tuples, lists, dicts
  and sets; open bins and active items as uid references (how CDFF's
  rows and NextFit's active bin point at the restored kernel's bins);
  fit rules and thresholds as named module-level functions of
  :mod:`repro.algorithms`; algorithm classes only from there; and
  ``RandomFit``'s generator as its ``bit_generator.state``.  Anything
  else fails at save time with :class:`CheckpointError`.
- ``metrics`` — the slots of each
  :class:`~repro.engine.metrics.EngineMetrics` primitive, or ``null``.

Tuples, sets, non-string-keyed dicts and references are one-key objects
whose key starts with ``$`` (``{"$tuple": [...]}``, ``{"$bin": 7}``);
floats are written by ``repr``, so every total comes back bit for bit.

:func:`restore` validates the document, builds the engine and its
kernel through their constructors, imports the kernel state, then the
algorithm's attributes: the algorithm continues from its saved state,
not from ``reset()``.  Observers, tracers, invariant monitors and other
listeners are not captured (re-attach them), nor is the trace source:
resume it at item ``checkpoint.arrivals``, as ``repro-dbp replay
--resume`` does.  A run resumed from any cut finishes bit-identical to
the uninterrupted run (pinned by the checkpoint tests).

Formats v1 to v3 were pickles (of the pre-kernel engine, of the kernel
object graph, and of that graph with columnar items).  Their files are
recognised by their first byte and refused unread.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import sys
import types
from dataclasses import dataclass, fields
from typing import Union

from ..algorithms.base import OnlineAlgorithm
from ..core.bins import Bin
from ..core.errors import CheckpointError
from ..core.item import Item
from .loop import Engine
from .metrics import EngineMetrics

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "snapshot",
    "restore",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 4
#: the envelope's ``format`` field
FORMAT = "repro-dbp checkpoint"
_SECTIONS = ("kernel", "algorithm", "metrics")
#: the bit generators a ``$rng`` entry may name
_BIT_GENERATORS = ("PCG64", "PCG64DXSM", "Philox", "SFC64")


def _lookup(ref: str):
    """The function or class defined as ``name`` in ``module`` for
    ``ref = "module:name"``, if ``module`` is part of
    :mod:`repro.algorithms` (no other module is ever imported)."""
    module, _, name = ref.partition(":")
    if module.split(".")[:2] != ["repro", "algorithms"]:
        return None
    obj = getattr(importlib.import_module(module), name, None)
    defined = f"{getattr(obj, '__module__', '')}:{getattr(obj, '__qualname__', '')}"
    return obj if defined == ref else None


def _named(obj) -> str:
    ref = f"{obj.__module__}:{obj.__qualname__}"
    if _lookup(ref) is not obj:
        raise CheckpointError(
            f"cannot checkpoint {obj!r}: only module-level functions and "
            "classes of repro.algorithms can be named"
        )
    return ref


def _encode(value, kernel=None):
    """``value`` as JSON-ready data.  ``kernel`` is given for the
    algorithm section only: there, its open bins and active items become
    uid references, and named functions, generators and algorithm
    objects are allowed."""
    t = type(value)
    if value is None or t in (bool, int, str):
        return value
    if isinstance(value, float):
        return float(value)
    if t is list:
        return [_encode(v, kernel) for v in value]
    if t is dict and all(type(k) is str and k[:1] != "$" for k in value):
        return {k: _encode(v, kernel) for k, v in value.items()}
    if t is dict:
        return {"$dict": [
            [_encode(k, kernel), _encode(v, kernel)] for k, v in value.items()
        ]}
    if t in (tuple, set):
        return {f"${t.__name__}": [_encode(v, kernel) for v in value]}
    if kernel is not None:
        if t is Bin and kernel.is_open(value.uid):
            return {"$bin": value.uid}
        if t is Item and any(value.uid in b for b in kernel.open_bins):
            return {"$item": value.uid}
        # a Generator can exist only once numpy is loaded
        np = sys.modules.get("numpy")
        if np is not None and t is np.random.Generator:
            return {"$rng": _encode(value.bit_generator.state)}
        if t is types.FunctionType:
            return {"$function": _named(value)}
        if isinstance(value, OnlineAlgorithm):
            return {"$object": [_named(t), _encode(vars(value), kernel)]}
    raise CheckpointError(f"cannot checkpoint {t.__name__} value {value!r}")


def _decode(value, refs=None):
    """Invert :func:`_encode`.  ``refs`` maps ``("$bin", uid)`` and
    ``("$item", uid)`` to the restored kernel's objects; without it,
    references decode to ``None``."""
    if type(value) is list:
        return [_decode(v, refs) for v in value]
    if type(value) is not dict:
        return value
    if next(iter(value), "")[:1] != "$":
        return {k: _decode(v, refs) for k, v in value.items()}
    ((tag, body),) = value.items()
    if tag == "$tuple":
        return tuple(_decode(v, refs) for v in body)
    if tag == "$set":
        return {_decode(v, refs) for v in body}
    if tag == "$dict":
        return {_decode(k, refs): _decode(v, refs) for k, v in body}
    if tag in ("$bin", "$item"):
        return None if refs is None else refs[tag, body]
    if tag == "$rng" and body["bit_generator"] in _BIT_GENERATORS:
        import numpy as np

        rng = np.random.Generator(getattr(np.random, body["bit_generator"])())
        rng.bit_generator.state = _decode(body)
        return rng
    if tag == "$function" and type(_lookup(body)) is types.FunctionType:
        return _lookup(body)
    if tag == "$object":
        cls = _lookup(body[0])
        if isinstance(cls, type) and issubclass(cls, OnlineAlgorithm):
            algorithm = cls.__new__(cls)
            vars(algorithm).update(_decode(body[1], refs))
            return algorithm
    raise CheckpointError(f"{tag} entry {str(body)[:80]!r} is not allowed")


@dataclass(frozen=True)
class Checkpoint:
    """A restorable point-in-time capture of an :class:`Engine`."""

    version: int
    arrivals: int  #: items fed so far — resume the source at this index
    time: float
    cost_so_far: float
    #: the encoded ``kernel``, ``algorithm`` and ``metrics`` sections
    state: dict

    def dumps(self) -> bytes:
        doc = {"format": FORMAT, **vars(self)}
        return json.dumps(doc, separators=(",", ":")).encode()

    @classmethod
    def loads(cls, data: bytes) -> "Checkpoint":
        if data[:1] == b"\x80":  # how every protocol-2+ pickle starts
            raise CheckpointError(
                "this is a pre-v4 pickle checkpoint (format v1, v2 or v3), "
                "which is refused unread: reading a pickle can run code. "
                "Re-run the stream to write a v4 checkpoint."
            )
        try:
            doc = json.loads(data)
        except (ValueError, RecursionError) as exc:
            raise CheckpointError(
                "checkpoint data is unreadable (truncated or corrupted "
                f"file?): {type(exc).__name__}: {exc}"
            ) from exc
        if type(doc) is not dict or doc.pop("format", None) != FORMAT:
            raise CheckpointError("not a checkpoint document")
        if doc.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {doc.get('version')!r} is not "
                f"supported (expected {CHECKPOINT_VERSION})"
            )
        state = doc.get("state")
        if type(state) is not dict or not set(_SECTIONS) <= set(state):
            raise CheckpointError(
                f"checkpoint does not contain engine state {_SECTIONS}"
            )
        if set(doc) != {f.name for f in fields(cls)} or not (
            type(doc["arrivals"]) is int
            and type(doc["time"]) is type(doc["cost_so_far"]) is float
        ):
            raise CheckpointError("checkpoint envelope fields are mistyped")
        return cls(**doc)

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "Checkpoint":
        return cls.loads(pathlib.Path(path).read_bytes())


def snapshot(engine: Engine) -> Checkpoint:
    """Capture ``engine`` (including its algorithm) between events.

    An algorithm attribute the encoder does not accept raises
    :class:`CheckpointError` here, at save time.
    """
    metrics = engine.metrics
    state = {
        "kernel": _encode(engine.export_state()),
        "algorithm": _encode(engine.algorithm, engine),
        "metrics": None if metrics is None else {
            name: {s: _encode(getattr(m, s)) for s in type(m).__slots__}
            for name, m in metrics.primitives().items()
        },
    }
    return Checkpoint(CHECKPOINT_VERSION, engine.arrivals, engine.time,
                      engine.cost_so_far, state)


def _metrics(encoded: dict) -> EngineMetrics:
    metrics = EngineMetrics()
    for name, metric in metrics.primitives().items():
        for slot, value in _decode(encoded[name]).items():
            if type(value) is not type(getattr(metric, slot)):
                raise CheckpointError(f"metric {name}.{slot} is mistyped")
            setattr(metric, slot, value)
    return metrics


def restore(checkpoint: Checkpoint) -> Engine:
    """Rebuild a live engine from a checkpoint.

    The result shares nothing with the engine that produced the
    snapshot.  It has whatever metrics were captured (attached once the
    kernel state is in, so the registry reads the true open-bin count)
    but no tracer, invariant monitor or other listeners: re-attach those
    with :meth:`~repro.core.kernel.PlacementKernel.add_listener` (a
    tracer as a :class:`~repro.obs.trace.TracingListener`).
    """
    state = checkpoint.state
    try:
        kernel_state = _decode(state["kernel"])
        # first pass, references still None: the constructors below see
        # the configuration (reset(), the clairvoyance mask)
        algorithm = _decode(state["algorithm"])
        if not isinstance(algorithm, OnlineAlgorithm):
            raise CheckpointError("checkpoint holds no algorithm")
        engine = Engine(
            algorithm,
            capacity=kernel_state["capacity"],
            record=kernel_state["record"],
            record_profile=kernel_state["record_events"],
            indexed=kernel_state["indexed"],
        )
        engine.import_state(kernel_state)
        if state["metrics"] is not None:
            engine.metrics = _metrics(state["metrics"])
        refs = {}
        for b in engine.open_bins:
            refs["$bin", b.uid] = b
            refs.update((("$item", it.uid), it) for it in b.contents)
        vars(algorithm).update(vars(_decode(state["algorithm"], refs)))
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint state is malformed: {type(exc).__name__}: {exc}"
        ) from exc
    return engine


def save_checkpoint(engine: Engine, path: Union[str, pathlib.Path]) -> Checkpoint:
    """Snapshot ``engine`` to ``path``; returns the checkpoint."""
    ckpt = snapshot(engine)
    pathlib.Path(path).write_bytes(ckpt.dumps())
    if engine.metrics is not None:
        engine.metrics.on_checkpoint()
    return ckpt


def load_checkpoint(path: Union[str, pathlib.Path]) -> Engine:
    """Rebuild an engine from a checkpoint file."""
    return restore(Checkpoint.load(path))
