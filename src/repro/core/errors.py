"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while letting
programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidItemError",
    "InvalidInstanceError",
    "CapacityExceededError",
    "PackingError",
    "SimulationError",
    "CheckpointError",
    "ClairvoyanceError",
    "AlignmentError",
]


class ReproError(Exception):
    """Base class for all library errors."""


class InvalidItemError(ReproError, ValueError):
    """An item violates the model (non-positive length, size outside (0,1], ...)."""


class InvalidInstanceError(ReproError, ValueError):
    """An instance violates the model (unsorted arrivals, duplicate ids, ...)."""


class CapacityExceededError(ReproError):
    """A placement would push a bin's momentary load above its capacity."""


class PackingError(ReproError):
    """A packing is internally inconsistent (unknown bin, item packed twice, ...)."""


class SimulationError(ReproError):
    """The simulation was driven incorrectly (time moved backwards, ...)."""


class CheckpointError(SimulationError):
    """A checkpoint cannot be used: truncated, corrupted, or wrong format.

    Subclasses :class:`SimulationError` so existing ``except
    SimulationError`` handlers keep working; raised instead of bare
    JSON, key or type errors so a damaged file is diagnosable from the
    message.
    """


class ClairvoyanceError(ReproError):
    """A clairvoyant quantity was requested in a non-clairvoyant context.

    Raised e.g. when a clairvoyant algorithm receives an item whose departure
    is hidden, or when a non-clairvoyant run is asked for departure times.
    """


class AlignmentError(ReproError, ValueError):
    """An input does not satisfy the aligned-input definition (Def. 2.1)."""
