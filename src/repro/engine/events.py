"""Event types of the streaming engine.

The engine is a merge of two chronological streams: *arrivals* pulled
lazily from a trace source and *departures* popped from an internal heap.
Both are narrated to observers (and to the metrics layer) as the event
objects defined here.

Ordering matches the batch simulator (DESIGN.md §5): at equal times,
departures are processed before arrivals, and ties among equal-time
departures break by scheduling sequence (i.e. release order).  That order
is encoded in :meth:`Event.sort_key` — ``(time, kind, seq)`` with
``DEPARTURE < ARRIVAL`` — and the engine's heap entries use the same
triple, so a checkpointed heap replays identically after a restore.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from ..core.item import Item

__all__ = [
    "EventKind",
    "Event",
    "ArrivalEvent",
    "DepartureEvent",
]


class EventKind(IntEnum):
    """Event categories; the integer value is the tie-break priority."""

    DEPARTURE = 0  #: processed first at equal times (half-open intervals)
    ARRIVAL = 1


@dataclass(frozen=True, slots=True)
class Event:
    """Base class: something happened at ``time`` (``seq`` breaks ties)."""

    time: float
    seq: int

    kind: "EventKind" = EventKind.ARRIVAL

    @property
    def sort_key(self) -> tuple[float, int, int]:
        return (self.time, int(self.kind), self.seq)


@dataclass(frozen=True, slots=True)
class ArrivalEvent(Event):
    """An item was released and placed into ``bin_uid``.

    ``opened`` is true when the placement opened a fresh bin.
    """

    item: Item = None  # type: ignore[assignment]
    bin_uid: int = -1
    opened: bool = False
    kind: EventKind = EventKind.ARRIVAL


@dataclass(frozen=True, slots=True)
class DepartureEvent(Event):
    """Item ``uid`` left ``bin_uid``; ``closed`` when the bin emptied."""

    uid: int = -1
    bin_uid: int = -1
    size: float = 0.0
    closed: bool = False
    kind: EventKind = EventKind.DEPARTURE
