"""Discrete-event machinery for the online simulation.

A minimal, deterministic event queue: events are ordered by timestamp
with a monotonically increasing sequence number breaking ties, so two
runs over the same event set always pop in the same order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum

from repro.errors import ConfigurationError

__all__ = ["EventKind", "Event", "EventQueue"]


class EventKind(Enum):
    """What happened at an event timestamp."""

    ARRIVAL = "arrival"
    DEPARTURE = "departure"
    #: A mobility delta: the UE is still active but changed position.
    #: Only the streaming tape (:mod:`repro.stream`) emits these.
    MOVE = "move"


@dataclass(frozen=True, slots=True)
class Event:
    """One timestamped occurrence concerning one UE."""

    time_s: float
    kind: EventKind
    ue_id: int

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ConfigurationError(
                f"event time must be >= 0, got {self.time_s}"
            )


@dataclass
class EventQueue:
    """A deterministic min-heap of events."""

    _heap: list[tuple[float, int, Event]] = field(default_factory=list)
    _sequence: int = 0

    def push(self, event: Event) -> None:
        """Insert an event; equal timestamps pop in insertion order."""
        heapq.heappush(self._heap, (event.time_s, self._sequence, event))
        self._sequence += 1

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise ConfigurationError("pop from an empty event queue")
        return heapq.heappop(self._heap)[2]

    def peek_time(self) -> float | None:
        """Timestamp of the earliest event, or ``None`` when empty."""
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
