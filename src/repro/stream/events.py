"""Events on the streaming allocator's input tape.

Unlike a discrete-event queue (:mod:`repro.dynamics.events`), the
stream is *exogenous*: every event — arrival, departure, and mobility
delta — is fixed on the tape before the allocator sees it, so the
incremental engine and the from-scratch reference consume byte-identical
inputs and their outcomes are directly comparable.  Arrival events carry
the materialized UE entity; move events carry the new position.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dynamics.events import EventKind
from repro.errors import ConfigurationError
from repro.model.entities import UserEquipment
from repro.model.geometry import Point

__all__ = ["StreamEvent"]


@dataclass(frozen=True, slots=True)
class StreamEvent:
    """One timestamped tape entry concerning one UE.

    ``ue`` is set on arrivals (the full entity, drawn lazily by the
    tape), ``position`` on moves (the destination).  Departures carry
    only the id.
    """

    time_s: float
    kind: EventKind
    ue_id: int
    ue: UserEquipment | None = None
    position: Point | None = None

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ConfigurationError(
                f"event time must be >= 0, got {self.time_s}"
            )
        if self.kind is EventKind.ARRIVAL and self.ue is None:
            raise ConfigurationError(
                f"arrival event for UE {self.ue_id} must carry the entity"
            )
        if self.kind is EventKind.MOVE and self.position is None:
            raise ConfigurationError(
                f"move event for UE {self.ue_id} must carry a position"
            )
