"""Lazy churn tapes: the exogenous event stream the allocator consumes.

A tape fixes *every* event before the allocator runs: arrival times
come from the configured :class:`~repro.dynamics.arrivals.ArrivalProcess`,
each task's holding time is drawn **at arrival** (so its departure time
does not depend on where — or whether — it was admitted), and an
optional fraction of tasks makes one mid-life move to a fresh uniform
position.  Exogenous departures are what make the incremental engine
and the from-scratch reference exactly comparable: both consume the
identical event sequence, so any outcome divergence is an allocator
bug, not a feedback effect.

UE entities are materialized lazily in ``ue_id`` order through
:meth:`~repro.scale.streaming.ScenarioFrame.iter_ue_chunks` (the PR 5
machinery), so a tape over millions of arrivals holds O(active set +
one chunk) entities plus O(arrivals) scalar timestamps — never the full
population.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.dynamics.arrivals import (
    ArrivalProcess,
    ExponentialHolding,
    HoldingTimeModel,
    PoissonArrivals,
)
from repro.dynamics.events import EventKind
from repro.errors import ConfigurationError
from repro.model.geometry import Point
from repro.scale.streaming import ScenarioFrame, build_scenario_frame
from repro.sim.config import ScenarioConfig
from repro.stream.events import StreamEvent

__all__ = ["StreamConfig", "ChurnTape", "open_tape"]


@dataclass(frozen=True)
class StreamConfig:
    """Knobs of one churn tape, layered on a static :class:`ScenarioConfig`."""

    horizon_s: float = 600.0
    arrivals: ArrivalProcess = field(
        default_factory=lambda: PoissonArrivals(rate_per_s=2.0)
    )
    holding: HoldingTimeModel = field(
        default_factory=lambda: ExponentialHolding(mean_s=120.0)
    )
    #: Probability that a task makes one mid-life move to a fresh
    #: uniform position (a mobility delta on the tape).
    move_fraction: float = 0.0
    #: UE entities materialized per frame chunk.
    chunk_size: int = 4096

    def __post_init__(self) -> None:
        if self.horizon_s <= 0:
            raise ConfigurationError(
                f"horizon must be > 0, got {self.horizon_s}"
            )
        if not 0.0 <= self.move_fraction <= 1.0:
            raise ConfigurationError(
                f"move_fraction must be in [0, 1], got {self.move_fraction}"
            )
        if self.chunk_size <= 0:
            raise ConfigurationError(
                f"chunk_size must be > 0, got {self.chunk_size}"
            )


@dataclass
class ChurnTape:
    """One fully determined event tape plus the scenario skeleton.

    ``frame`` carries the BS-side deployment; :meth:`events` yields the
    tape in non-decreasing time order (one-shot — it consumes the
    frame's UE generator).  Events at equal timestamps are adjacent,
    with arrivals preceding the departures/moves that share their
    instant, so consumers can group batches by exact timestamp.
    """

    frame: ScenarioFrame
    stream: StreamConfig
    seed: int
    #: Scalar schedules as float64 arrays — 8 bytes per arrival, so a
    #: million-arrival tape stays well inside the bench's RSS cap.
    arrival_times: np.ndarray
    holding_times: np.ndarray
    move_times: dict[int, float]
    move_positions: dict[int, Point]

    @property
    def arrival_count(self) -> int:
        return len(self.arrival_times)

    @property
    def event_count(self) -> int:
        """Total events on the tape (arrivals + departures + moves)."""
        return 2 * len(self.arrival_times) + len(self.move_times)

    def events(self) -> Iterator[StreamEvent]:
        """Yield the tape lazily, materializing UE chunks on demand."""
        heap: list[tuple[float, int, StreamEvent]] = []
        sequence = 0
        chunk_size = self.stream.chunk_size
        chunks = self.frame.iter_ue_chunks(chunk_size)
        buffer: deque = deque()
        ue_id = 0
        for start in range(0, len(self.arrival_times), chunk_size):
            times = self.arrival_times[start:start + chunk_size].tolist()
            holdings = self.holding_times[start:start + chunk_size].tolist()
            for time_s, holding_s in zip(times, holdings):
                if not buffer:
                    buffer.extend(next(chunks))
                ue = buffer.popleft()
                while heap and heap[0][0] < time_s:
                    yield heapq.heappop(heap)[2]
                yield StreamEvent(
                    time_s=time_s, kind=EventKind.ARRIVAL, ue_id=ue_id,
                    ue=ue,
                )
                depart_s = time_s + holding_s
                move_s = self.move_times.get(ue_id)
                if move_s is not None and time_s < move_s < depart_s:
                    heapq.heappush(heap, (move_s, sequence, StreamEvent(
                        time_s=move_s, kind=EventKind.MOVE, ue_id=ue_id,
                        position=self.move_positions[ue_id],
                    )))
                    sequence += 1
                heapq.heappush(heap, (depart_s, sequence, StreamEvent(
                    time_s=depart_s, kind=EventKind.DEPARTURE, ue_id=ue_id,
                )))
                sequence += 1
                ue_id += 1
        while heap:
            yield heapq.heappop(heap)[2]


def open_tape(
    config: ScenarioConfig, stream: StreamConfig, seed: int
) -> ChurnTape:
    """Draw one churn tape: skeleton, arrival/holding/move schedule.

    Deterministic given ``(config, stream, seed)``.  RNG layout:
    ``seed`` drives the event schedule (arrival times, then per arrival
    its holding time and optional move draw, in arrival order);
    ``seed + 1`` drives the scenario frame, so a tape and a static
    :func:`~repro.scale.streaming.build_scenario_frame` call with
    ``seed + 1`` see the same deployment.
    """
    rng = np.random.default_rng(seed)
    arrival_times = np.asarray(
        stream.arrivals.arrival_times(stream.horizon_s, rng), dtype=float
    )
    frame = build_scenario_frame(
        config, ue_count=len(arrival_times), seed=seed + 1
    )
    holding_times = []
    move_times: dict[int, float] = {}
    move_positions: dict[int, Point] = {}
    region = frame.region
    for ue_id, time_s in enumerate(arrival_times.tolist()):
        holding = stream.holding.holding_time_s(rng)
        holding_times.append(holding)
        if stream.move_fraction and rng.random() < stream.move_fraction:
            move_s = time_s + rng.random() * holding
            move_times[ue_id] = move_s
            move_positions[ue_id] = Point(
                x=rng.uniform(region.x_min, region.x_max),
                y=rng.uniform(region.y_min, region.y_max),
            )
    return ChurnTape(
        frame=frame,
        stream=stream,
        seed=seed,
        arrival_times=arrival_times,
        holding_times=np.asarray(holding_times, dtype=float),
        move_times=move_times,
        move_positions=move_positions,
    )
