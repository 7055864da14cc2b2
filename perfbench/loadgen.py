"""Single-thread open-loop event generator.

Event ``i`` is *due* at ``t0 + tape_time_i / speedup`` whatever the
system did before it, so a slow dispatch delays every later event and
that wait is charged to them: each sojourn is measured from the due
time to the return of ``dispatch``.  One thread both generates and
dispatches, so the queue is implicit: the backlog at an event's start is
the number of later events already due.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

#: Head start so the first due time is not already in the past.
LEAD_S = 0.005


@dataclass(frozen=True)
class OpenLoopResult:
    """Per-event sojourns (seconds) plus the generator's own health."""

    sojourn_s: tuple[float, ...]
    #: Largest delay, beyond what the previous dispatch imposed, between
    #: an event's due time and its start: sleep overshoot and loop cost.
    late_max_s: float
    #: Largest number of events due but not yet started.
    backlog_max: int
    wall_s: float


def run_open_loop(
    dispatch: Callable[[object], None],
    events: Sequence,
    speedup: float,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> OpenLoopResult:
    """Release ``events`` on their tape schedule divided by ``speedup``."""
    n = len(events)
    t0 = clock() + LEAD_S
    due = [t0 + event.time_s / speedup for event in events]
    sojourn = [0.0] * n
    late_max = 0.0
    backlog_max = 0
    prev_end = t0
    next_due = 0  # first event not yet due at the last check
    for i, event in enumerate(events):
        now = clock()
        if due[i] > now:
            sleep(due[i] - now)
            now = clock()
        late = now - max(due[i], prev_end)
        if late > late_max:
            late_max = late
        while next_due < n and due[next_due] <= now:
            next_due += 1
        backlog = next_due - i - 1
        if backlog > backlog_max:
            backlog_max = backlog
        dispatch(event)
        prev_end = clock()
        sojourn[i] = prev_end - due[i]
    return OpenLoopResult(
        sojourn_s=tuple(sojourn),
        late_max_s=late_max,
        backlog_max=backlog_max,
        wall_s=prev_end - t0,
    )


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile, ``p`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]
