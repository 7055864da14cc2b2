"""A clock that reads reference seconds: wall time corrected for host speed.

On a small shared machine the speed of a core can change by a factor of
two within seconds, while CPU time keeps pace with wall time and no
steal time is reported.  A run timed on the wall clock then measures the
neighbours as much as the program.  Every timed metric of the benchmark
reads this clock instead.

While the clock runs, a ``SIGALRM`` handler times a fixed pure-Python
loop (the *reference loop*) every :data:`INTERVAL_S` of wall time and
sets the clock's rate from it: a host that runs the loop 1.5x slower
than the reference makes the clock tick 1.5x slower too.  The time spent
in the handler is left out, so only the work around it is timed.

One reference second is the time the host takes for :data:`REF_RATE`
iterations of the loop.  On a 2-core Intel Xeon VM running CPython 3 at
its full speed that is about one wall second, so the figures read like
seconds on an idle machine.  They compare across runs of one interpreter
on one machine, not across interpreters.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

#: Iterations of one reference-loop sample (about 7 ms at full speed).
REF_ITERATIONS = 100_000
#: Iterations of the reference loop per reference second.
REF_RATE = 15e6
#: Wall time between two samples; a sample costs about 7% of it.
INTERVAL_S = 0.1


def reference_loop(iterations: int = REF_ITERATIONS) -> float:
    """Wall seconds the host takes for the fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i
    return time.perf_counter() - start


class RefClock:
    """Reference seconds since :meth:`start`, sampled by ``SIGALRM``."""

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        #: Reference-loop samples taken so far.
        self.samples = 0
        # (reference seconds at ``since``, ``since`` on the wall clock,
        # reference seconds per wall second), swapped as one tuple so a
        # reading interrupted by the handler stays consistent.
        self._state = (0.0, time.perf_counter(), 1.0)
        self._previous_handler = None
        self._armed = False

    def now(self) -> float:
        """Reference seconds since :meth:`start`."""
        base, since, rate = self._state
        return base + (time.perf_counter() - since) * rate

    def start(self) -> "RefClock":
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        self._state = (0.0, time.perf_counter(), self._state[2])
        self._armed = True
        self._tick()
        return self

    def stop(self) -> None:
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    @contextmanager
    def paused(self):
        """Take no samples inside the block, so it runs unperturbed.

        The clock keeps its last rate meanwhile; time nothing across it.
        """
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            self._armed = True
            self._tick()

    def _tick(self, signum=None, frame=None) -> None:
        entered = time.perf_counter()
        base, since, rate = self._state
        base += (entered - since) * rate
        loop_s = reference_loop()
        left = time.perf_counter()
        self._state = (base, left, REF_ITERATIONS / REF_RATE / loop_s)
        self.samples += 1
        if self._armed:
            # One-shot: the next sample comes a full interval after this
            # one ends, however long the loop took.
            signal.setitimer(signal.ITIMER_REAL, self.interval_s)
