"""Arrival traces: replayable and time-varying workloads.

Two capabilities beyond the stationary Poisson process:

* **replay** — :class:`ArrivalTrace` wraps explicit timestamps (e.g.
  exported from a production system or a previous run) and plugs into
  :class:`~repro.stream.StreamConfig` like any arrival
  process; CSV read/write round-trips traces through disk;
* **diurnal load** — :class:`DiurnalArrivals` generates a
  non-homogeneous Poisson process whose rate follows a sinusoidal
  day curve (off-peak ``base_rate``, midday ``peak_rate``), via the
  standard thinning construction.  This is the workload shape MEC
  deployments actually see, and it exercises the online simulator's
  transient behaviour rather than just its steady state.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "ArrivalTrace",
    "DiurnalArrivals",
    "read_trace_csv",
    "write_trace_csv",
]


@dataclass(frozen=True)
class ArrivalTrace:
    """A fixed sequence of arrival timestamps (seconds, sorted)."""

    times_s: tuple[float, ...]

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.times_s)
        if any(t < 0 for t in times):
            raise ConfigurationError("trace timestamps must be >= 0")
        if list(times) != sorted(times):
            raise ConfigurationError("trace timestamps must be sorted")
        object.__setattr__(self, "times_s", times)

    def arrival_times(
        self, horizon_s: float, rng: np.random.Generator
    ) -> list[float]:
        """Timestamps within the horizon (the RNG is unused — replay)."""
        if horizon_s <= 0:
            raise ConfigurationError(
                f"horizon must be > 0, got {horizon_s}"
            )
        return [t for t in self.times_s if t < horizon_s]

    @property
    def count(self) -> int:
        return len(self.times_s)

    @property
    def duration_s(self) -> float:
        return self.times_s[-1] if self.times_s else 0.0


@dataclass(frozen=True, slots=True)
class DiurnalArrivals:
    """Non-homogeneous Poisson arrivals with a sinusoidal day profile.

    The instantaneous rate is::

        lambda(t) = base + (peak - base) * (1 - cos(2 pi t / period)) / 2

    i.e. ``base_rate_per_s`` at t = 0 (night) rising to
    ``peak_rate_per_s`` at half-period (midday).  Sampled by thinning a
    homogeneous process at the peak rate, the textbook-exact method.
    """

    base_rate_per_s: float
    peak_rate_per_s: float
    period_s: float = 86_400.0

    def __post_init__(self) -> None:
        if self.base_rate_per_s < 0:
            raise ConfigurationError(
                f"base rate must be >= 0, got {self.base_rate_per_s}"
            )
        if self.peak_rate_per_s < self.base_rate_per_s:
            raise ConfigurationError(
                f"peak rate {self.peak_rate_per_s} must be >= base rate "
                f"{self.base_rate_per_s}"
            )
        if self.peak_rate_per_s <= 0:
            raise ConfigurationError("peak rate must be > 0")
        if self.period_s <= 0:
            raise ConfigurationError(
                f"period must be > 0, got {self.period_s}"
            )

    def rate_at(self, t_s: float) -> float:
        """The instantaneous arrival rate ``lambda(t)``."""
        phase = (1.0 - math.cos(2.0 * math.pi * t_s / self.period_s)) / 2.0
        return self.base_rate_per_s + (
            self.peak_rate_per_s - self.base_rate_per_s
        ) * phase

    def arrival_times(
        self, horizon_s: float, rng: np.random.Generator
    ) -> list[float]:
        """Thinning: homogeneous candidates at the peak rate, each kept
        with probability ``lambda(t) / peak``."""
        if horizon_s <= 0:
            raise ConfigurationError(
                f"horizon must be > 0, got {horizon_s}"
            )
        times: list[float] = []
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / self.peak_rate_per_s))
            if t >= horizon_s:
                return times
            if rng.uniform() <= self.rate_at(t) / self.peak_rate_per_s:
                times.append(t)


def write_trace_csv(path: str | Path, times_s) -> Path:
    """Write arrival timestamps as single-column CSV."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["arrival_time_s"])
        for t in times_s:
            writer.writerow([f"{float(t):.6f}"])
    return target


def read_trace_csv(path: str | Path) -> ArrivalTrace:
    """Read a trace written by :func:`write_trace_csv`."""
    source = Path(path)
    try:
        with source.open(newline="") as handle:
            reader = csv.DictReader(handle)
            if (
                reader.fieldnames is None
                or "arrival_time_s" not in reader.fieldnames
            ):
                raise ConfigurationError(
                    f"{source}: missing 'arrival_time_s' column"
                )
            times = [float(row["arrival_time_s"]) for row in reader]
    except OSError as exc:
        raise ConfigurationError(f"cannot read {source}: {exc}") from exc
    except ValueError as exc:
        raise ConfigurationError(
            f"{source}: malformed timestamp ({exc})"
        ) from exc
    return ArrivalTrace(times_s=tuple(times))
