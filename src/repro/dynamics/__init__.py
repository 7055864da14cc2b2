"""Dynamics around DMRA: arrival processes, holding times, mobility and
failures.  The churn loop that consumes them is :mod:`repro.stream`."""

from repro.dynamics.arrivals import (
    ArrivalProcess,
    BatchArrivals,
    DeterministicHolding,
    ExponentialHolding,
    HoldingTimeModel,
    PoissonArrivals,
)
from repro.dynamics.erlang import edge_server_estimate, erlang_b_blocking
from repro.dynamics.events import Event, EventKind, EventQueue
from repro.dynamics.failures import FailureOutcome, inject_bs_failures
from repro.dynamics.mobility import (
    EpochRecord,
    MobilityModel,
    MobilityOutcome,
    RandomWalk,
    RandomWaypoint,
    run_mobility,
)
from repro.dynamics.timeseries import StepSeries
from repro.dynamics.trace import (
    ArrivalTrace,
    DiurnalArrivals,
    read_trace_csv,
    write_trace_csv,
)

__all__ = [
    "ArrivalProcess",
    "ArrivalTrace",
    "DiurnalArrivals",
    "BatchArrivals",
    "DeterministicHolding",
    "EpochRecord",
    "edge_server_estimate",
    "erlang_b_blocking",
    "FailureOutcome",
    "Event",
    "EventKind",
    "EventQueue",
    "ExponentialHolding",
    "HoldingTimeModel",
    "MobilityModel",
    "MobilityOutcome",
    "PoissonArrivals",
    "RandomWalk",
    "RandomWaypoint",
    "StepSeries",
    "inject_bs_failures",
    "read_trace_csv",
    "run_mobility",
    "write_trace_csv",
]
