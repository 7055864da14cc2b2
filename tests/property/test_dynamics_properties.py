"""Property-based tests for the dynamics layer and analysis helpers."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.fairness import jain_index
from repro.dynamics.arrivals import (
    DeterministicHolding,
    ExponentialHolding,
    PoissonArrivals,
)
from repro.dynamics.events import Event, EventKind, EventQueue
from repro.dynamics.timeseries import StepSeries
from repro.sim.config import ScenarioConfig
from repro.stream import StreamConfig, run_stream

RELAXED = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestEventQueueProperties:
    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        )
    )
    def test_pops_in_non_decreasing_time_order(self, times):
        queue = EventQueue()
        for ue_id, t in enumerate(times):
            queue.push(Event(t, EventKind.ARRIVAL, ue_id))
        popped = [queue.pop().time_s for _ in range(len(times))]
        assert popped == sorted(popped)
        assert not queue


class TestStepSeriesProperties:
    @given(
        samples=st.lists(
            st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    def test_time_average_within_value_range(self, samples):
        series = StepSeries("x")
        for index, value in enumerate(samples):
            series.record(float(index), value)
        average = series.time_average(float(len(samples)))
        assert min(samples) - 1e-9 <= average <= max(samples) + 1e-9

    @given(
        value=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        gaps=st.lists(
            st.floats(min_value=1e-3, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=30,
        ),
        extra=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    )
    def test_constant_series_average_is_the_constant(self, value, gaps, extra):
        # Regression: the time average of a constant series must be that
        # constant for any cutoff at or past the first sample.
        series = StepSeries("x")
        t = 0.0
        series.record(t, value)
        for gap in gaps:
            t += gap
            series.record(t, value)
        for until in (0.0, t / 2, t, t + extra):
            assert series.time_average(until) == pytest.approx(value)


class TestJainProperties:
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    def test_bounds(self, values):
        index = jain_index(values)
        assert 1.0 / len(values) - 1e-9 <= index <= 1.0 + 1e-9

    @given(
        value=st.floats(min_value=0.1, max_value=1e6),
        count=st.integers(min_value=1, max_value=20),
    )
    def test_equal_vectors_are_fair(self, value, count):
        assert abs(jain_index([value] * count) - 1.0) < 1e-9


class TestOnlineProperties:
    @RELAXED
    @given(
        rate=st.floats(min_value=0.5, max_value=6.0),
        mean_holding=st.floats(min_value=20.0, max_value=200.0),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_online_invariants(self, rate, mean_holding, seed):
        config = ScenarioConfig.paper()
        stream = StreamConfig(
            horizon_s=120.0,
            arrivals=PoissonArrivals(rate_per_s=rate),
            holding=ExponentialHolding(mean_s=mean_holding),
        )
        outcome = run_stream(config, stream, seed=seed, readmit=False)
        # Conservation: one departure scheduled per arrival, and every
        # arrival is admitted (edge or cloud) or cancelled.
        assert outcome.events_processed == 2 * outcome.arrivals
        assert outcome.admissions + outcome.cancelled == outcome.arrivals
        assert 0.0 <= outcome.blocking_probability <= 1.0
        assert outcome.total_profit >= 0.0
        assert 0.0 <= outcome.mean_rrb_utilization <= 1.0
        assert sum(outcome.profit_by_sp.values()) >= 0.0

    @RELAXED
    @given(seed=st.integers(min_value=0, max_value=50))
    def test_deterministic_holding_conserves_population(self, seed):
        config = ScenarioConfig.paper()
        stream = StreamConfig(
            horizon_s=100.0,
            arrivals=PoissonArrivals(rate_per_s=2.0),
            holding=DeterministicHolding(duration_s=15.0),
        )
        outcome = run_stream(config, stream, seed=seed, readmit=False)
        # Every task admitted at t < 85 has departed by the last event,
        # so the final active count is at most the arrivals of the last
        # holding window.
        assert outcome.edge_active.last_value <= outcome.arrivals
        assert outcome.edge_active.last_value >= 0
