"""Unit tests for arrival traces and diurnal (non-homogeneous) arrivals."""

import numpy as np
import pytest

from repro.dynamics.trace import (
    ArrivalTrace,
    DiurnalArrivals,
    read_trace_csv,
    write_trace_csv,
)
from repro.errors import ConfigurationError


class TestArrivalTrace:
    def test_replay_within_horizon(self):
        trace = ArrivalTrace(times_s=(1.0, 5.0, 9.0, 20.0))
        rng = np.random.default_rng(0)
        assert trace.arrival_times(10.0, rng) == [1.0, 5.0, 9.0]
        assert trace.arrival_times(100.0, rng) == [1.0, 5.0, 9.0, 20.0]

    def test_replay_is_rng_independent(self):
        trace = ArrivalTrace(times_s=(1.0, 2.0))
        a = trace.arrival_times(10.0, np.random.default_rng(1))
        b = trace.arrival_times(10.0, np.random.default_rng(999))
        assert a == b

    def test_properties(self):
        trace = ArrivalTrace(times_s=(1.0, 2.0, 7.5))
        assert trace.count == 3
        assert trace.duration_s == 7.5
        assert ArrivalTrace(times_s=()).duration_s == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ArrivalTrace(times_s=(-1.0, 2.0))
        with pytest.raises(ConfigurationError):
            ArrivalTrace(times_s=(5.0, 2.0))
        with pytest.raises(ConfigurationError):
            ArrivalTrace(times_s=(1.0,)).arrival_times(
                0.0, np.random.default_rng(0)
            )

    def test_usable_in_online_config(self):
        from repro.dynamics import DeterministicHolding
        from repro.sim.config import ScenarioConfig
        from repro.stream import StreamConfig, run_stream

        trace = ArrivalTrace(times_s=tuple(float(t) for t in range(1, 31)))
        outcome = run_stream(
            ScenarioConfig.paper(),
            StreamConfig(
                horizon_s=60.0,
                arrivals=trace,
                holding=DeterministicHolding(duration_s=5.0),
            ),
            seed=1,
            readmit=False,
        )
        assert outcome.arrivals == 30
        assert outcome.blocking_probability == 0.0


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        original = ArrivalTrace(times_s=(0.5, 1.25, 99.0))
        path = write_trace_csv(tmp_path / "trace.csv", original.times_s)
        loaded = read_trace_csv(path)
        assert loaded.times_s == original.times_s

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time\n1.0\n")
        with pytest.raises(ConfigurationError):
            read_trace_csv(path)

    def test_malformed_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("arrival_time_s\nnot-a-number\n")
        with pytest.raises(ConfigurationError):
            read_trace_csv(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_trace_csv(tmp_path / "nope.csv")


class TestDiurnalArrivals:
    def test_rate_profile(self):
        diurnal = DiurnalArrivals(
            base_rate_per_s=1.0, peak_rate_per_s=9.0, period_s=100.0
        )
        assert diurnal.rate_at(0.0) == pytest.approx(1.0)
        assert diurnal.rate_at(50.0) == pytest.approx(9.0)  # half-period
        assert diurnal.rate_at(100.0) == pytest.approx(1.0)  # full period
        assert diurnal.rate_at(25.0) == pytest.approx(5.0)  # midpoint

    def test_arrivals_concentrate_at_peak(self):
        diurnal = DiurnalArrivals(
            base_rate_per_s=0.5, peak_rate_per_s=8.0, period_s=600.0
        )
        times = diurnal.arrival_times(600.0, np.random.default_rng(3))
        first_sixth = sum(1 for t in times if t < 100.0)
        midday = sum(1 for t in times if 250.0 <= t < 350.0)
        assert midday > 2 * first_sixth

    def test_total_volume_matches_mean_rate(self):
        diurnal = DiurnalArrivals(
            base_rate_per_s=2.0, peak_rate_per_s=6.0, period_s=500.0
        )
        # Mean rate over a full period is (base + peak) / 2 = 4/s.
        counts = [
            len(diurnal.arrival_times(500.0, np.random.default_rng(seed)))
            for seed in range(10)
        ]
        assert sum(counts) / len(counts) == pytest.approx(2000.0, rel=0.1)

    def test_constant_profile_degenerates_to_poisson_volume(self):
        diurnal = DiurnalArrivals(
            base_rate_per_s=3.0, peak_rate_per_s=3.0, period_s=100.0
        )
        times = diurnal.arrival_times(1000.0, np.random.default_rng(1))
        assert len(times) == pytest.approx(3000, rel=0.1)

    def test_seed_determinism(self):
        diurnal = DiurnalArrivals(1.0, 5.0, 200.0)
        a = diurnal.arrival_times(200.0, np.random.default_rng(7))
        b = diurnal.arrival_times(200.0, np.random.default_rng(7))
        assert a == b

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DiurnalArrivals(-1.0, 5.0)
        with pytest.raises(ConfigurationError):
            DiurnalArrivals(5.0, 2.0)
        with pytest.raises(ConfigurationError):
            DiurnalArrivals(0.0, 0.0)
        with pytest.raises(ConfigurationError):
            DiurnalArrivals(1.0, 2.0, period_s=0.0)
        with pytest.raises(ConfigurationError):
            DiurnalArrivals(1.0, 2.0).arrival_times(
                0.0, np.random.default_rng(0)
            )
