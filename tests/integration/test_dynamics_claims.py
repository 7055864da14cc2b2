"""Integration tests for the dynamic extensions' headline claims."""

import pytest

from repro.baselines.dcsp import DCSPPolicy
from repro.dynamics.arrivals import ExponentialHolding, PoissonArrivals
from repro.dynamics.mobility import RandomWaypoint, run_mobility
from repro.sim.config import ScenarioConfig
from repro.stream import StreamConfig, run_stream

CONFIG = ScenarioConfig.paper()


class TestOnlineClaims:
    def test_erlang_blocking_curve_monotone(self):
        """Blocking grows with offered load across several seeds."""
        def mean_blocking(rate):
            total = 0.0
            for seed in range(3):
                stream = StreamConfig(
                    horizon_s=250.0,
                    arrivals=PoissonArrivals(rate_per_s=rate),
                    holding=ExponentialHolding(mean_s=180.0),
                )
                total += run_stream(
                    CONFIG, stream, seed=seed, readmit=False
                ).blocking_probability
            return total / 3

        curve = [mean_blocking(rate) for rate in (3.0, 7.0, 12.0)]
        assert curve == sorted(curve)
        assert curve[-1] > 0.05

    def test_dmra_policy_beats_dcsp_policy_online(self):
        """The online profit rate under the DMRA policy dominates the
        DCSP policy on the same arrival sample paths."""
        stream = StreamConfig(
            horizon_s=300.0,
            arrivals=PoissonArrivals(rate_per_s=6.0),
            holding=ExponentialHolding(mean_s=180.0),
        )
        dmra_total = 0.0
        dcsp_total = 0.0
        for seed in range(3):
            dmra_total += run_stream(
                CONFIG, stream, seed=seed, readmit=False
            ).total_profit
            dcsp_total += run_stream(
                CONFIG, stream, seed=seed, policy=DCSPPolicy(),
                readmit=False,
            ).total_profit
        assert dmra_total > dcsp_total

    def test_profit_rate_saturates_with_load(self):
        """Doubling an already saturating arrival rate must not double
        profit throughput: the edge is the bottleneck."""
        def profit_rate(rate):
            stream = StreamConfig(
                horizon_s=300.0,
                arrivals=PoissonArrivals(rate_per_s=rate),
                holding=ExponentialHolding(mean_s=250.0),
            )
            return run_stream(
                CONFIG, stream, seed=1, readmit=False
            ).profit_rate_per_s

        saturating = profit_rate(8.0)
        doubled = profit_rate(16.0)
        assert doubled < 2.0 * saturating * 0.8


class TestMobilityClaims:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_reoptimization_dominates_sticky(self, seed):
        kwargs = dict(
            config=CONFIG,
            ue_count=300,
            epochs=8,
            epoch_duration_s=30.0,
            seed=seed,
            mobility=RandomWaypoint(speed_min_mps=1.0, speed_max_mps=4.0),
        )
        sticky = run_mobility(sticky=True, **kwargs)
        fresh = run_mobility(sticky=False, **kwargs)
        assert fresh.mean_profit >= sticky.mean_profit
        assert fresh.total_handovers >= sticky.total_handovers

    def test_handover_rate_grows_with_speed(self):
        from repro.dynamics.mobility import RandomWalk

        def rate(speed):
            return run_mobility(
                CONFIG,
                ue_count=300,
                epochs=8,
                epoch_duration_s=30.0,
                seed=3,
                mobility=RandomWalk(speed_mps=speed),
            ).handover_rate

        assert rate(40.0) > rate(2.0)

    def test_sticky_never_drops_static_population(self):
        from repro.dynamics.mobility import RandomWalk

        outcome = run_mobility(
            CONFIG,
            ue_count=300,
            epochs=5,
            epoch_duration_s=30.0,
            seed=4,
            mobility=RandomWalk(speed_mps=0.0),
        )
        assert outcome.total_handovers == 0
        assert all(r.drops_to_cloud == 0 for r in outcome.records)
