"""Benches for the online (event-driven) extension.

Not paper figures — these measure the dynamic layer built on top of the
paper's batch algorithm: event throughput of the incremental matcher
and the Erlang-style blocking behaviour under rising offered load.
"""

from repro.dynamics import ExponentialHolding, PoissonArrivals
from repro.sim.config import ScenarioConfig
from repro.stream import StreamConfig, run_stream


def test_online_simulation_throughput(benchmark):
    """Wall-clock for ~1800 arrival+departure events at moderate load."""
    config = ScenarioConfig.paper()
    stream = StreamConfig(
        horizon_s=300.0,
        arrivals=PoissonArrivals(rate_per_s=3.0),
        holding=ExponentialHolding(mean_s=120.0),
    )
    outcome = benchmark(
        lambda: run_stream(config, stream, 1, readmit=False)
    )
    assert outcome.blocking_probability < 0.05


def test_online_blocking_curve(benchmark):
    """Blocking must grow monotonically with offered load (Erlang shape)."""
    config = ScenarioConfig.paper()

    def curve():
        points = []
        for rate in (3.0, 8.0, 14.0):
            stream = StreamConfig(
                horizon_s=250.0,
                arrivals=PoissonArrivals(rate_per_s=rate),
                holding=ExponentialHolding(mean_s=180.0),
            )
            outcome = run_stream(config, stream, 2, readmit=False)
            points.append(outcome.blocking_probability)
        return points

    points = benchmark.pedantic(curve, rounds=1, iterations=1)
    assert points == sorted(points)
    assert points[-1] > points[0]
