"""Online DMRA: tasks arrive, hold resources, and depart over time.

The paper's figures are batch snapshots; this example replays churn
tapes through the streaming engine the paper's §V motivation implies
("adjust its resource allocation strategy in real time") as a loss
system — a task the edge cannot absorb on arrival stays in the cloud —
and produces an Erlang-style blocking curve: offered load (arrival rate
x holding time) against the probability that a task is blocked.

Run with::

    python examples/online_arrivals.py
"""

from repro.dynamics import ExponentialHolding, PoissonArrivals
from repro.sim.config import ScenarioConfig
from repro.stream import StreamConfig, run_stream

HORIZON_S = 400.0
HOLDING_S = 150.0
SEEDS = (1, 2, 3)


def main() -> None:
    config = ScenarioConfig.paper()

    print("Erlang-style blocking curve for the paper's deployment")
    print(f"(horizon {HORIZON_S:.0f} s, exponential holding "
          f"{HOLDING_S:.0f} s, mean of {len(SEEDS)} seeds)\n")
    print(f"{'rate/s':>7} {'offered':>8} {'blocking':>9} {'rrb util':>9} "
          f"{'profit/s':>9} {'peak act':>9}")

    for rate in (2.0, 4.0, 6.0, 8.0, 10.0, 12.0):
        blocking, util, rate_profit, peak = 0.0, 0.0, 0.0, 0.0
        for seed in SEEDS:
            stream = StreamConfig(
                horizon_s=HORIZON_S,
                arrivals=PoissonArrivals(rate_per_s=rate),
                holding=ExponentialHolding(mean_s=HOLDING_S),
            )
            outcome = run_stream(config, stream, seed, readmit=False)
            blocking += outcome.blocking_probability / len(SEEDS)
            util += outcome.mean_rrb_utilization / len(SEEDS)
            rate_profit += outcome.profit_rate_per_s / len(SEEDS)
            peak += outcome.edge_active.peak / len(SEEDS)
        offered = rate * HOLDING_S
        print(f"{rate:>7.1f} {offered:>8.0f} {blocking:>9.1%} "
              f"{util:>9.1%} {rate_profit:>9.1f} {peak:>9.0f}")

    print("\nReading the curve: below ~900 offered tasks the edge absorbs")
    print("everything (the static figures' saturation point, rediscovered")
    print("dynamically); past it, blocking rises while profit/s flattens —")
    print("the extra demand is simply forwarded to the cloud.")


if __name__ == "__main__":
    main()
