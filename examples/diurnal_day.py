"""A day at the edge: diurnal load through the streaming engine.

Real MEC traffic is not stationary — it climbs through the morning,
peaks midday, and falls off at night.  This example compresses a "day"
into a 1200-second simulation with a sinusoidal arrival rate
(:class:`repro.dynamics.DiurnalArrivals`), runs DMRA online as a loss
system (blocked tasks stay in the cloud), and prints
the hour-by-hour picture: offered rate, edge occupancy, RRB
utilization, and when (if ever) the edge starts spilling to the cloud.

It also writes the arrival trace to CSV and replays it, demonstrating
the trace workflow (the replay reproduces the exact same outcome).

Run with::

    python examples/diurnal_day.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.dynamics import (
    ArrivalTrace,
    DiurnalArrivals,
    ExponentialHolding,
    read_trace_csv,
    write_trace_csv,
)
from repro.sim.config import ScenarioConfig
from repro.stream import StreamConfig, run_stream

DAY_S = 1200.0  # compressed 24 h
SLOT_S = 100.0  # one "2-hour" reporting slot
BASE_RATE = 0.5
PEAK_RATE = 9.0
HOLDING_S = 120.0


def main() -> None:
    config = ScenarioConfig.paper()
    diurnal = DiurnalArrivals(
        base_rate_per_s=BASE_RATE,
        peak_rate_per_s=PEAK_RATE,
        period_s=DAY_S,
    )
    stream = StreamConfig(
        horizon_s=DAY_S,
        arrivals=diurnal,
        holding=ExponentialHolding(mean_s=HOLDING_S),
    )
    outcome = run_stream(config, stream, 7, readmit=False)

    print(f"compressed day: base {BASE_RATE}/s, peak {PEAK_RATE}/s, "
          f"mean holding {HOLDING_S:.0f} s")
    print(f"arrivals {outcome.arrivals}, blocked "
          f"{outcome.admitted_cloud} "
          f"({outcome.blocking_probability:.1%})\n")

    print(f"{'slot':>5} {'rate/s':>7} {'mean active':>12} {'rrb util':>9}")
    samples = outcome.edge_active.samples
    util_samples = outcome.rrb_utilization.samples
    for slot_start in np.arange(0.0, DAY_S, SLOT_S):
        slot_end = slot_start + SLOT_S
        rate = diurnal.rate_at(slot_start + SLOT_S / 2)
        in_slot = [v for t, v in samples if slot_start <= t < slot_end]
        util = [v for t, v in util_samples if slot_start <= t < slot_end]
        mean_active = sum(in_slot) / len(in_slot) if in_slot else 0.0
        mean_util = sum(util) / len(util) if util else 0.0
        print(f"{int(slot_start // SLOT_S):>5} {rate:>7.1f} "
              f"{mean_active:>12.0f} {mean_util:>9.1%}")

    # Trace round trip: export the day's arrivals and replay them.
    times = diurnal.arrival_times(DAY_S, np.random.default_rng(7 + 1_000))
    with tempfile.TemporaryDirectory() as tmp:
        path = write_trace_csv(Path(tmp) / "day.csv", times)
        trace: ArrivalTrace = read_trace_csv(path)
        replayed = run_stream(
            config,
            StreamConfig(
                horizon_s=DAY_S,
                arrivals=trace,
                holding=ExponentialHolding(mean_s=HOLDING_S),
            ),
            7,
            readmit=False,
        )
    print(f"\ntrace replay: {trace.count} arrivals from CSV, "
          f"{replayed.admitted_edge} served at the edge "
          f"(blocking {replayed.blocking_probability:.1%})")
    print("The edge tracks the demand curve with a lag of one holding")
    print("time; utilization peaks right after the rate does.")


if __name__ == "__main__":
    main()
