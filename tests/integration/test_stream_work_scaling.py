"""Streaming work tracks the changed neighbourhood, not the deployment.

One short churn tape (same rate, holding times and moves) is replayed
through :class:`~repro.stream.StreamDispatcher` on two deployments of
equal BS density: the paper's 25 BSs and a 2,500-BS grid.  Every Alg. 1
run is scoped to its batch's candidate BSs, so the deterministic work
counters — Eq. 17 slack terms and ledger lookups per event — must stay
flat across the 100x larger pool.  Counting logical operations instead
of timing keeps the gate immune to machine noise.
"""

import pytest

import repro.core.dmra as dmra_mod
from repro.compute.cru import LedgerPool
from repro.dynamics.arrivals import ExponentialHolding, PoissonArrivals
from repro.sim.config import ScenarioConfig
from repro.stream import StreamConfig, StreamDispatcher, open_tape

TAPE = StreamConfig(
    horizon_s=30.0,
    arrivals=PoissonArrivals(rate_per_s=4.0),
    holding=ExponentialHolding(mean_s=10.0),
    move_fraction=0.1,
)

#: 5x5 and 50x50 BS grids at the same 300 m inter-site distance.
SMALL = ScenarioConfig.paper()
LARGE = ScenarioConfig.paper(region_side_m=15000.0, bs_per_sp=500)

#: Allowed per-event work growth from 25 to 2,500 BSs.
MAX_GROWTH = 2.0


def _work_per_event(monkeypatch, config, kernel):
    counts = {"slack_terms": 0, "ledger_lookups": 0}
    slack_term = dmra_mod.dmra_slack_term
    ledger = LedgerPool.ledger

    def counting_slack_term(*args, **kwargs):
        counts["slack_terms"] += 1
        return slack_term(*args, **kwargs)

    def counting_ledger(self, bs_id):
        counts["ledger_lookups"] += 1
        return ledger(self, bs_id)

    with monkeypatch.context() as patch:
        patch.setattr(dmra_mod, "dmra_slack_term", counting_slack_term)
        patch.setattr(LedgerPool, "ledger", counting_ledger)
        dispatcher = StreamDispatcher(open_tape(config, TAPE, seed=1),
                                      kernel=kernel)
        for event in dispatcher.events():
            dispatcher.dispatch(event)
        outcome = dispatcher.finish()
    events = outcome.events_processed
    assert events > 0 and outcome.admitted_edge > 0
    return events, {name: n / events for name, n in counts.items()}


@pytest.mark.parametrize("kernel", ["object", "soa"])
def test_per_event_work_is_flat_in_the_bs_count(monkeypatch, kernel):
    small_events, small = _work_per_event(monkeypatch, SMALL, kernel)
    large_events, large = _work_per_event(monkeypatch, LARGE, kernel)
    assert small_events == large_events  # one arrival/move schedule
    assert small["ledger_lookups"] > 0
    if kernel == "object":
        assert small["slack_terms"] > 0
    for name, per_event in large.items():
        assert per_event <= MAX_GROWTH * small[name], (
            f"{name}: {per_event:.1f}/event on {LARGE.bs_count} BSs vs "
            f"{small[name]:.1f}/event on {SMALL.bs_count} BSs"
        )
