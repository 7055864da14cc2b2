"""Unit tests for the online loss model: ``run_stream(..., readmit=False)``.

A task the edge cannot absorb on arrival goes to the cloud and stays
there until it departs — the model ``dmra online``, the ext-blocking
sweep and the Erlang-B checks rely on.
"""

import pytest

from repro.dynamics.arrivals import (
    BatchArrivals,
    DeterministicHolding,
    ExponentialHolding,
    PoissonArrivals,
)
from repro.errors import ConfigurationError
from repro.sim.config import ScenarioConfig
from repro.stream import StreamConfig, run_stream

CONFIG = ScenarioConfig.paper()

MICRO = ScenarioConfig(
    sp_count=1,
    bs_per_sp=1,
    service_count=1,
    region_side_m=200.0,
    cru_capacity_min=20,
    cru_capacity_max=20,
    cru_demand_min=5,
    cru_demand_max=5,
    rate_demand_min_bps=1e5,
    rate_demand_max_bps=1e5,
)


def light_load(horizon=200.0):
    return StreamConfig(
        horizon_s=horizon,
        arrivals=PoissonArrivals(rate_per_s=0.5),
        holding=ExponentialHolding(mean_s=60.0),
    )


def micro_engine(readmit=False):
    """MICRO's single BS fits 4 tasks; stage 6, so 2 go to the cloud."""
    from repro.core.dmra import DMRAPolicy
    from repro.scale.streaming import build_scenario_frame
    from repro.stream import IncrementalShardEngine

    frame = build_scenario_frame(MICRO, ue_count=6, seed=1)
    engine = IncrementalShardEngine(
        shard_id=0,
        providers=frame.providers,
        base_stations=frame.base_stations,
        services=frame.services,
        region=frame.region,
        coverage_radius_m=MICRO.coverage_radius_m,
        budget=MICRO.link_budget(),
        rate_model=MICRO.rate_model_fn(),
        pricing=frame.pricing,
        policy=DMRAPolicy(pricing=frame.pricing, rho=MICRO.rho),
        readmit=readmit,
    )
    for ue in next(frame.iter_ue_chunks()):
        engine.stage(ue)
    engine.flush(0.0)
    assert engine.edge_active == 4 and engine.cloud_active == 2
    return engine


class TestOnlineBasics:
    def test_light_load_serves_everything(self):
        outcome = run_stream(CONFIG, light_load(), seed=1, readmit=False)
        assert outcome.admitted_cloud == 0
        assert outcome.blocking_probability == 0.0
        assert outcome.admitted_edge == outcome.arrivals
        assert outcome.total_profit > 0

    def test_event_conservation(self):
        """Every arrival is matched by exactly one departure event."""
        outcome = run_stream(CONFIG, light_load(), seed=2, readmit=False)
        assert outcome.events_processed == 2 * outcome.arrivals

    def test_seed_determinism(self):
        a = run_stream(CONFIG, light_load(), seed=3, readmit=False)
        b = run_stream(CONFIG, light_load(), seed=3, readmit=False)
        assert a.total_profit == b.total_profit
        assert a.edge_active.samples == b.edge_active.samples

    def test_different_seeds_differ(self):
        a = run_stream(CONFIG, light_load(), seed=3, readmit=False)
        b = run_stream(CONFIG, light_load(), seed=4, readmit=False)
        assert a.arrivals != b.arrivals or (
            a.total_profit != b.total_profit
        )

    def test_profit_by_sp_sums_to_total(self):
        outcome = run_stream(CONFIG, light_load(), seed=5, readmit=False)
        assert sum(outcome.profit_by_sp.values()) == pytest.approx(
            outcome.total_profit
        )

    def test_series_well_formed(self):
        outcome = run_stream(CONFIG, light_load(), seed=1, readmit=False)
        assert outcome.edge_active.samples[0] == (0.0, 0.0)
        assert 0.0 <= outcome.mean_rrb_utilization <= 1.0
        assert outcome.mean_edge_active >= 0.0


class TestOnlineLoadRegimes:
    def test_overload_produces_blocking(self):
        heavy = StreamConfig(
            horizon_s=300.0,
            arrivals=PoissonArrivals(rate_per_s=10.0),
            holding=ExponentialHolding(mean_s=300.0),
        )
        outcome = run_stream(CONFIG, heavy, seed=1, readmit=False)
        assert outcome.blocking_probability > 0.1
        assert outcome.rrb_utilization.peak > 0.8

    def test_blocking_increases_with_offered_load(self):
        def blocking(rate):
            stream = StreamConfig(
                horizon_s=300.0,
                arrivals=PoissonArrivals(rate_per_s=rate),
                holding=ExponentialHolding(mean_s=200.0),
            )
            return run_stream(
                CONFIG, stream, seed=7, readmit=False
            ).blocking_probability

        assert blocking(12.0) > blocking(4.0)

    def test_resources_recycle_after_departures(self):
        """With short holding times, a long run at moderate rate never
        blocks: departures keep freeing capacity."""
        stream = StreamConfig(
            horizon_s=400.0,
            arrivals=PoissonArrivals(rate_per_s=3.0),
            holding=DeterministicHolding(duration_s=10.0),
        )
        outcome = run_stream(CONFIG, stream, seed=2, readmit=False)
        assert outcome.blocking_probability == 0.0
        # Occupancy stabilizes near rate * holding = 30, far below peak
        # capacity, rather than accumulating.
        assert outcome.edge_active.peak < 80

    def test_batch_arrivals_supported(self):
        stream = StreamConfig(
            horizon_s=100.0,
            arrivals=BatchArrivals(interval_s=20.0, batch_size=15),
            holding=DeterministicHolding(duration_s=30.0),
        )
        outcome = run_stream(CONFIG, stream, seed=1, readmit=False)
        assert outcome.arrivals == 4 * 15
        assert outcome.admitted_edge > 0


class TestOnlineValidation:
    def test_invalid_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamConfig(horizon_s=0.0)

    def test_final_ledger_state_consistent(self):
        """Active edge count at the end matches edge admissions minus
        departures (implicitly checked via event conservation and the
        series' last value being >= 0)."""
        outcome = run_stream(CONFIG, light_load(), seed=9, readmit=False)
        assert outcome.edge_active.last_value >= 0
        assert outcome.cloud_active.last_value >= 0


class TestDepartureAccounting:
    """The stream engine's departure path must surface ledger drift,
    not absorb it."""

    def test_unknown_ue_departure_raises(self):
        from repro.errors import AllocationError

        with pytest.raises(AllocationError, match="not active"):
            micro_engine().depart(7)

    def test_edge_release_drift_raises(self):
        # The ledger frees a different RRB count than the engine
        # recorded for the grant: raise instead of absorbing it.
        from repro.errors import AllocationError

        engine = micro_engine()
        ue_id, _bs_id, rrbs = next(iter(engine.grant_items()))
        engine._edge_rrbs[ue_id] = rrbs + 1
        with pytest.raises(AllocationError, match="ledger drift"):
            engine.depart(ue_id)

    def test_edge_departure_returns_freed_rrbs(self):
        engine = micro_engine()
        ue_id, _bs_id, rrbs = next(iter(engine.grant_items()))
        used = engine.used_rrbs
        engine.depart(ue_id)
        assert engine.used_rrbs == used - rrbs
        assert engine.edge_active == 3

    def test_cloud_departure_frees_nothing(self):
        engine = micro_engine()
        used = engine.used_rrbs
        engine.depart(min(engine.cloud_ids))
        assert engine.used_rrbs == used
        assert engine.cloud_active == 1

    def test_ledger_conservation_check(self):
        from repro.compute.cru import LedgerPool
        from repro.errors import AllocationError
        from repro.sim.scenario import build_scenario
        from repro.stream.engine import _check_ledger_conservation

        scenario = build_scenario(CONFIG, 1, seed=1)
        ledgers = LedgerPool(scenario.network.base_stations)
        ue = scenario.network.user_equipment(0)
        bs_id = scenario.network.base_stations[0].bs_id
        ledgers.ledger(bs_id).grant(0, ue.service_id, ue.cru_demand, 3)
        total = sum(
            bs_ledger.remaining_rrbs for bs_ledger in ledgers
        ) + 3  # 3 RRBs are granted out
        _check_ledger_conservation(ledgers, total, used_rrbs=3)
        with pytest.raises(AllocationError, match="conservation"):
            _check_ledger_conservation(ledgers, total, used_rrbs=0)


class TestLossModel:
    """``readmit=False`` never re-proposes a cloud UE."""

    def test_cloud_ues_are_not_indexed(self):
        engine = micro_engine(readmit=False)
        assert engine.blocked_index_size == 0
        ue_id, _bs_id, _rrbs = next(iter(engine.grant_items()))
        engine.depart(ue_id)
        assert not engine.dirty_ids
        engine.flush(1.0)
        assert engine.edge_active == 3 and engine.cloud_active == 2
        assert engine.readmitted == 0

    def test_readmission_refills_freed_slot(self):
        engine = micro_engine(readmit=True)
        assert engine.blocked_index_size == 2
        ue_id, _bs_id, _rrbs = next(iter(engine.grant_items()))
        engine.depart(ue_id)
        assert engine.dirty_ids == engine.cloud_ids
        engine.flush(1.0)
        assert engine.edge_active == 4 and engine.cloud_active == 1
        assert engine.readmitted == 1


class TestLedgerMonitor:
    """The O(1) tripwire plus the cadenced / debug-gated full scan."""

    @staticmethod
    def _pool():
        from repro.compute.cru import LedgerPool
        from repro.sim.scenario import build_scenario

        scenario = build_scenario(CONFIG, 1, seed=1)
        ledgers = LedgerPool(scenario.network.base_stations)
        total = sum(
            bs.rrb_capacity for bs in scenario.network.base_stations
        )
        return scenario, ledgers, total

    def test_o1_drift_detected(self):
        from repro.stream.engine import LedgerMonitor
        from repro.errors import AllocationError

        _, ledgers, total = self._pool()
        monitor = LedgerMonitor(ledgers, total)
        monitor.on_grant(5)
        monitor.check(5)  # consistent
        with pytest.raises(AllocationError, match="conservation"):
            monitor.check(3)

    def test_full_scan_catches_untracked_grant(self):
        """Drift invisible to the O(1) counter — a grant made behind the
        monitor's back — is still caught by the full ledger scan."""
        from repro.stream.engine import LedgerMonitor
        from repro.errors import AllocationError

        scenario, ledgers, total = self._pool()
        monitor = LedgerMonitor(ledgers, total)
        ue = scenario.network.user_equipment(0)
        bs_id = scenario.network.base_stations[0].bs_id
        ledgers.ledger(bs_id).grant(0, ue.service_id, ue.cru_demand, 3)
        # No on_grant call: in_flight == used_rrbs == 0, so the O(1)
        # comparison passes, but forcing the scan raises.
        with pytest.raises(AllocationError, match="conservation"):
            monitor.check(0, force=True)

    def test_debug_env_forces_scan_every_check(self, monkeypatch):
        from repro.stream.engine import LedgerMonitor
        from repro.errors import AllocationError

        scenario, ledgers, total = self._pool()
        monitor = LedgerMonitor(ledgers, total, cadence=10_000)
        ue = scenario.network.user_equipment(0)
        bs_id = scenario.network.base_stations[0].bs_id
        ledgers.ledger(bs_id).grant(0, ue.service_id, ue.cru_demand, 3)
        monitor.check(0)  # cadence not reached: silent without debug
        monkeypatch.setenv("DMRA_DEBUG_LEDGER", "1")
        with pytest.raises(AllocationError, match="conservation"):
            monitor.check(0)

    def test_cadence_triggers_scan(self):
        from repro.stream.engine import LedgerMonitor
        from repro.errors import AllocationError

        scenario, ledgers, total = self._pool()
        monitor = LedgerMonitor(ledgers, total, cadence=3)
        ue = scenario.network.user_equipment(0)
        bs_id = scenario.network.base_stations[0].bs_id
        ledgers.ledger(bs_id).grant(0, ue.service_id, ue.cru_demand, 3)
        monitor.check(0)
        monitor.check(0)
        with pytest.raises(AllocationError, match="conservation"):
            monitor.check(0)  # third check hits the cadence

    def test_seeds_from_existing_grants(self):
        from repro.stream.engine import LedgerMonitor

        scenario, ledgers, total = self._pool()
        ue = scenario.network.user_equipment(0)
        bs_id = scenario.network.base_stations[0].bs_id
        ledgers.ledger(bs_id).grant(0, ue.service_id, ue.cru_demand, 3)
        monitor = LedgerMonitor(ledgers, total)
        monitor.check(3, force=True)  # in-flight seeded from the pool

    def test_invalid_cadence_rejected(self):
        from repro.stream.engine import LedgerMonitor

        _, ledgers, total = self._pool()
        with pytest.raises(ConfigurationError, match="cadence"):
            LedgerMonitor(ledgers, total, cadence=0)


class TestOnlineKernels:
    def test_kernel_parity(self):
        obj = run_stream(
            CONFIG, light_load(), seed=6, readmit=False, kernel="object"
        )
        soa = run_stream(
            CONFIG, light_load(), seed=6, readmit=False, kernel="soa"
        )
        assert obj.admitted_edge == soa.admitted_edge
        assert obj.admitted_cloud == soa.admitted_cloud
        assert obj.total_profit == soa.total_profit
        assert obj.profit_by_sp == soa.profit_by_sp

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            run_stream(
                CONFIG, light_load(), seed=1, readmit=False, kernel="simd"
            )


class TestBlockingAgainstErlangB:
    """One BS, fixed demands -> the edge is a hand-computable M/M/c/c.

    CRU capacity 20 at 5 CRUs per task gives c = 4 concurrent slots
    (radio is slack: each task needs 1 of ~55 RRBs), so blocking is
    Erlang's B(4, a) at offered load a = rate * mean holding.
    """

    def test_slots_saturate_deterministically(self):
        stream = StreamConfig(
            horizon_s=40.0,
            arrivals=PoissonArrivals(rate_per_s=0.5),
            holding=DeterministicHolding(duration_s=1000.0),
        )
        outcome = run_stream(MICRO, stream, seed=1, readmit=False)
        assert outcome.arrivals >= 4
        # Nobody departs within the horizon, so exactly the first c = 4
        # tasks fit and every later arrival is blocked.
        assert outcome.admitted_edge == 4
        assert outcome.admitted_cloud == outcome.arrivals - 4
        assert outcome.blocking_probability == pytest.approx(
            (outcome.arrivals - 4) / outcome.arrivals
        )

    def test_blocking_matches_erlang_b(self):
        from repro.dynamics.erlang import erlang_b_blocking

        stream = StreamConfig(
            horizon_s=4000.0,
            arrivals=PoissonArrivals(rate_per_s=0.5),
            holding=ExponentialHolding(mean_s=4.0),
        )
        outcome = run_stream(MICRO, stream, seed=2, readmit=False)
        expected = erlang_b_blocking(servers=4, offered_erlangs=2.0)
        assert expected == pytest.approx(0.0952, abs=1e-3)
        assert outcome.arrivals > 1000
        assert outcome.blocking_probability == pytest.approx(
            expected, abs=0.04
        )


class TestLossModelPinned:
    """The loss model's outcome on two tapes, pinned bit for bit.

    The numbers are those of the dedicated loss-model event loop this
    replay replaced (arrivals matched on arrival, cloud tasks never
    re-admitted); the stream engine with ``readmit=False`` must keep
    reproducing them exactly, profit ``repr`` included.
    """

    def test_micro_erlang_tape(self):
        stream = StreamConfig(
            horizon_s=4000.0,
            arrivals=PoissonArrivals(rate_per_s=0.5),
            holding=ExponentialHolding(mean_s=4.0),
        )
        outcome = run_stream(MICRO, stream, seed=2, readmit=False)
        assert outcome.admitted_edge == 1837
        assert outcome.admitted_cloud == 211
        assert repr(outcome.total_profit) == "70958.00124999952"

    def test_overload_tape(self):
        stream = StreamConfig(
            horizon_s=300.0,
            arrivals=PoissonArrivals(rate_per_s=10.0),
            holding=ExponentialHolding(mean_s=300.0),
        )
        outcome = run_stream(CONFIG, stream, seed=1, readmit=False)
        assert outcome.admitted_edge == 1818
        assert outcome.admitted_cloud == 1221
        assert repr(outcome.total_profit) == "41537.417039178814"
