"""SoA kernel parity: bit-identical to the object engine, by property.

The SoA kernel (:class:`repro.core.soa.SoAMatchingEngine`) promises a
**bit-identical** assignment to the object engine for any scenario the
object engine accepts under a plain DMRA policy — same grants tuple
(order included), same cloud set, same round count.  Hypothesis draws
random small scenarios across placements, ``rho`` regimes, and the
``same_sp_priority`` ablation; two deterministic edge cases ride along:
an exhaustion scenario where every candidate pair is *born retired*
(infeasible before round 1), and a NaN-returning pricing policy that
must raise the same :class:`~repro.errors.AllocationError` from both
kernels.  Incremental runs on pre-loaded pools are pinned three ways —
object ≡ SoA ≡ the seed reference engine — because both optimized
kernels only ever read the batch's candidate BSs and report their
grants from a per-run log rather than diffing the whole pool.
"""

import pytest
from conftest import make_tiny_network
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.dmra import DMRAPolicy
from repro.compute.cru import LedgerPool
from repro.core.matching import IterativeMatchingEngine
from repro.core.matching_reference import ReferenceMatchingEngine
from repro.core.soa import SoAMatchingEngine
from repro.errors import AllocationError
from repro.radio.channel import build_radio_map
from repro.radio.sinr import LinkBudget
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario

RELAXED = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _assert_bit_parity(network, radio_map, policy_kwargs):
    obj = IterativeMatchingEngine(DMRAPolicy(**policy_kwargs)).run(
        network, radio_map
    )
    soa = SoAMatchingEngine(DMRAPolicy(**policy_kwargs)).run(
        network, radio_map
    )
    assert soa.grants == obj.grants  # includes order
    assert soa.cloud_ue_ids == obj.cloud_ue_ids
    assert soa.rounds == obj.rounds
    return obj


@RELAXED
@given(
    ue_count=st.integers(min_value=1, max_value=150),
    seed=st.integers(min_value=0, max_value=1000),
    placement=st.sampled_from(["regular", "random", "clustered"]),
    rho=st.sampled_from([0.0, 10.0, 1e6]),
    same_sp_priority=st.booleans(),
)
def test_soa_matches_object_engine(
    ue_count, seed, placement, rho, same_sp_priority
):
    scenario = build_scenario(
        ScenarioConfig.paper(placement=placement), ue_count, seed
    )
    _assert_bit_parity(
        scenario.network,
        scenario.radio_map,
        dict(
            pricing=scenario.pricing,
            rho=rho,
            same_sp_priority=same_sp_priority,
        ),
    )


@RELAXED
@given(
    ue_count=st.integers(min_value=50, max_value=400),
    seed=st.integers(min_value=0, max_value=100),
)
def test_soa_matches_object_engine_under_contention(ue_count, seed):
    """A small dense region forces evictions and cloud fallbacks."""
    config = ScenarioConfig.paper(region_side_m=900.0, bs_per_sp=2)
    scenario = build_scenario(config, ue_count, seed)
    outcome = _assert_bit_parity(
        scenario.network,
        scenario.radio_map,
        dict(pricing=scenario.pricing, rho=config.rho),
    )
    # The draw range is chosen so contention is usually real; when it
    # is, parity above covered the eviction and exhaustion branches.
    assert len(outcome.grants) + len(outcome.cloud_ue_ids) == ue_count


def _ledger_state(pool):
    """Every ledger's remainders and grants, insertion order included."""
    return [
        (
            ledger.bs_id,
            ledger.remaining_rrbs,
            ledger.remaining_crus_by_service(),
            tuple(ledger.grants.items()),
        )
        for ledger in pool
    ]


@RELAXED
@given(
    preload=st.integers(min_value=150, max_value=300),
    batch=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=1000),
    rho=st.sampled_from([0.0, 10.0]),
    same_sp_priority=st.booleans(),
)
def test_incremental_run_on_preloaded_pool_matches_reference(
    preload, batch, seed, rho, same_sp_priority
):
    """A batch matched into a pool that already holds grants, both on
    BSs inside the batch's candidate set and outside it: object, SoA and
    reference engines agree on the grants tuple (order included), the
    cloud set, the round count and the final state of every ledger."""
    config = ScenarioConfig.paper(region_side_m=3000.0, bs_per_sp=20)
    scenario = build_scenario(config, preload + batch, seed)
    network, radio_map = scenario.network, scenario.radio_map
    ue_ids = sorted(ue.ue_id for ue in network.user_equipments)
    preload_ids, batch_ids = ue_ids[:preload], ue_ids[preload:]
    candidate_bs = {
        bs_id
        for ue_id in batch_ids
        for bs_id in network.candidate_base_stations(ue_id)
    }
    policy_kwargs = dict(
        pricing=scenario.pricing, rho=rho, same_sp_priority=same_sp_priority
    )

    def preloaded_pool():
        pool = LedgerPool(network.base_stations)
        ReferenceMatchingEngine(DMRAPolicy(**policy_kwargs)).run(
            network, radio_map, ledgers=pool, ue_ids=preload_ids
        )
        return pool

    held = {grant.bs_id for grant in preloaded_pool().all_grants()}
    assume(held & candidate_bs and held - candidate_bs)

    outcomes = []
    for engine_cls in (
        ReferenceMatchingEngine, IterativeMatchingEngine, SoAMatchingEngine
    ):
        pool = preloaded_pool()
        assignment = engine_cls(DMRAPolicy(**policy_kwargs)).run(
            network, radio_map, ledgers=pool, ue_ids=batch_ids
        )
        pool.check_invariants()
        outcomes.append((assignment, _ledger_state(pool)))

    (reference, ref_state), *optimized = outcomes
    assert {g.bs_id for g in reference.grants} <= candidate_bs
    for assignment, state in optimized:
        assert assignment.grants == reference.grants  # includes order
        assert assignment.cloud_ue_ids == reference.cloud_ue_ids
        assert assignment.rounds == reference.rounds
        assert state == ref_state


def test_every_candidate_born_retired_exhausts_identically():
    """UEs whose demand exceeds every BS's capacity from the start:
    all pairs are infeasible before round 1, so both kernels must
    cloud-forward everyone in the probe round (zero productive
    rounds, zero grants)."""
    network = make_tiny_network(
        ue_specs=[
            dict(ue_id=0, cru_demand=50),
            dict(ue_id=1, cru_demand=50),
        ],
        bs_specs=None,  # default BSs hold 20 CRUs per service
    )
    radio_map = build_radio_map(network, LinkBudget())
    from repro.econ.pricing import PaperPricing

    for engine_cls in (IterativeMatchingEngine, SoAMatchingEngine):
        assignment = engine_cls(DMRAPolicy(pricing=PaperPricing())).run(
            network, radio_map
        )
        assert assignment.grants == ()
        assert assignment.cloud_ue_ids == {0, 1}
        assert assignment.rounds == 0


class _NaNPricing:
    """Pricing stub whose Eq. 9--10 price is NaN for every pair."""

    def price_per_cru(self, distance_m: float, same_sp: bool) -> float:
        return float("nan")


def test_nan_policy_raises_identically_in_both_kernels():
    network = make_tiny_network(ue_specs=[dict(ue_id=0)])
    radio_map = build_radio_map(network, LinkBudget())
    for engine_cls in (IterativeMatchingEngine, SoAMatchingEngine):
        engine = engine_cls(DMRAPolicy(pricing=_NaNPricing()))
        with pytest.raises(AllocationError, match="NaN.*UE 0"):
            engine.run(network, radio_map)
