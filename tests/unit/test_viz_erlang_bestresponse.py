"""Unit tests for SVG rendering, Erlang-B, and the best-response baseline."""

import math
import xml.etree.ElementTree as ET

import pytest

from repro.baselines.best_response import BestResponseAllocator
from repro.core.dmra import DMRAAllocator
from repro.dynamics.erlang import edge_server_estimate, erlang_b_blocking
from repro.econ.accounting import compute_profit
from repro.errors import AllocationError, ConfigurationError
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario
from repro.viz.svg import render_svg, write_svg


class TestSvg:
    def test_document_is_well_formed_xml(self, small_scenario):
        document = render_svg(small_scenario.network)
        root = ET.fromstring(document)
        assert root.tag.endswith("svg")

    def test_contains_all_entities(self, small_scenario):
        assignment = DMRAAllocator(
            pricing=small_scenario.pricing
        ).allocate(small_scenario.network, small_scenario.radio_map)
        document = render_svg(small_scenario.network, assignment)
        # One <rect> per BS (plus background + frame + legend swatches).
        rect_count = document.count("<rect")
        assert rect_count >= small_scenario.network.bs_count
        # One <circle> per UE.
        assert document.count("<circle") >= small_scenario.network.ue_count
        # One <line> per association.
        assert document.count("<line") == assignment.edge_served_count

    def test_coverage_circles_optional(self, small_scenario):
        without = render_svg(small_scenario.network, show_coverage=False)
        with_cov = render_svg(small_scenario.network, show_coverage=True)
        assert with_cov.count("stroke-dasharray") > without.count(
            "stroke-dasharray"
        )

    def test_title_escaped(self, small_scenario):
        document = render_svg(
            small_scenario.network, title="a <b> & c"
        )
        assert "a &lt;b&gt; &amp; c" in document

    def test_write_svg_creates_file(self, small_scenario, tmp_path):
        path = write_svg(
            tmp_path / "deep" / "map.svg", small_scenario.network
        )
        assert path.exists()
        assert path.read_text().startswith("<svg")

    def test_size_guard(self, small_scenario):
        with pytest.raises(ConfigurationError):
            render_svg(small_scenario.network, size_px=50)


class TestErlangB:
    def test_known_values(self):
        # Classic textbook values.
        assert erlang_b_blocking(1, 1.0) == pytest.approx(0.5)
        assert erlang_b_blocking(2, 1.0) == pytest.approx(0.2)
        assert erlang_b_blocking(10, 5.0) == pytest.approx(0.0184, abs=1e-3)

    def test_zero_load_no_blocking(self):
        assert erlang_b_blocking(10, 0.0) == 0.0

    def test_zero_servers_block_everything(self):
        assert erlang_b_blocking(0, 5.0) == 1.0

    def test_monotone_in_load_and_servers(self):
        loads = [erlang_b_blocking(20, a) for a in (5.0, 15.0, 30.0, 60.0)]
        assert loads == sorted(loads)
        servers = [erlang_b_blocking(c, 20.0) for c in (5, 10, 20, 40)]
        assert servers == sorted(servers, reverse=True)

    def test_large_c_numerically_stable(self):
        value = erlang_b_blocking(2000, 1900.0)
        assert 0.0 <= value <= 1.0
        assert math.isfinite(value)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            erlang_b_blocking(-1, 1.0)
        with pytest.raises(ConfigurationError):
            erlang_b_blocking(1, -1.0)

    def test_server_estimate(self, small_scenario):
        estimate = edge_server_estimate(
            small_scenario.network, small_scenario.radio_map
        )
        total_rrbs = 25 * 55
        assert 1 <= estimate <= total_rrbs


class TestBestResponse:
    def test_converges_to_valid_assignment(self, small_scenario):
        allocator = BestResponseAllocator(pricing=small_scenario.pricing)
        assignment = allocator.allocate(
            small_scenario.network, small_scenario.radio_map
        )
        assignment.validate(small_scenario.network, small_scenario.radio_map)
        assert assignment.edge_served_count > 0

    def test_equilibrium_no_profitable_unilateral_move(self, small_scenario):
        """At the fixpoint no UE can move to a cheaper BS that fits it —
        the Nash property, checked via the stability analyzer."""
        from repro.analysis.stability import analyze_stability

        allocator = BestResponseAllocator(pricing=small_scenario.pricing)
        assignment = allocator.allocate(
            small_scenario.network, small_scenario.radio_map
        )
        report = analyze_stability(
            small_scenario.network,
            small_scenario.radio_map,
            assignment,
            small_scenario.pricing,
        )
        assert report.is_envy_free

    def test_dmra_profit_at_least_matches_selfish_equilibrium(self):
        """SP-coordinated DMRA should not lose to UE-selfish dynamics in
        the paper's load regime."""
        scenario = build_scenario(ScenarioConfig.paper(), 700, 3)
        dmra = DMRAAllocator(pricing=scenario.pricing).allocate(
            scenario.network, scenario.radio_map
        )
        selfish = BestResponseAllocator(pricing=scenario.pricing).allocate(
            scenario.network, scenario.radio_map
        )
        dmra_profit = compute_profit(
            scenario.network, dmra.grants, scenario.pricing
        ).total_profit
        selfish_profit = compute_profit(
            scenario.network, selfish.grants, scenario.pricing
        ).total_profit
        assert dmra_profit >= selfish_profit * 0.99

    def test_deterministic(self, small_scenario):
        allocator = BestResponseAllocator(pricing=small_scenario.pricing)
        a = allocator.allocate(
            small_scenario.network, small_scenario.radio_map
        )
        b = allocator.allocate(
            small_scenario.network, small_scenario.radio_map
        )
        assert a.association_pairs() == b.association_pairs()

    def test_invalid_max_sweeps(self):
        with pytest.raises(AllocationError):
            BestResponseAllocator(max_sweeps=0)


class TestErlangValidation:
    def test_simulated_blocking_bounded_by_analytic(self):
        """The flexible simulator should never block *more* than the
        rigid M/M/c/c approximation at the same offered load, and both
        must agree that sub-capacity load sees ~zero blocking."""
        from repro.dynamics import ExponentialHolding, PoissonArrivals
        from repro.stream import StreamConfig, run_stream

        config = ScenarioConfig.paper()
        scenario = build_scenario(config, 600, 1)
        servers = edge_server_estimate(scenario.network, scenario.radio_map)
        holding_s = 150.0
        for rate, overloaded in ((3.0, False), (10.0, True)):
            analytic = erlang_b_blocking(servers, rate * holding_s)
            outcome = run_stream(
                config,
                StreamConfig(
                    horizon_s=300.0,
                    arrivals=PoissonArrivals(rate_per_s=rate),
                    holding=ExponentialHolding(mean_s=holding_s),
                ),
                seed=2,
                readmit=False,
            )
            assert outcome.blocking_probability <= analytic + 0.02
            if not overloaded:
                assert analytic < 0.01
                assert outcome.blocking_probability < 0.01
