"""Unit tests for the ``dmra.metrics/1`` domain-metrics layer."""

import pytest

from repro.core.dmra import DMRAAllocator
from repro.econ.pricing import PaperPricing
from repro.errors import ConfigurationError
from repro.obs import (
    METRICS_SCHEMA,
    MetricFamily,
    MetricSample,
    MetricsDocument,
    Recorder,
    metrics_from_outcome,
    metrics_from_stream,
    metrics_from_trace,
    metrics_json,
    parse_metrics,
    prometheus_exposition,
    read_metrics,
    telemetry_session,
    trace_from_recorder,
    write_metrics,
)
from repro.sim.config import ScenarioConfig
from repro.sim.runner import run_allocation
from repro.sim.scenario import build_scenario

CONFIG = ScenarioConfig.paper()


def tiny_document() -> MetricsDocument:
    """A small hand-built document exercising labels and scalars."""
    return MetricsDocument(families=(
        MetricFamily(
            name="dmra_sp_profit", kind="gauge", help="Per-SP profit",
            samples=(
                MetricSample.of(12.5, sp=1),
                MetricSample.of(7.0, sp=2),
            ),
        ),
        MetricFamily(
            name="dmra_match_rounds", kind="gauge", help="Rounds",
            samples=(MetricSample.of(9),),
        ),
    ))


class TestModel:
    def test_sample_of_sorts_and_stringifies_labels(self):
        sample = MetricSample.of(1.0, zeta=3, alpha="x")
        assert sample.labels == (("alpha", "x"), ("zeta", "3"))
        assert sample.labels_dict == {"alpha": "x", "zeta": "3"}

    def test_family_rejects_bad_name(self):
        with pytest.raises(ConfigurationError):
            MetricFamily(name="bad name", kind="gauge", help="", samples=())

    def test_family_rejects_bad_kind(self):
        with pytest.raises(ConfigurationError):
            MetricFamily(
                name="ok_name", kind="summary", help="", samples=()
            )

    def test_family_sample_lookup(self):
        doc = tiny_document()
        assert doc.family("dmra_sp_profit").sample(sp=1) == 12.5
        with pytest.raises(ConfigurationError):
            doc.family("dmra_sp_profit").sample(sp=99)

    def test_document_lookup(self):
        doc = tiny_document()
        assert doc.has_family("dmra_match_rounds")
        assert not doc.has_family("absent")
        assert set(doc.family_names()) == {
            "dmra_sp_profit", "dmra_match_rounds",
        }
        with pytest.raises(ConfigurationError):
            doc.family("absent")


class TestJsonRoundTrip:
    def test_round_trip_is_byte_exact(self):
        text = metrics_json(tiny_document())
        assert metrics_json(parse_metrics(text)) == text

    def test_round_trip_preserves_values_and_labels(self):
        doc = parse_metrics(metrics_json(tiny_document()))
        assert doc.family("dmra_sp_profit").sample(sp=2) == 7.0
        assert doc.family("dmra_match_rounds").sample() == 9.0

    def test_schema_field_present(self):
        import json

        payload = json.loads(metrics_json(tiny_document()))
        assert payload["schema"] == METRICS_SCHEMA

    def test_write_read_file(self, tmp_path):
        path = write_metrics(tmp_path / "m.json", tiny_document())
        doc = read_metrics(path)
        assert doc.family("dmra_sp_profit").sample(sp=1) == 12.5

    def test_malformed_json_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_metrics("{not json")

    def test_non_object_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_metrics("[1, 2]")

    def test_unknown_schema_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_metrics('{"schema": "dmra.metrics/999", "families": []}')

    def test_malformed_family_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_metrics(
                '{"schema": "dmra.metrics/1", '
                '"families": [{"name": "x"}]}'
            )

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_metrics(tmp_path / "absent.json")


class TestPrometheusExposition:
    def test_renders_help_type_and_samples(self):
        text = prometheus_exposition(tiny_document())
        assert "# HELP dmra_sp_profit Per-SP profit" in text
        assert "# TYPE dmra_sp_profit gauge" in text
        assert 'dmra_sp_profit{sp="1"} 12.5' in text
        assert "dmra_match_rounds 9" in text  # int-valued collapses

    def test_label_values_escaped(self):
        doc = MetricsDocument(families=(
            MetricFamily(
                name="f", kind="gauge", help="",
                samples=(MetricSample.of(1.0, note='a"b\\c'),),
            ),
        ))
        assert 'note="a\\"b\\\\c"' in prometheus_exposition(doc)

    def test_empty_document(self):
        assert prometheus_exposition(MetricsDocument(families=())) == ""


class TestFromOutcome:
    @pytest.fixture(scope="class")
    def doc(self):
        scenario = build_scenario(CONFIG, 60, seed=1)
        outcome = run_allocation(
            scenario, DMRAAllocator(pricing=PaperPricing())
        )
        return metrics_from_outcome(
            scenario.network, outcome.assignment, scenario.pricing,
            wall_time_s=outcome.wall_time_s,
        ), scenario, outcome

    def test_profit_families_agree_with_metrics(self, doc):
        document, _scenario, outcome = doc
        total = document.family("dmra_total_profit").sample()
        assert total == pytest.approx(outcome.metrics.total_profit)
        per_sp = document.family("dmra_sp_profit")
        assert sum(s.value for s in per_sp.samples) == pytest.approx(total)

    def test_population_split_conserved(self, doc):
        document, scenario, _outcome = doc
        edge = document.family("dmra_edge_served").sample()
        cloud = document.family("dmra_cloud_forwarded").sample()
        assert edge + cloud == scenario.network.ue_count

    def test_per_bs_utilization_in_unit_range(self, doc):
        document, scenario, _outcome = doc
        for family_name in (
            "dmra_bs_cru_utilization", "dmra_bs_rrb_utilization",
        ):
            family = document.family(family_name)
            assert len(family.samples) == scenario.network.bs_count
            assert all(0.0 <= s.value <= 1.0 for s in family.samples)

    def test_wall_time_emitted_as_timing_family(self, doc):
        document, _scenario, outcome = doc
        wall = document.family("dmra_wall_seconds").sample()
        assert wall == pytest.approx(outcome.wall_time_s)


class TestFromOnline:
    def test_totals_and_occupancy(self):
        from repro.stream import StreamConfig, run_stream

        outcome = run_stream(
            CONFIG, StreamConfig(horizon_s=120.0), seed=2, readmit=False
        )
        document = metrics_from_stream(outcome)
        arrivals = document.family("dmra_stream_arrivals_total").sample()
        assert arrivals == outcome.arrivals
        edge = document.family("dmra_stream_admitted_edge_total").sample()
        cloud = document.family("dmra_stream_admitted_cloud_total").sample()
        assert edge + cloud == arrivals
        per_sp = document.family("dmra_stream_sp_profit")
        assert sum(s.value for s in per_sp.samples) == pytest.approx(
            sum(outcome.profit_by_sp.values())
        )
        occupancy = document.family("dmra_stream_edge_active")
        assert occupancy.sample(stat="peak") >= occupancy.sample(stat="mean")


class TestFromTrace:
    def recorded_trace(self):
        recorder = Recorder(meta={"command": "test"})
        with telemetry_session(recorder):
            tel = recorder
            tel.count("match.accepted", 5)
            tel.count("stream.sp_profit.1", 10.0)
            tel.count("stream.sp_profit.2", 4.0)
            tel.gauge("match.rounds", 7)
            with tel.span("match") as match_span:
                match_span.set(rounds=7)
                with tel.span("match.round", round=1) as round_span:
                    round_span.set(proposals=40, accepted=30, evictions=2)
                with tel.span("match.round", round=2) as round_span:
                    round_span.set(proposals=8, accepted=6, evictions=0)
        return trace_from_recorder(recorder)

    def test_counters_become_total_families(self):
        document = metrics_from_trace(self.recorded_trace())
        assert document.family("dmra_match_accepted_total").sample() == 5

    def test_entity_suffixed_counters_fold_into_labels(self):
        document = metrics_from_trace(self.recorded_trace())
        family = document.family("dmra_stream_sp_profit_total")
        assert family.sample(sp=1) == 10.0
        assert family.sample(sp=2) == 4.0

    def test_gauges_carry_stat_labels(self):
        document = metrics_from_trace(self.recorded_trace())
        family = document.family("dmra_match_rounds")
        assert family.sample(stat="last") == 7

    def test_round_spans_aggregate_by_round(self):
        document = metrics_from_trace(self.recorded_trace())
        proposals = document.family("dmra_match_round_proposals")
        assert proposals.sample(round=1) == 40
        assert proposals.sample(round=2) == 8
        convergence = document.family("dmra_match_convergence_rounds")
        assert convergence.sample(stat="max") == 7
        assert convergence.sample(stat="runs") == 1

    def test_manifest_defaults_from_trace_meta(self):
        from repro.obs import build_manifest

        manifest = build_manifest(
            config=CONFIG, seeds=[1], command="test",
            clock=lambda: 0.0, host=lambda: {},
        )
        recorder = Recorder(meta={"manifest": manifest})
        recorder.count("x", 1)
        document = metrics_from_trace(trace_from_recorder(recorder))
        assert document.manifest == manifest
