"""Observability: structured telemetry, spans, and JSONL traces.

The subsystem every perf/robustness investigation reads its evidence
from.  Default-off with a zero-overhead null backend; see
``docs/observability.md`` for the trace schema and usage::

    from repro.obs import telemetry_session, write_trace

    with telemetry_session() as recorder:
        run_allocation(scenario, allocator)
    write_trace("run.jsonl", recorder)   # then: dmra trace run.jsonl
"""

from repro.obs.diff import (
    DiffReport,
    DiffTolerances,
    MetricDelta,
    diff_documents,
    render_diff_report,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    config_digest,
    manifests_comparable,
    validate_manifest,
)
from repro.obs.histogram import (
    DEFAULT_DEPTH_BOUNDS,
    DEFAULT_LATENCY_BOUNDS,
    Histogram,
    log_bounds,
)
from repro.obs.live import LiveServer, http_get, live_snapshot_document
from repro.obs.metrics import (
    METRICS_SCHEMA,
    METRICS_SCHEMA_V2,
    MetricFamily,
    MetricSample,
    MetricsDocument,
    histogram_family,
    metrics_from_certificates,
    metrics_from_outcome,
    metrics_from_stream,
    metrics_from_trace,
    metrics_json,
    parse_exposition,
    parse_metrics,
    prometheus_exposition,
    read_metrics,
    validate_histogram_family,
    write_metrics,
)
from repro.obs.report import render_top_spans, render_trace_report
from repro.obs.telemetry import (
    NULL,
    FlightRecorder,
    GaugeStat,
    NullTelemetry,
    Recorder,
    SpanRecord,
    TimerStat,
    get_telemetry,
    set_telemetry,
    telemetry_session,
)
from repro.obs.trace import (
    SCHEMA,
    SCHEMA_V2,
    Trace,
    parse_trace,
    read_trace,
    span_from_payload,
    span_to_payload,
    trace_from_recorder,
    trace_lines,
    write_trace,
)

__all__ = [
    "DEFAULT_DEPTH_BOUNDS",
    "DEFAULT_LATENCY_BOUNDS",
    "DiffReport",
    "DiffTolerances",
    "FlightRecorder",
    "GaugeStat",
    "Histogram",
    "LiveServer",
    "MANIFEST_SCHEMA",
    "METRICS_SCHEMA",
    "METRICS_SCHEMA_V2",
    "MetricDelta",
    "MetricFamily",
    "MetricSample",
    "MetricsDocument",
    "NULL",
    "NullTelemetry",
    "Recorder",
    "SCHEMA",
    "SCHEMA_V2",
    "SpanRecord",
    "TimerStat",
    "Trace",
    "build_manifest",
    "config_digest",
    "diff_documents",
    "get_telemetry",
    "histogram_family",
    "http_get",
    "live_snapshot_document",
    "log_bounds",
    "manifests_comparable",
    "metrics_from_certificates",
    "metrics_from_outcome",
    "metrics_from_stream",
    "metrics_from_trace",
    "metrics_json",
    "parse_exposition",
    "parse_metrics",
    "parse_trace",
    "prometheus_exposition",
    "read_metrics",
    "read_trace",
    "render_diff_report",
    "render_top_spans",
    "render_trace_report",
    "set_telemetry",
    "span_from_payload",
    "span_to_payload",
    "telemetry_session",
    "trace_from_recorder",
    "trace_lines",
    "validate_histogram_family",
    "validate_manifest",
    "write_metrics",
    "write_trace",
]
