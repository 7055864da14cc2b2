"""The versioned JSONL trace format behind ``dmra trace``.

A trace file is newline-delimited JSON with a fixed, documented layout
(see ``docs/observability.md`` for the full schema):

* line 1 — the **header**: ``{"kind": "header", "schema":
  "dmra.trace/1", "meta": {...}}``.  Parsers must reject unknown
  schema identifiers.
* zero or more **metric** lines, one per counter / gauge / timer,
  emitted in sorted-name order::

      {"kind": "counter", "name": "match.proposals", "value": 1234}
      {"kind": "gauge", "name": "stream.edge_active",
       "value": 41, "min": 0, "max": 97, "count": 512}
      {"kind": "timer", "name": "stream.rematch", "count": 64,
       "total_s": 0.81, "min_s": 0.002, "max_s": 0.04}

* zero or more **hist** lines (``dmra.trace/2`` only), one per
  histogram in sorted-name order, carrying the exact bucket bounds,
  per-bucket counts (last entry = overflow/+Inf), sum, and count::

      {"kind": "hist", "name": "stream.event_latency_s",
       "bounds": [1e-06, 2e-06], "counts": [3, 1, 0],
       "sum": 5.1e-06, "count": 4}

  A trace with no histograms is emitted as ``dmra.trace/1``
  byte-identically to before; the reader accepts both versions.

* zero or more **span** lines in pre-order (parents before children),
  with sequential integer ids assigned in emission order starting at 1
  and ``parent`` 0 for roots::

      {"kind": "span", "id": 3, "parent": 1, "name": "match.round",
       "start_s": 0.0012, "end_s": 0.0039, "attrs": {"round": 2}}

Every line is serialized with sorted keys, so the format round-trips
exactly: ``trace_lines(parse_trace(trace_lines(t))) == trace_lines(t)``
(a dedicated test holds the sweep-produced merged trace to this).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.errors import ConfigurationError
from repro.obs.histogram import Histogram
from repro.obs.telemetry import GaugeStat, Recorder, SpanRecord, TimerStat

__all__ = [
    "SCHEMA",
    "SCHEMA_V2",
    "Trace",
    "parse_trace",
    "read_trace",
    "span_from_payload",
    "span_to_payload",
    "trace_from_recorder",
    "trace_lines",
    "write_trace",
]

#: Schema identifier; bump the suffix on any incompatible layout change.
SCHEMA = "dmra.trace/1"

#: The v2 schema adds ``hist`` records.  Traces without histograms keep
#: emitting v1 byte-identically, so every pre-existing artifact (and the
#: committed metrics-gate baseline workflow) is untouched; v2 appears
#: only when a histogram was actually recorded.
SCHEMA_V2 = "dmra.trace/2"

_KNOWN_SCHEMAS = (SCHEMA, SCHEMA_V2)


@dataclass
class Trace:
    """A fully parsed (or to-be-written) trace."""

    meta: dict = field(default_factory=dict)
    spans: list[SpanRecord] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, GaugeStat] = field(default_factory=dict)
    timers: dict[str, TimerStat] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)

    def all_spans(self):
        """Pre-order traversal over every span in the trace."""
        for root in self.spans:
            yield from root.walk()

    def span_count(self) -> int:
        """Total number of spans across every tree in the trace."""
        return sum(1 for _ in self.all_spans())


def trace_from_recorder(recorder: Recorder) -> Trace:
    """Snapshot a recorder's state as a :class:`Trace`."""
    return Trace(
        meta=dict(recorder.meta),
        spans=list(recorder.roots),
        counters=dict(recorder.counters),
        gauges=dict(recorder.gauges),
        timers=dict(recorder.timers),
        histograms={
            name: hist.snapshot()
            for name, hist in recorder.histograms.items()
        },
    )


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def trace_lines(trace: Trace | Recorder) -> list[str]:
    """Serialize a trace to its canonical JSONL lines (no newlines)."""
    if isinstance(trace, Recorder):
        trace = trace_from_recorder(trace)
    schema = SCHEMA_V2 if trace.histograms else SCHEMA
    lines = [_dump({"kind": "header", "schema": schema, "meta": trace.meta})]
    for name in sorted(trace.counters):
        lines.append(_dump({
            "kind": "counter", "name": name, "value": trace.counters[name],
        }))
    for name in sorted(trace.gauges):
        stat = trace.gauges[name]
        lines.append(_dump({
            "kind": "gauge", "name": name, "value": stat.value,
            "min": stat.min, "max": stat.max, "count": stat.count,
        }))
    for name in sorted(trace.timers):
        stat = trace.timers[name]
        lines.append(_dump({
            "kind": "timer", "name": name, "count": stat.count,
            "total_s": stat.total_s, "min_s": stat.min_s,
            "max_s": stat.max_s,
        }))
    for name in sorted(trace.histograms):
        hist = trace.histograms[name]
        lines.append(_dump({
            "kind": "hist", "name": name, **hist.to_payload(),
        }))
    next_id = 1

    def emit(span: SpanRecord, parent_id: int) -> None:
        nonlocal next_id
        span_id = next_id
        next_id += 1
        lines.append(_dump({
            "kind": "span", "id": span_id, "parent": parent_id,
            "name": span.name, "start_s": span.start_s,
            "end_s": span.end_s, "attrs": span.attrs,
        }))
        for child in span.children:
            emit(child, span_id)

    for root in trace.spans:
        emit(root, 0)
    return lines


def parse_trace(lines: Iterable[str] | str) -> Trace:
    """Parse canonical JSONL lines back into a :class:`Trace`.

    Raises :class:`ConfigurationError` on a missing/unknown header
    schema, malformed JSON, unknown record kinds, or dangling span
    parent references.
    """
    if isinstance(lines, str):
        lines = lines.splitlines()
    trace = Trace()
    spans_by_id: dict[int, SpanRecord] = {}
    saw_header = False
    for line_number, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"trace line {line_number}: malformed JSON ({exc})"
            ) from exc
        kind = record.get("kind")
        if not saw_header:
            if kind != "header":
                raise ConfigurationError(
                    "trace does not start with a header line"
                )
            if record.get("schema") not in _KNOWN_SCHEMAS:
                raise ConfigurationError(
                    f"unsupported trace schema {record.get('schema')!r}; "
                    f"this reader understands "
                    f"{', '.join(repr(s) for s in _KNOWN_SCHEMAS)}"
                )
            trace.meta = record.get("meta", {})
            saw_header = True
            continue
        if kind == "counter":
            trace.counters[record["name"]] = record["value"]
        elif kind == "gauge":
            trace.gauges[record["name"]] = GaugeStat(
                value=record["value"], min=record["min"],
                max=record["max"], count=record["count"],
            )
        elif kind == "timer":
            trace.timers[record["name"]] = TimerStat(
                count=record["count"], total_s=record["total_s"],
                min_s=record["min_s"], max_s=record["max_s"],
            )
        elif kind == "hist":
            try:
                trace.histograms[record["name"]] = Histogram.from_payload(
                    record
                )
            except (KeyError, ValueError) as exc:
                raise ConfigurationError(
                    f"trace line {line_number}: malformed hist record "
                    f"({exc})"
                ) from exc
        elif kind == "span":
            span = SpanRecord(
                name=record["name"], start_s=record["start_s"],
                end_s=record["end_s"], attrs=record.get("attrs", {}),
            )
            spans_by_id[record["id"]] = span
            parent_id = record.get("parent", 0)
            if parent_id == 0:
                trace.spans.append(span)
            else:
                parent = spans_by_id.get(parent_id)
                if parent is None:
                    raise ConfigurationError(
                        f"trace line {line_number}: span {record['id']} "
                        f"references unknown parent {parent_id}"
                    )
                parent.children.append(span)
        else:
            raise ConfigurationError(
                f"trace line {line_number}: unknown record kind {kind!r}"
            )
    if not saw_header:
        raise ConfigurationError("trace is empty (no header line)")
    return trace


def span_to_payload(span: SpanRecord) -> dict:
    """One span subtree as a JSON-safe dict (recursive, wire-friendly).

    Used by the dist deployment to ship a node's span forest back to
    the supervisor inside a result frame; :func:`span_from_payload`
    reverses it exactly.
    """
    payload = {
        "name": span.name,
        "start_s": span.start_s,
        "end_s": span.end_s,
    }
    if span.attrs:
        payload["attrs"] = span.attrs
    if span.children:
        payload["children"] = [span_to_payload(c) for c in span.children]
    return payload


def span_from_payload(payload: dict) -> SpanRecord:
    """Rebuild a span subtree from :func:`span_to_payload` output."""
    return SpanRecord(
        name=payload["name"],
        start_s=payload["start_s"],
        end_s=payload["end_s"],
        attrs=dict(payload.get("attrs", {})),
        children=[
            span_from_payload(c) for c in payload.get("children", ())
        ],
    )


def write_trace(path: str | Path, trace: Trace | Recorder) -> Path:
    """Write a trace (or live recorder) as canonical JSONL."""
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text("\n".join(trace_lines(trace)) + "\n")
    return target


def read_trace(path: str | Path) -> Trace:
    """Read and parse a JSONL trace file."""
    source = Path(path)
    try:
        text = source.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {source}: {exc}") from exc
    return parse_trace(text)
