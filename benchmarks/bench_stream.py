"""Streaming benchmark for the event-driven engine (``make bench-stream``).

Three measurements, all seeded:

* **equivalence gate (bit-exact)** — on a small saturated scenario with
  mobility, the incremental engine's outcome digest must equal the
  from-scratch re-solve of the same event tape, with the quiescence
  debug probe enabled.  This is the correctness pin: if the dirty-
  neighborhood rule ever under-proposes, this digest splits.
* **equivalence gate (tolerance)** — at a larger scale, both modes'
  outcome-only ``dmra.metrics/1`` documents (deterministic manifests)
  must pass ``diff_documents`` within the default trace-diff
  tolerances.
* **headline** — sustained events/sec over steady churn on the paper
  deployment, with a rolling population at least 10x the active set so
  the run proves memory is bounded by the *active* set: the arrival
  stream is far larger than anything resident.
* **BS-count sweep** — one fixed tape replayed on 25, 250 and 2,500
  BSs at equal density (the 300 m grid).  Per-event work — Eq. 17 slack
  terms plus ledger lookups, counted, not timed — must stay within
  ``SWEEP_MAX_WORK_GROWTH`` of the 25-BS figure, and events/s on 2,500
  BSs must reach ``SWEEP_MIN_RATE_RATIO`` of events/s on 25 BSs: a
  flush costs O(changed neighbourhood), not O(#BS).

Emits ``BENCH_pr7.json`` at the repo root and exits non-zero when:

* either equivalence gate fails;
* the headline sustains fewer than ``BENCH_STREAM_MIN_EVENTS_PER_S``
  events per wall second (default 400);
* peak RSS exceeds ``BENCH_STREAM_MAX_RSS_MB`` (default 768);
* the rolling population is less than 10x the peak active set (the
  scenario would not be probing memory boundedness);
* the BS-count sweep's work counters or events/s ratio leave their
  bounds.

Knobs: ``BENCH_STREAM_RATE`` (arrivals/s, default 40),
``BENCH_STREAM_HORIZON_S`` (default 600), ``BENCH_STREAM_HOLDING_S``
(default 12), ``BENCH_STREAM_SHARDS`` (default 1),
``BENCH_STREAM_KERNEL`` (default ``auto``), ``BENCH_STREAM_MOVES``
(move fraction, default 0.05).
"""

from __future__ import annotations

import json
import os
import resource
import sys
from contextlib import contextmanager
from pathlib import Path

# Runnable straight from a checkout without an editable install.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import repro.core.dmra as dmra_mod
from repro.compute.cru import LedgerPool
from repro.dynamics.arrivals import ExponentialHolding, PoissonArrivals
from repro.obs import build_manifest, metrics_from_stream
from repro.obs.diff import diff_documents
from repro.sim.config import ScenarioConfig
from repro.stream import StreamConfig, run_stream

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_pr7.json"

SEED = 1

#: Small saturated deployment: one tightly-capacitated BS, so the tape
#: constantly blocks, frees, and readmits — the hard case for the
#: dirty-neighborhood rule.
GATE_CONFIG = ScenarioConfig(
    sp_count=1,
    bs_per_sp=1,
    region_side_m=300.0,
    cru_capacity_min=20,
    cru_capacity_max=20,
)


#: BS-count sweep deployments: 5x5, 16x16 and 50x50 grids at the 300 m
#: inter-site distance, in regions just covering them (equal density).
SWEEP_CONFIGS = (
    ScenarioConfig.paper(),
    ScenarioConfig.paper(region_side_m=4800.0, bs_per_sp=50),
    ScenarioConfig.paper(region_side_m=15000.0, bs_per_sp=500),
)

#: The sweep's fixed tape: the streaming headline's churn, 60 s long.
SWEEP_STREAM = StreamConfig(
    horizon_s=60.0,
    arrivals=PoissonArrivals(rate_per_s=40.0),
    holding=ExponentialHolding(mean_s=12.0),
    move_fraction=0.05,
)

#: Per-event work on any deployment over the 25-BS figure, at most.
SWEEP_MAX_WORK_GROWTH = 2.0

#: Events/s on 2,500 BSs over events/s on 25 BSs, at least (0.8-0.95
#: measured on a 2-core Xeon; 0.07 before Alg. 1 runs were scoped to
#: their candidate BSs).
SWEEP_MIN_RATE_RATIO = 0.5

#: Timed replays per deployment; the best one counts.
SWEEP_TIMED_REPEATS = 2


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


def _env_float(name: str, default: float) -> float:
    try:
        return float(os.environ.get(name, default))
    except ValueError:
        return default


def _peak_rss_mb() -> float:
    """Peak RSS of this process in MB (Linux reports KB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _outcome_record(outcome) -> dict:
    return {
        "mode": outcome.mode,
        "shards": outcome.shards,
        "kernel": outcome.kernel,
        "events": outcome.events_processed,
        "arrivals": outcome.arrivals,
        "moves": outcome.moves,
        "admitted_edge": outcome.admitted_edge,
        "admitted_cloud": outcome.admitted_cloud,
        "readmitted": outcome.readmitted,
        "blocking": round(outcome.blocking_probability, 4),
        "total_profit": round(outcome.total_profit, 2),
        "peak_active": outcome.peak_active,
        "mean_edge_active": round(outcome.mean_edge_active, 1),
        "wall_s": round(outcome.wall_s, 3),
        "events_per_s": round(outcome.events_per_s, 1),
        "digest": outcome.digest,
    }


@contextmanager
def _work_counters():
    """Count Eq. 17 slack terms and ledger lookups while active."""
    counts = {"slack_terms": 0, "ledger_lookups": 0}
    slack_term = dmra_mod.dmra_slack_term
    ledger = LedgerPool.ledger

    def counting_slack_term(*args, **kwargs):
        counts["slack_terms"] += 1
        return slack_term(*args, **kwargs)

    def counting_ledger(self, bs_id):
        counts["ledger_lookups"] += 1
        return ledger(self, bs_id)

    dmra_mod.dmra_slack_term = counting_slack_term
    LedgerPool.ledger = counting_ledger
    try:
        yield counts
    finally:
        dmra_mod.dmra_slack_term = slack_term
        LedgerPool.ledger = ledger


def _bs_sweep(kernel: str, failures: list[str]) -> list[dict]:
    """Replay the sweep tape on every sweep deployment and gate it."""
    rows = []
    for config in SWEEP_CONFIGS:
        with _work_counters() as counts:
            counted = run_stream(
                config, SWEEP_STREAM, seed=SEED, kernel=kernel,
                series_stride=16,
            )
        best = max(
            run_stream(
                config, SWEEP_STREAM, seed=SEED, kernel=kernel,
                series_stride=16,
            ).events_per_s
            for _ in range(SWEEP_TIMED_REPEATS)
        )
        events = counted.events_processed
        rows.append({
            "bs": config.bs_count,
            "events": events,
            "admitted_edge": counted.admitted_edge,
            "events_per_s": round(best, 1),
            "slack_terms_per_event": round(counts["slack_terms"] / events, 2),
            "ledger_lookups_per_event": round(
                counts["ledger_lookups"] / events, 2
            ),
        })
        print(
            f"sweep  bs={config.bs_count}  events={events}  "
            f"events/s={best:.0f}  "
            f"slack/event={rows[-1]['slack_terms_per_event']}  "
            f"ledger/event={rows[-1]['ledger_lookups_per_event']}"
        )
    base = rows[0]
    for row in rows[1:]:
        if row["events"] != base["events"]:
            failures.append(
                f"sweep: {row['bs']} BSs replayed {row['events']} events, "
                f"{base['bs']} BSs {base['events']} — not one tape"
            )
        for name in ("slack_terms_per_event", "ledger_lookups_per_event"):
            if row[name] > SWEEP_MAX_WORK_GROWTH * base[name]:
                failures.append(
                    f"sweep: {name} {row[name]} on {row['bs']} BSs > "
                    f"{SWEEP_MAX_WORK_GROWTH:g}x {base[name]} on "
                    f"{base['bs']} BSs"
                )
    ratio = rows[-1]["events_per_s"] / base["events_per_s"]
    if ratio < SWEEP_MIN_RATE_RATIO:
        failures.append(
            f"sweep: events/s on {rows[-1]['bs']} BSs is {ratio:.2f}x "
            f"the {base['bs']}-BS rate (< {SWEEP_MIN_RATE_RATIO:g}x floor)"
        )
    print(f"sweep  events/s ratio {rows[-1]['bs']}/{base['bs']} BSs = "
          f"{ratio:.2f}")
    return rows


def main() -> int:
    rate = _env_float("BENCH_STREAM_RATE", 40.0)
    horizon_s = _env_float("BENCH_STREAM_HORIZON_S", 600.0)
    holding_s = _env_float("BENCH_STREAM_HOLDING_S", 12.0)
    shards = _env_int("BENCH_STREAM_SHARDS", 1)
    kernel = os.environ.get("BENCH_STREAM_KERNEL", "auto")
    move_fraction = _env_float("BENCH_STREAM_MOVES", 0.05)
    min_events_per_s = _env_float("BENCH_STREAM_MIN_EVENTS_PER_S", 400.0)
    max_rss_mb = _env_float("BENCH_STREAM_MAX_RSS_MB", 768.0)

    failures: list[str] = []

    # --- equivalence gate: bit-exact on the saturated scenario -------
    os.environ["DMRA_DEBUG_STREAM"] = "1"
    try:
        gate_stream = StreamConfig(
            horizon_s=300.0,
            arrivals=PoissonArrivals(rate_per_s=0.5),
            holding=ExponentialHolding(mean_s=120.0),
            move_fraction=0.1,
        )
        gate_inc = run_stream(
            GATE_CONFIG, gate_stream, seed=SEED, mode="incremental"
        )
        gate_res = run_stream(
            GATE_CONFIG, gate_stream, seed=SEED, mode="rescratch"
        )
    finally:
        del os.environ["DMRA_DEBUG_STREAM"]
    bit_exact = gate_inc.digest == gate_res.digest
    if not bit_exact:
        failures.append(
            f"bit-exact gate: incremental digest {gate_inc.digest[:12]} "
            f"!= rescratch {gate_res.digest[:12]}"
        )
    if gate_inc.admitted_cloud == 0 or gate_inc.readmitted == 0:
        failures.append(
            "bit-exact gate: scenario exercised no blocking/readmission "
            "— the gate is vacuous"
        )
    print(
        f"gate:bit-exact  equal={bit_exact}  "
        f"cloud={gate_inc.admitted_cloud}  "
        f"readmitted={gate_inc.readmitted}"
    )

    # --- equivalence gate: tolerance-diffed metrics at scale ---------
    config = ScenarioConfig.paper()
    mid_stream = StreamConfig(
        horizon_s=min(horizon_s, 240.0),
        arrivals=PoissonArrivals(rate_per_s=max(rate / 4.0, 1.0)),
        holding=ExponentialHolding(mean_s=max(holding_s, 20.0)),
        move_fraction=move_fraction,
    )
    manifest = build_manifest(
        config=config, seeds=[SEED], command="bench-stream",
        clock=lambda: 0.0,
    )
    mid_inc = run_stream(
        config, mid_stream, seed=SEED, mode="incremental",
        kernel=kernel, series_stride=4,
    )
    mid_res = run_stream(
        config, mid_stream, seed=SEED, mode="rescratch", series_stride=4,
    )
    report = diff_documents(
        metrics_from_stream(mid_inc, manifest=manifest),
        metrics_from_stream(mid_res, manifest=manifest),
    )
    if not report.ok:
        for delta in report.regressions:
            failures.append(f"tolerance gate: {delta}")
    print(
        f"gate:tolerance  ok={report.ok}  "
        f"families={report.families_compared}  "
        f"events={mid_inc.events_processed}"
    )

    # --- headline: sustained events/sec over steady churn ------------
    headline_stream = StreamConfig(
        horizon_s=horizon_s,
        arrivals=PoissonArrivals(rate_per_s=rate),
        holding=ExponentialHolding(mean_s=holding_s),
        move_fraction=move_fraction,
    )
    # Warm-up on a short prefix (JIT-free Python, but cold caches and
    # allocator pools are real), then the measured run.
    warmup_stream = StreamConfig(
        horizon_s=min(60.0, horizon_s),
        arrivals=PoissonArrivals(rate_per_s=rate),
        holding=ExponentialHolding(mean_s=holding_s),
        move_fraction=move_fraction,
    )
    run_stream(
        config, warmup_stream, seed=SEED + 1, kernel=kernel,
        shards=shards, series_stride=16,
    )
    outcome = run_stream(
        config, headline_stream, seed=SEED, kernel=kernel,
        shards=shards, series_stride=16,
    )
    peak_rss = _peak_rss_mb()
    headline = _outcome_record(outcome)
    headline["peak_rss_mb"] = round(peak_rss, 1)
    rolling_ratio = (
        outcome.arrivals / outcome.peak_active
        if outcome.peak_active
        else 0.0
    )
    headline["rolling_over_active"] = round(rolling_ratio, 1)
    print(
        f"headline  events={outcome.events_processed}  "
        f"events/s={outcome.events_per_s:.0f}  "
        f"peak_rss={peak_rss:.0f}MB  "
        f"rolling/active={rolling_ratio:.0f}x"
    )

    if outcome.events_per_s < min_events_per_s:
        failures.append(
            f"headline: {outcome.events_per_s:.0f} events/s < "
            f"{min_events_per_s:.0f} floor"
        )
    if peak_rss > max_rss_mb:
        failures.append(
            f"headline: peak RSS {peak_rss:.0f}MB > {max_rss_mb:.0f}MB cap"
        )
    if rolling_ratio < 10.0:
        failures.append(
            f"headline: rolling population only {rolling_ratio:.1f}x the "
            f"peak active set (< 10x) — not probing memory boundedness"
        )

    # --- BS-count sweep: cost tracks the neighbourhood, not #BS ------
    sweep = _bs_sweep(kernel, failures)

    report_doc = {
        "bench": "stream",
        "seed": SEED,
        "kernel": kernel,
        "shards": shards,
        "stream": {
            "rate_per_s": rate,
            "horizon_s": horizon_s,
            "holding_s": holding_s,
            "move_fraction": move_fraction,
        },
        "caps": {
            "min_events_per_s": min_events_per_s,
            "max_rss_mb": max_rss_mb,
            "min_rolling_over_active": 10.0,
            "sweep_max_work_growth": SWEEP_MAX_WORK_GROWTH,
            "sweep_min_rate_ratio": SWEEP_MIN_RATE_RATIO,
        },
        "gates": {
            "bit_exact": {
                "passed": bit_exact,
                "digest": gate_inc.digest,
                "admitted_cloud": gate_inc.admitted_cloud,
                "readmitted": gate_inc.readmitted,
            },
            "tolerance": {
                "passed": report.ok,
                "families_compared": report.families_compared,
                "events": mid_inc.events_processed,
            },
        },
        "headline": headline,
        "bs_sweep": sweep,
        "failures": failures,
    }
    OUTPUT.write_text(json.dumps(report_doc, indent=2) + "\n")
    print(f"wrote {OUTPUT}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("stream bench OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
