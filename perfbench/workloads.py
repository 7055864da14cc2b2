"""The three benchmark workloads and the layer spans that trace them.

Every workload runs in one process, with no worker pool, on inputs drawn
from its seed.  See ``perfbench/README.md`` for why each exists and
which end-to-end metric each per-layer metric should move.

A workload exposes ``setup(seed)`` (everything before the first timed
operation), ``measure(state, seed, seconds, log, clock)`` (the untraced
run that yields the end-to-end metrics, timed on ``clock``, a
:class:`refclock.RefClock`) and ``traced(state, seed, seconds, log)``
(an untraced and a traced copy of the same work on the wall clock,
which yields the per-layer metrics and the tracing overhead).  ``log``
is a :class:`RunLog` that counts operations and failed checks.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import takewhile

import repro.bound.certificate as certificate_mod
import repro.core.dmra as dmra_mod
import repro.core.preferences as preferences_mod
import repro.scale.executor as executor_mod
import repro.scale.runner as runner_mod
import repro.sim.metrics as metrics_mod
import repro.sim.scenario as scenario_mod
import repro.stream.engine as engine_mod
from repro.bound import certify_gap
from repro.compute.cru import LedgerPool
from repro.core.matching import IterativeMatchingEngine
from repro.core.soa import SoAMatchingEngine
from repro.dynamics.arrivals import ExponentialHolding, PoissonArrivals
from repro.model.batchnet import BatchNetworkBuilder
from repro.scale import run_sharded
from repro.sim.config import ScenarioConfig
from repro.sim.metrics import compute_metrics
from repro.stream import (
    IncrementalShardEngine,
    StreamConfig,
    StreamDispatcher,
    open_tape,
)

from loadgen import percentile, run_open_loop
from tracing import Tracer, self_time_table

@dataclass
class RunLog:
    """Operations attempted and failed, with what failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Count one correctness check against an operation."""
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stopwatch(clock=None):
    """Start timing; the returned callable gives ``(wall_s, ref_s)``.

    ``ref_s`` is read on ``clock`` (a ``RefClock``), or equals the wall
    time when there is none, as in the traced runs.
    """
    now = clock.now if clock is not None else time.perf_counter
    wall0, ref0 = time.perf_counter(), now()
    return lambda: (time.perf_counter() - wall0, now() - ref0)


# -- layer spans --------------------------------------------------------


def _count_links(recorder, args, kwargs, radio_map) -> None:
    recorder.count("radio.links", len(radio_map))


def _count_run(recorder, args, kwargs, assignment) -> None:
    ue_ids = kwargs.get("ue_ids")
    recorder.count(
        "core.batch_ues",
        len(ue_ids) if ue_ids is not None else args[1].ue_count,
    )
    recorder.count("core.rounds", assignment.rounds)
    recorder.count("core.grants", len(assignment.grants))


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap each layer's entry points where the program calls them."""
    wrap = tracer.wrap
    # model: scenario frame, per-shard networks, batch networks.
    wrap(runner_mod, "build_scenario_frame", "model.frame")
    wrap(executor_mod, "MECNetwork", "model.network")
    wrap(scenario_mod, "build_scenario", "model.scenario")
    wrap(BatchNetworkBuilder, "network_for", "model.batchnet")
    # radio: every radio map the sharded and streaming paths build.
    for owner in (executor_mod, runner_mod, engine_mod):
        wrap(owner, "build_radio_map", "radio.map", on_result=_count_links)
    # core: both Alg. 1 kernels, plus the Eq. 17 slack-term counter.
    wrap(IterativeMatchingEngine, "run", "core.object_run",
         on_result=_count_run)
    wrap(SoAMatchingEngine, "run", "core.soa_run", on_result=_count_run)
    wrap(dmra_mod, "dmra_slack_term", count="core.slack_terms")
    wrap(preferences_mod, "dmra_slack_term", count="core.slack_terms")
    # compute: ledger lookups, counted only (too small to time).
    wrap(LedgerPool, "ledger", count="compute.ledger_lookups")
    wrap(LedgerPool, "all_grants", count="compute.all_grants")
    # econ: profit statements and per-grant marginal profit.
    wrap(metrics_mod, "compute_profit", "econ.profit")
    wrap(engine_mod, "marginal_profit", "econ.profit")
    # scale: bucketing, per-shard glue, reconcile, re-proposal.  The
    # runner's phase helpers are private; a rename lands in ``missing``.
    wrap(runner_mod, "_bucket_ues", "scale.bucket")
    wrap(runner_mod, "run_shards", "scale.shards")
    wrap(runner_mod, "reconcile_claims", "scale.reconcile")
    wrap(runner_mod, "_repropose", "scale.repropose")
    # sim: outcome accounting and the network it is evaluated on.
    wrap(runner_mod, "_metrics_network", "sim.metrics_network")
    wrap(runner_mod, "compute_metrics", "sim.metrics")
    # bound: problem compile and subgradient iterations.
    wrap(certificate_mod, "compile_bound_problem", "bound.compile",
         on_result=lambda r, a, k, p: r.count("bound.pairs", p.n_pairs))
    wrap(certificate_mod, "lagrangian_bound", "bound.lagrangian",
         on_result=lambda r, a, k, o: r.count(
             "bound.iterations", o.iterations))
    # stream: the incremental engine's per-timestamp re-match, and the
    # dirty set's yield: cloud UEs re-proposed (the hook that hands the
    # flush its dirty set) and cloud UEs granted (the hook that drops a
    # readmitted UE from the blocked index).  Both hooks are private; a
    # rename lands in ``missing``.
    wrap(IncrementalShardEngine, "flush", "stream.flush",
         count="stream.flushes")
    wrap(IncrementalShardEngine, "_reproposal_ids",
         on_result=lambda r, a, k, ids: r.count(
             "stream.reproposed", len(ids)))
    wrap(IncrementalShardEngine, "_on_cloud_exit",
         count="stream.cloud_readmits")


def per_layer_metrics(
    tracer: Tracer, events: int, wall_s: float, untraced_s: float,
    extra: dict[str, float],
) -> tuple[dict[str, float], str]:
    """Fold spans and counters, plus the workload's ``extra`` metrics
    (read from its outcome or the open loop), into the per-layer metrics.

    Every traced run reports all of them; a span or counter that a
    workload never reaches reads 0.
    """
    times = tracer.self_times()
    counts = Counter(tracer.recorder.counters)

    def self_s(*names: str) -> float:
        return sum(times.get(name, (0, 0.0))[1] for name in names)

    def calls(name: str) -> int:
        return times.get(name, (0, 0.0))[0]

    runs = calls("core.object_run") + calls("core.soa_run")
    table, unattributed = self_time_table(tracer, wall_s)
    values = {
        "model.frame_s": self_s("model.frame"),
        "scale.bucket_s": self_s("scale.bucket"),
        "model.network_s": self_s("model.network"),
        "radio.map_s": self_s("radio.map"),
        "radio.links": counts["radio.links"],
        "core.match_s": self_s("core.object_run", "core.soa_run"),
        "core.object_run_s": self_s("core.object_run"),
        "core.object_runs": calls("core.object_run"),
        "core.soa_run_s": self_s("core.soa_run"),
        "core.soa_runs": calls("core.soa_run"),
        "core.rounds": counts["core.rounds"],
        "core.grants": counts["core.grants"],
        "core.batch_ues_mean": counts["core.batch_ues"] / runs if runs else 0,
        "core.slack_terms_per_event": counts["core.slack_terms"] / events,
        "compute.ledger_lookups_per_event": (
            counts["compute.ledger_lookups"] / events
        ),
        "compute.all_grants_per_event": counts["compute.all_grants"] / events,
        "scale.shards_s": self_s("scale.shards"),
        "scale.reconcile_s": self_s("scale.reconcile"),
        "scale.repropose_s": self_s("scale.repropose"),
        "sim.metrics_s": self_s("sim.metrics", "sim.metrics_network"),
        "econ.profit_s": self_s("econ.profit"),
        "model.scenario_s": self_s("model.scenario"),
        "bound.compile_s": self_s("bound.compile"),
        "bound.lagrangian_s": self_s("bound.lagrangian"),
        "bound.pairs": counts["bound.pairs"],
        "bound.iterations": counts["bound.iterations"],
        "model.batchnet_s": self_s("model.batchnet"),
        "stream.flush_s": self_s("stream.flush"),
        "stream.flushes": counts["stream.flushes"],
        "stream.readmit_yield": (
            counts["stream.cloud_readmits"] / counts["stream.reproposed"]
            if counts["stream.reproposed"] else 0.0
        ),
        "loadgen.late_ms_max": 0.0,
        "stream.backlog_max": 0,
        "scale.evictions": 0,
        "scale.reproposal_grants": 0,
        "unattributed_share": unattributed,
        "obs.trace_overhead": wall_s / untraced_s - 1.0,
    }
    values.update(extra)
    return values, table


# -- static-100k ----------------------------------------------------------


def wide_grid() -> ScenarioConfig:
    """The 15 km, 2,500-BS deployment (5 SPs x 500 BSs)."""
    return ScenarioConfig.paper(region_side_m=15000.0, bs_per_sp=500)


def _assignment_digest(assignment) -> str:
    digest = hashlib.sha256()
    for grant in sorted(assignment.grants, key=lambda g: g.ue_id):
        digest.update(f"{grant.ue_id}:{grant.bs_id}:{grant.rrbs};".encode())
    for ue_id in sorted(assignment.cloud_ue_ids):
        digest.update(f"c{ue_id};".encode())
    return digest.hexdigest()


class StaticWorkload:
    """One-shot TPM allocation at deployment scale, then a certificate."""

    name = "static-100k"
    ues = 100_000
    shards = 9
    bound_iterations = 150
    #: Allocations repeat until ``--seconds`` is used, at least this often.
    min_allocations = 3
    certificates = 2

    def setup(self, seed: int) -> ScenarioConfig:
        return wide_grid()

    def _allocate(self, config, seed: int, log: RunLog, clock=None):
        log.attempted += 1
        gc.collect()
        elapsed = stopwatch(clock)
        outcome = run_sharded(
            config, ue_count=self.ues, seed=seed, shards=self.shards,
            workers=1, kernel="soa",
        )
        wall, ref = elapsed()
        assignment = outcome.assignment
        log.check(
            len(assignment.grants) + len(assignment.cloud_ue_ids)
            == self.ues
            and outcome.metrics.ue_count == self.ues,
            "static: grants + cloud != UEs",
        )
        return outcome, wall, ref

    def _certify(self, config, seed: int, incumbent: float, log: RunLog,
                 clock=None):
        log.attempted += 1
        gc.collect()
        elapsed = stopwatch(clock)
        scenario = scenario_mod.build_scenario(config, self.ues, seed)
        certificate = certify_gap(
            scenario.network, scenario.radio_map, scenario.pricing,
            incumbent_profit=incumbent, method="lagrangian",
            max_iterations=self.bound_iterations,
        )
        wall, ref = elapsed()
        log.check(
            certificate.upper_bound >= certificate.incumbent_profit,
            "static: certificate upper bound below the incumbent",
        )
        return scenario, certificate, wall, ref

    def measure(self, config, seed: int, seconds: float, log: RunLog, clock):
        walls: list[float] = []
        refs: list[float] = []
        digest = None
        while True:
            # Drop the previous repeat first, so that it neither adds to
            # the peak RSS nor slows the collector during this one.
            outcome = None
            outcome, wall, ref = self._allocate(config, seed, log, clock)
            walls.append(wall)
            refs.append(ref)
            rep_digest = _assignment_digest(outcome.assignment)
            log.check(
                digest in (None, rep_digest),
                "static: repeated allocation of one seed differs",
            )
            digest = rep_digest
            if (
                len(walls) >= self.min_allocations
                and sum(walls) + wall > seconds
            ):
                break
        profit = outcome.metrics.total_profit
        certify_walls: list[float] = []
        certify_refs: list[float] = []
        for _ in range(self.certificates):
            scenario = None
            scenario, certificate, wall, ref = self._certify(
                config, seed, profit, log, clock
            )
            certify_walls.append(wall)
            certify_refs.append(ref)
        # Read before the check below, which is not part of the workload.
        rss_mb = peak_rss_mb()
        recomputed = compute_metrics(
            scenario.network, outcome.assignment, scenario.pricing
        ).total_profit
        log.check(
            math.isclose(recomputed, profit, rel_tol=1e-9),
            f"static: recomputed profit {recomputed!r} != reported "
            f"{profit!r}",
        )
        alloc_s = statistics.median(refs)
        certify_s = statistics.median(certify_refs)
        report = {
            "alloc_ues_per_s": (self.ues / alloc_s, "UE/ref-s"),
            "alloc_ues_per_wall_s": (
                self.ues / statistics.median(walls), "UE/s"
            ),
            "certify_s": (certify_s, "ref-s"),
            "certify_wall_s": (statistics.median(certify_walls), "s"),
            "total_profit": (profit, "profit"),
            "gap_fraction": (certificate.gap_fraction, "ratio"),
            "allocations": (len(walls), "count"),
            "certificates": (len(certify_walls), "count"),
        }
        e2e = {
            "ops_per_s": self.ues / alloc_s,
            # Every UE of a batch gets its certified decision when the
            # allocation and the certificate have both returned.
            "latency_p50_ms": (alloc_s + certify_s) * 1e3,
            "profit_per_ue": profit / self.ues,
            "peak_rss_mb": rss_mb,
        }
        return e2e, report

    def traced(self, config, seed: int, seconds: float, log: RunLog):
        outcome, alloc_s, _ = self._allocate(config, seed, log)
        profit = outcome.metrics.total_profit
        scenario, _, certify_s, _ = self._certify(config, seed, profit, log)
        del scenario
        tracer = Tracer()
        install_layer_spans(tracer)
        try:
            with tracer.span("op.allocate"):
                traced_outcome, traced_alloc_s, _ = self._allocate(
                    config, seed, log
                )
            with tracer.span("op.certify"):
                _, _, traced_certify_s, _ = self._certify(
                    config, seed, profit, log
                )
        finally:
            tracer.uninstall()
        log.check(
            _assignment_digest(traced_outcome.assignment)
            == _assignment_digest(outcome.assignment),
            "static: traced allocation differs from untraced",
        )
        values, table = per_layer_metrics(
            tracer, self.ues, traced_alloc_s + traced_certify_s,
            alloc_s + certify_s,
            {
                "scale.evictions": traced_outcome.total_evictions,
                "scale.reproposal_grants": traced_outcome.reproposal_grants,
            },
        )
        return tracer, values, table


# -- stream-wide / stream-saturated ------------------------------------


@dataclass(frozen=True)
class StreamWorkload:
    """Churn through the incremental engine, closed- and open-loop."""

    name: str
    config: ScenarioConfig
    stream: StreamConfig
    #: Open-loop release rate: tape seconds per wall second.
    speedup: float
    #: Tape prefix, in events, replayed through the from-scratch oracle.
    oracle_events: int
    #: Closed-loop passes per run, at least.
    min_passes: int

    def open(self, seed: int, mode: str = "incremental"):
        """A fresh dispatcher and the arrival-horizon events of its tape."""
        tape = open_tape(self.config, self.stream, seed)
        dispatcher = StreamDispatcher(tape, mode=mode, kernel="auto")
        horizon = self.stream.horizon_s
        events = list(
            takewhile(lambda e: e.time_s <= horizon, dispatcher.events())
        )
        return dispatcher, events

    def setup(self, seed: int):
        return self.open(seed)

    @property
    def open_loop_s(self) -> float:
        return self.stream.horizon_s / self.speedup

    def _traced_pass(self, state, log: RunLog, tracer: Tracer):
        dispatcher, events = state
        log.attempted += len(events)
        span = tracer.span
        gc.collect()
        start = time.perf_counter()
        for event in events:
            with span("op.dispatch"):
                dispatcher.dispatch(event)
        with span("op.finish"):
            outcome = dispatcher.finish()
        return outcome, time.perf_counter() - start

    def _open_pass(self, seed: int, log: RunLog):
        dispatcher, events = self.open(seed)
        log.attempted += len(events)
        gc.collect()
        result = run_open_loop(dispatcher.dispatch, events, self.speedup)
        return dispatcher.finish(), result

    def _warm_up(self, seed: int) -> None:
        """Replay the oracle's tape prefix untimed, so that first-call
        costs (lazy imports, allocator growth) fall outside the passes."""
        dispatcher, events = self.open(seed)
        for event in events[: self.oracle_events]:
            dispatcher.dispatch(event)
        dispatcher.finish()

    def _oracle(self, seed: int, log: RunLog) -> None:
        """Incremental vs from-scratch digests on a tape prefix."""
        digests = []
        for mode in ("incremental", "rescratch"):
            dispatcher, events = self.open(seed, mode=mode)
            for event in events[: self.oracle_events]:
                dispatcher.dispatch(event)
            digests.append(dispatcher.finish().digest)
        log.attempted += 1
        log.check(
            digests[0] == digests[1],
            f"{self.name}: incremental digest != rescratch digest on the "
            f"first {self.oracle_events} events",
        )

    def _timed_pass(self, state, log: RunLog, clock=None):
        """A closed-loop pass with every dispatch timed on ``clock`` (on
        the wall clock when there is none)."""
        dispatcher, events = state
        log.attempted += len(events)
        now = clock.now if clock is not None else time.perf_counter
        latencies = []
        gc.collect()
        elapsed = stopwatch(clock)
        for event in events:
            start = now()
            dispatcher.dispatch(event)
            latencies.append(now() - start)
        outcome = dispatcher.finish()
        wall, ref = elapsed()
        return outcome, wall, ref, latencies

    def measure(self, state, seed: int, seconds: float, log: RunLog, clock):
        # Closed-loop passes fill what the open-loop pass, fixed by the
        # tape, leaves of ``seconds``; at least ``min_passes`` of them.
        budget = seconds - self.open_loop_s
        self._warm_up(seed)
        walls: list[float] = []
        refs: list[float] = []
        latencies: list[float] = []
        closed = None
        while True:
            outcome, wall, ref, pass_latencies = self._timed_pass(
                state, log, clock
            )
            walls.append(wall)
            refs.append(ref)
            latencies += pass_latencies
            log.check(
                closed is None or outcome.digest == closed.digest,
                f"{self.name}: repeated closed-loop passes differ",
            )
            closed = outcome
            if len(walls) >= self.min_passes and sum(walls) + wall > budget:
                break
            state = self.open(seed)
        # The open loop keeps its own wall-clock schedule, so the clock
        # takes no samples that would delay its dispatches.
        with clock.paused():
            opened, result = self._open_pass(seed, log)
        log.check(
            opened.digest == closed.digest,
            f"{self.name}: open-loop digest != closed-loop digest",
        )
        # Read before the oracle, whose monolithic network is not part
        # of the workload and whose size depends on the seed.
        rss_mb = peak_rss_mb()
        self._oracle(seed, log)
        events = closed.events_processed
        events_per_s = statistics.median(events / ref for ref in refs)
        dispatch_p50 = statistics.median(latencies) * 1e3
        sojourn_ms = [s * 1e3 for s in result.sojourn_s]
        report = {
            "events_per_s": (events_per_s, "events/ref-s"),
            "events_per_wall_s": (
                events / statistics.median(walls), "events/s"
            ),
            "dispatch_p50_ms": (dispatch_p50, "ref-ms"),
            "dispatch_samples": (len(latencies), "count"),
            "sojourn_p50_ms": (percentile(sojourn_ms, 50), "ms"),
            "sojourn_p90_ms": (percentile(sojourn_ms, 90), "ms"),
            "sojourn_p99_ms": (percentile(sojourn_ms, 99), "ms"),
            "sojourn_samples": (len(sojourn_ms), "count"),
            "blocking": (closed.blocking_probability, "ratio"),
            "total_profit": (closed.total_profit, "profit"),
            "closed_passes": (len(walls), "count"),
            "open_loop_rate": (
                len(sojourn_ms) / self.open_loop_s, "events/s"
            ),
            "loadgen_late_ms_max": (result.late_max_s * 1e3, "ms"),
            "backlog_max": (result.backlog_max, "count"),
        }
        e2e = {
            "ops_per_s": events_per_s,
            "latency_p50_ms": dispatch_p50,
            "profit_per_ue": closed.total_profit / closed.arrivals,
            "peak_rss_mb": rss_mb,
        }
        return e2e, report

    def traced(self, state, seed: int, seconds: float, log: RunLog):
        outcome, untraced_s, _, _ = self._timed_pass(state, log)
        tracer = Tracer()
        install_layer_spans(tracer)
        try:
            traced_state = self.open(seed)
            traced_outcome, wall = self._traced_pass(
                traced_state, log, tracer
            )
        finally:
            tracer.uninstall()
        log.check(
            traced_outcome.digest == outcome.digest,
            f"{self.name}: traced pass digest != untraced",
        )
        _, result = self._open_pass(seed, log)
        values, table = per_layer_metrics(
            tracer, outcome.events_processed, wall, untraced_s,
            {
                "loadgen.late_ms_max": result.late_max_s * 1e3,
                "stream.backlog_max": result.backlog_max,
            },
        )
        return tracer, values, table


WORKLOADS = {
    "static-100k": StaticWorkload(),
    # Light churn on the 2,500-BS grid: re-matches carry 1-2 UEs and
    # nothing blocks, so per-flush set-up over every BS dominates.
    "stream-wide": StreamWorkload(
        name="stream-wide",
        config=wide_grid(),
        stream=StreamConfig(
            horizon_s=12.0,
            arrivals=PoissonArrivals(rate_per_s=40.0),
            holding=ExponentialHolding(mean_s=12.0),
            move_fraction=0.05,
        ),
        speedup=1.0,
        oracle_events=100,
        # Passes take about 6 s; a median of three ignores one that a
        # slow spell of the host covers.
        min_passes=3,
    ),
    # The paper's 25-BS deployment driven into saturation: about half
    # the arrivals block, so dirty-set re-proposals and large batches on
    # the SoA kernel do the work.
    "stream-saturated": StreamWorkload(
        name="stream-saturated",
        config=ScenarioConfig.paper(),
        stream=StreamConfig(
            horizon_s=60.0,
            arrivals=PoissonArrivals(rate_per_s=40.0),
            holding=ExponentialHolding(mean_s=60.0),
            move_fraction=0.05,
        ),
        speedup=6.0,
        oracle_events=600,
        # Passes take about 3.5 s; a median of four is less at the
        # mercy of one slow spell than a mean of two.
        min_passes=4,
    ),
}
