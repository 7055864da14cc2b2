"""Checks of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench -q

The counter test makes two traced runs of every workload (several
minutes in total); the open-loop and clock tests take under a second.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from loadgen import LEAD_S, run_open_loop  # noqa: E402
from refclock import RefClock  # noqa: E402

WORKLOADS = [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text()
)["workloads"]]

#: Per-layer metrics that count work and must not depend on timing.
DETERMINISTIC = (
    "radio.links",
    "core.object_runs",
    "core.soa_runs",
    "core.rounds",
    "core.grants",
    "core.batch_ues_mean",
    "core.slack_terms_per_event",
    "compute.ledger_lookups_per_event",
    "compute.all_grants_per_event",
    "scale.evictions",
    "scale.reproposal_grants",
    "bound.pairs",
    "bound.iterations",
    "stream.flushes",
    "stream.readmit_yield",
)


def _traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_counters_repeat_exactly(workload):
    first = _traced_run(workload, 7)
    second = _traced_run(workload, 7)
    assert first["correct"] and second["correct"]
    for name in DETERMINISTIC:
        assert (
            first["metrics"][name]["value"]
            == second["metrics"][name]["value"]
        ), name


Event = namedtuple("Event", "time_s cost")


def test_open_loop_charges_a_stall_to_later_events():
    now = [0.0]

    def clock():
        return now[0]

    def sleep(seconds):
        now[0] += seconds

    def dispatch(event):
        now[0] += event.cost

    events = [Event(0.0, 2.5), Event(1.0, 0.1), Event(2.0, 0.1),
              Event(3.0, 0.1)]
    result = run_open_loop(dispatch, events, 1.0, clock=clock, sleep=sleep)
    assert result.sojourn_s == pytest.approx([2.5, 1.6, 0.7, 0.1])
    assert result.backlog_max == 1
    assert result.late_max_s == pytest.approx(0.0)
    assert result.wall_s == pytest.approx(3.1)
    assert now[0] == pytest.approx(LEAD_S + 3.1)


def test_ref_clock_samples_only_while_armed():
    previous = signal.getsignal(signal.SIGALRM)
    clock = RefClock(interval_s=0.02).start()
    try:
        deadline = time.perf_counter() + 0.3
        first = clock.now()
        while time.perf_counter() < deadline:
            pass
        assert clock.now() > first
        busy_samples = clock.samples
        with clock.paused():
            paused_samples = clock.samples
            time.sleep(0.1)
            assert clock.samples == paused_samples
    finally:
        clock.stop()
    # One sample at start, then one per interval of busy wall time.
    assert busy_samples >= 4
    assert signal.getsignal(signal.SIGALRM) is previous
