"""One benchmark run of the DMRA reproduction.

    python3 perfbench/run.py --workload stream-wide --seed 3 \
        --seconds 20 --trace 0

Runs one workload of ``perfbench/workloads.py`` on inputs drawn from
``--seed`` and prints a human-readable report followed, as the last
line of standard output, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` measures the end-to-end metrics listed in
``BENCHMARK.json``, timed in reference seconds on the speed-corrected
clock of ``refclock.py`` from the first statement below; the report
lines give the wall-clock figures too.  ``--trace 1`` makes an untraced
and a traced copy of the same work on the wall clock and reports the
per-layer metrics (self times, work counters, tracing overhead) and
writes the spans to ``perfbench/out/``.  The run exits non-zero
without a result when the ``repro`` sources are not next to it.
"""

from refclock import RefClock

CLOCK = RefClock().start()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
#: Extra fresh processes that repeat the set-up, for a median of three
#: samples with this process's own: one before the measured work and
#: one after it.
SETUP_PROBES_BEFORE = 1
SETUP_PROBES_AFTER = 1
PROBE_TIMEOUT_S = 60


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe-setup", action="store_true",
        help="only time the set-up, print it and exit (used internally)",
    )
    return parser.parse_args(argv)


def _probe_setup(args, probes: int) -> list[float]:
    """Set-up seconds measured in ``probes`` fresh interpreters."""
    values = []
    for _ in range(probes):
        with CLOCK.paused():
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--probe-setup"],
                cwd=ROOT, capture_output=True, text=True,
                timeout=PROBE_TIMEOUT_S, check=True,
            )
        values.append(float(proc.stdout.strip().splitlines()[-1]))
    return values


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS, RunLog

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; choose one of "
            f"{', '.join(WORKLOADS)}", file=sys.stderr,
        )
        return 2
    state = workload.setup(args.seed)
    setup_s = CLOCK.now()
    if args.probe_setup:
        print(repr(setup_s))
        return 0

    log = RunLog()
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    if args.trace:
        # Per-layer self times are wall time, with no samples between.
        CLOCK.stop()
        tracer, values, table = workload.traced(
            state, args.seed, args.seconds, log
        )
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        print("self time per span (traced run)")
        print(table)
        listed = spec["per_layer"]
    else:
        setup_samples = [setup_s] + _probe_setup(args, SETUP_PROBES_BEFORE)
        e2e, report = workload.measure(
            state, args.seed, args.seconds, log, CLOCK
        )
        setup_samples += _probe_setup(args, SETUP_PROBES_AFTER)
        CLOCK.stop()
        setup_median = statistics.median(setup_samples)
        report["setup_s"] = (setup_median, "ref-s")
        report["clock_samples"] = (CLOCK.samples, "count")
        report["peak_rss_mb"] = (e2e["peak_rss_mb"], "MB")
        report["error_rate"] = (log.failed / max(log.attempted, 1), "ratio")
        for name, (value, unit) in report.items():
            print(f"  {name:<22}{value:>16.6g}  {unit}")
        values = dict(e2e, setup_s=setup_median)
        listed = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in listed
    }
    for problem in log.problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        CLOCK.stop()
    sys.exit(code)
