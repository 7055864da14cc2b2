"""Steadiness mode: repeat runs and check the spread against the bounds.

    python3 perfbench/steady.py --workload stream-wide --runs 10
    python3 perfbench/steady.py --runs 10 --sets 2     # every workload

Runs ``perfbench/run.py`` once per seed (seeds 1 .. ``--runs``),
``--sets`` times over, and prints for each end-to-end metric of
``BENCHMARK.json`` the median and the quartiles of its values, the
spread ``(Q3 - Q1) / median`` and its bound.  A metric is flagged when
its spread exceeds the bound or, with two or more sets, when a later
set's median is worse than the first set's by more than the bound.
Exits 1 when anything is flagged or a run fails.  Raw results go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 180


def _run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, Q1, Q3, (Q3 - Q1) / median)``."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else 0.0


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of it."""
    change = (later - first) / abs(first) if first else 0.0
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    seeds = range(1, args.runs + 1)
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)

    flagged: list[str] = []
    for workload in workloads:
        sets = []
        for set_index in range(args.sets):
            results = []
            for seed in seeds:
                result = _run(workload, seed, spec["run_seconds"])
                if not result["correct"]:
                    flagged.append(f"{workload} seed {seed}: incorrect")
                results.append(result)
                print(f"  {workload} set {set_index} seed {seed}: "
                      + "  ".join(
                          f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                          for m in metrics
                      ), flush=True)
            sets.append(results)
            (out_dir / f"steady-{workload}-set{set_index}.json").write_text(
                json.dumps(results, indent=1) + "\n"
            )
        print(f"{workload}: {args.runs} runs x {args.sets} sets")
        print(f"  {'metric':<16}{'median':>14}{'Q1':>14}{'Q3':>14}"
              f"{'spread':>9}{'bound':>7}")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                median, q1, q3, rel = spread(values)
                medians.append(median)
                flag = ""
                if rel > bound:
                    flag = "  SPREAD > BOUND"
                    flagged.append(f"{workload} {name}: spread {rel:.3f}")
                elif rel > bound / 3:
                    flag = "  (spread > bound/3)"
                print(f"  {name:<16}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                      f"{rel:>9.3f}{bound:>7.2f}{flag}")
            for later in medians[1:]:
                drift = worse_by(medians[0], later, metric["better"])
                if drift > bound:
                    flagged.append(
                        f"{workload} {name}: later set worse by {drift:.3f}"
                    )
    for item in flagged:
        print(f"FLAG: {item}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
