"""Print every benchmark metric of every workload, with its spread.

Usage (from the repository root)::

    python3 ibcbench/ledger.py [--runs 5] [--workload NAME ...]

Runs ``run.py`` ``--runs`` times per workload of BENCHMARK.json (or per
``--workload``) with ``--trace 0``, at seeds 1, 2, ..., and once with
``--trace 1`` at seed 1, each for BENCHMARK.json's ``run_seconds``.
Prints, per workload and metric, the unit, sample count, median and
quartiles, and the interquartile spread as a share of the median next to
the metric's bound in ``BENCHMARK.json``; and the seeds, ``cpu_count`` and
Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from run import END_TO_END, HERE, PER_LAYER, ROOT
from workloads import WORKLOADS

#: Seed of the first run; run k of a workload uses FIRST_SEED + k.
FIRST_SEED = 1


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    for line in completed.stdout.splitlines()[:-1]:
        print(f"  {line}")
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: run.py exited "
                         f"{completed.returncode}\n{completed.stderr}")
    return json.loads(lines[-1])


def summarize(runs: list[dict], units: dict[str, str], limits: dict[str, float]):
    rows = []
    for name, unit in units.items():
        values = [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]
        if not values:
            continue
        q1, median, q3 = quartiles(values)
        spread = (q3 - q1) / median if median else 0.0
        rows.append({"metric": name, "unit": unit, "n": len(values), "median": median,
                     "q1": q1, "q3": q3, "spread": spread, "bound": limits.get(name)})
    return rows


def print_rows(rows: list[dict]) -> None:
    for row in rows:
        bound = "" if row["bound"] is None else f"  bound {row['bound']:.2f}"
        print(f"  {row['metric']:<42} {row['unit']:<9} n={row['n']:<3}"
              f" median {row['median']:<14.6g} q1 {row['q1']:<14.6g}"
              f" q3 {row['q3']:<14.6g} spread {row['spread']:.3f}{bound}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    spec = benchmark_spec()
    limits = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    print(f"cpu_count {os.cpu_count()}  python {platform.python_version()}  "
          f"seconds per run {seconds:g}")
    correct = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        seeds = [FIRST_SEED + i for i in range(args.runs)]
        plain = [bench(workload, s, seconds, 0) for s in seeds]
        traced = bench(workload, FIRST_SEED, seconds, 1)
        runs = plain + [traced]
        correct = correct and all(run["correct"] for run in runs)
        print(f"{workload}: seeds {seeds}  correct "
              f"{all(run['correct'] for run in runs)}  "
              f"attempted {sum(run['attempted'] for run in runs)}  "
              f"failed {sum(run['failed'] for run in runs)}")
        print_rows(summarize(plain, END_TO_END, limits))
        print_rows(summarize([traced], PER_LAYER, {}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
