"""Kernel hot-path benchmark — events/sec pinned against the pre-PR tree.

Measures three things and writes them to ``BENCH_kernel.json`` at the
repo root:

* a **pure-kernel microbench** — timeout-ping processes driving only
  :class:`repro.sim.core.Environment`, no protocol stack — isolating the
  event-loop cost itself;
* the **golden scenario** (``repro.scenarios``' ``golden``) in
  events/sec, with the speedup ratio against the pre-PR baseline pinned
  below; this ratio is the headline number for the Tier P lint fixes
  (``__slots__`` sweep, hot-loop lookup binding, merkle leaf/proof
  caches, closure-free journal, crypto/ICS-20 memoisation);
* the **Fig. 12 workload** (``repro.scenarios``' ``fig12``: 5 000
  transfers submitted in one block, run to completion) in wall-clock seconds — the paper's heaviest single
  experiment.

Timing methodology: every series runs in-process with warmup iterations
first (so ``lru_cache`` memos and allocator arenas are steady-state),
then ``REPS`` measured repetitions; the artifact records median and min.
The container's wall clock is noisy (single golden runs vary ±40 %), so
the median is the comparable figure and the min bounds the noise floor.

The ``accounting`` section of the artifact is fully deterministic —
event counts and the SHA-256 of the golden report JSON — and is what the
byte-stability test in ``tests/test_bench_kernel.py`` re-derives.  The
``timing`` section is honest measurement and excluded from any
byte-stability claim.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics

from repro.framework import ExperimentConfig, run_experiment
from repro.parallel import hostclock
from repro.scenarios import scenario
from repro.sim.core import Environment

ARTIFACT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_kernel.json",
)

#: Pre-PR baseline, measured on this container at the tree before the
#: Tier P hot-path fixes (same methodology: warmup + median of repeats).
PRE_PR_BASELINE = {
    "golden_median_wall_seconds": 0.17452,
    "golden_events_per_second": 11534.0,
    "fig12_median_wall_seconds": 4.636,
}

GOLDEN_WARMUP = 2
GOLDEN_REPS = 9
FIG12_WARMUP = 1
FIG12_REPS = 3


# -- pure-kernel microbench ------------------------------------------------------

MICRO_PROCESSES = 200
MICRO_HORIZON = 500.0


def _ping(env: Environment, horizon: float):
    while env.now < horizon:
        yield env.timeout(1.0)


def run_kernel_microbench() -> tuple[int, float]:
    """(events processed, wall seconds) for the bare event loop."""
    env = Environment()
    pingers = [
        env.process(_ping(env, MICRO_HORIZON)) for _ in range(MICRO_PROCESSES)
    ]
    start = hostclock.now()
    env.run(until=MICRO_HORIZON)
    wall = hostclock.elapsed_since(start)
    assert all(p.processed for p in pingers)
    return env.events_processed, wall


# -- timing harness --------------------------------------------------------------


def _time_series(fn, warmup: int, reps: int) -> tuple[list[float], object]:
    """Run ``fn`` warmup+reps times; return measured walls and last result."""
    result = None
    for _ in range(warmup):
        result = fn()
    walls = []
    for _ in range(reps):
        start = hostclock.now()
        result = fn()
        walls.append(hostclock.elapsed_since(start))
    return walls, result


def run_bench() -> dict:
    # The microbench times itself (wall covers only env.run, not setup).
    run_kernel_microbench()  # warmup
    micro_runs = [run_kernel_microbench() for _ in range(5)]
    micro_events = micro_runs[0][0]
    micro_median = statistics.median(wall for _events, wall in micro_runs)

    golden = scenario("golden", 7)
    golden_walls, golden_report = _time_series(
        lambda: run_experiment(scenario("golden", 7)), GOLDEN_WARMUP, GOLDEN_REPS
    )
    golden_median = statistics.median(golden_walls)
    golden_min = min(golden_walls)
    golden_json = golden_report.to_json()
    golden_events = run_events_count(golden)

    fig12_walls, fig12_report = _time_series(
        lambda: run_experiment(scenario("fig12", 1)), FIG12_WARMUP, FIG12_REPS
    )
    fig12_median = statistics.median(fig12_walls)

    baseline_eps = PRE_PR_BASELINE["golden_events_per_second"]
    golden_eps = golden_events / golden_median
    return {
        "accounting": {
            "golden_events": golden_events,
            "golden_report_sha256": hashlib.sha256(
                golden_json.encode()
            ).hexdigest(),
            "fig12_events": run_events_count(scenario("fig12", 1)),
            "microbench_events": micro_events,
        },
        "timing": {
            "microbench": {
                "processes": MICRO_PROCESSES,
                "horizon": MICRO_HORIZON,
                "median_wall_seconds": micro_median,
                "events_per_second": micro_events / micro_median,
            },
            "golden": {
                "reps": GOLDEN_REPS,
                "median_wall_seconds": golden_median,
                "min_wall_seconds": golden_min,
                "events_per_second": golden_eps,
                "baseline_events_per_second": baseline_eps,
                "speedup_vs_pre_pr": golden_eps / baseline_eps,
            },
            "fig12": {
                "reps": FIG12_REPS,
                "median_wall_seconds": fig12_median,
                "baseline_median_wall_seconds": PRE_PR_BASELINE[
                    "fig12_median_wall_seconds"
                ],
                "speedup_vs_pre_pr": PRE_PR_BASELINE["fig12_median_wall_seconds"]
                / fig12_median,
            },
        },
    }


def run_events_count(config: ExperimentConfig) -> int:
    """Deterministic event count for ``config`` (one instrumented run)."""
    from repro.framework.runner import _ExperimentEngine

    engine = _ExperimentEngine(config)
    engine.run()
    return engine.testbed.env.events_processed


def test_kernel_bench(benchmark):
    result = benchmark.pedantic(run_bench, rounds=1, iterations=1)

    timing = result["timing"]
    accounting = result["accounting"]
    print(
        f"\nKernel benchmark:\n"
        f"  microbench : {timing['microbench']['events_per_second']:,.0f} ev/s "
        f"({accounting['microbench_events']} events)\n"
        f"  golden     : {timing['golden']['events_per_second']:,.0f} ev/s "
        f"({timing['golden']['speedup_vs_pre_pr']:.2f}x vs pre-PR "
        f"{timing['golden']['baseline_events_per_second']:,.0f} ev/s)\n"
        f"  fig12      : {timing['fig12']['median_wall_seconds']:.2f}s "
        f"({timing['fig12']['speedup_vs_pre_pr']:.2f}x vs pre-PR "
        f"{timing['fig12']['baseline_median_wall_seconds']:.2f}s)"
    )

    # Deterministic accounting: the golden scenario always simulates the
    # same event count (the committed artifact pins the exact figures).
    assert accounting["golden_events"] == 2013
    assert accounting["fig12_events"] == 12137

    # The hot-path fixes hold their speedup.  The container clock is
    # noisy, so assert a conservative floor here; the committed artifact
    # records the honest median ratio (>= 1.25x when pinned).
    assert timing["golden"]["speedup_vs_pre_pr"] >= 1.2, (
        f"golden speedup fell to "
        f"{timing['golden']['speedup_vs_pre_pr']:.2f}x vs pre-PR baseline"
    )
    assert timing["fig12"]["speedup_vs_pre_pr"] >= 1.5

    with open(ARTIFACT, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(f"  numbers written to {ARTIFACT}")
