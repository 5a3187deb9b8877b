"""The repository benchmark: one IBC workload, phase-split and layer-attributed.

Usage (from the repository root)::

    python3 ibcbench/run.py --workload fig12_burst --seed 1 --seconds 60 --trace 0

Each repeat runs one experiment in a fresh interpreter (``child.py``), one
at a time, in rounds: a ``--trace 0`` round runs the experiment seeds
``--seed`` to ``--seed + SEEDS_PER_RUN - 1`` once each, a ``--trace 1``
round runs ``--seed`` once untraced and once traced.  Rounds continue until
the next one would end after ``--seconds``; a run makes at least one.

Every repeat passes the correctness gate or counts as failed (and the run
ends after that round): its accounting must equal the pinned accounting
for its seed in ``pins.json`` (when the seed is pinned), equal every other
repeat of that seed in this run (traced ones included), and satisfy the
workload's invariants.

``--trace 0`` prints the end-to-end metrics: medians over the untraced
repeats of the host-clock phases and peak RSS.  ``--trace 1`` alternates
untraced and traced repeats and prints the per-layer metrics: self times
(medians over traced repeats), work counts, the tracing overhead, and the
simulated outcome of the seed.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import outcome  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Experiment seeds a --trace 0 run cycles through, starting at --seed.
#: Their simulated workloads differ (fig12_burst: 12 137 to 13 426 events
#: over seeds 1-5), so one seed per run would carry that into the spread.
SEEDS_PER_RUN = 3
#: A child that takes longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0

#: End-to-end metrics: name -> unit.  All are host-side costs; the
#: simulated outcome is gated exactly by the pins and reported per layer,
#: because it differs between seeds by more than any bound allows.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "simulate_s": "s",
    "sim_events_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: The simulated outcome of the run's seed (deterministic).
OUTCOME = {
    "sim_latency_p50_s": "sim_s",
    "sim_latency_p99_s": "sim_s",
    "sim_goodput_tps": "tx/sim_s",
    "failed_share": "share",
    "workload.latency_samples": "count",
}

#: Layers whose host self time the traced run reports.
SELF_TIME_LAYERS = (
    "sim",
    "tendermint.consensus",
    "tendermint.mempool",
    "tendermint.rpc",
    "tendermint.websocket",
    "tendermint.merkle",
    "cosmos.accounts",
    "cosmos.bank",
    "cosmos.app",
    "ibc.module",
    "relayer",
    "relayer.fleet",
    "workload",
    "framework",
)

#: Per-layer metrics: name -> unit.
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in SELF_TIME_LAYERS},
    "sim.events": "count",
    "tendermint.consensus.blocks": "count",
    "tendermint.consensus.block_interval_p50_s": "sim_s",
    "tendermint.mempool.add_calls": "count",
    "tendermint.mempool.rejected": "count",
    "tendermint.mempool.evicted": "count",
    "tendermint.rpc.requests": "count",
    "tendermint.rpc.busy_sim_s": "sim_s",
    "tendermint.rpc.pull_fraction": "share",
    "tendermint.websocket.frames": "count",
    "tendermint.websocket.max_frame_bytes": "bytes",
    "tendermint.merkle.proofs": "count",
    "cosmos.accounts.created": "count",
    "cosmos.app.deliver_txs": "count",
    "ibc.module.sends": "count",
    "ibc.module.recvs": "count",
    "ibc.module.acks": "count",
    "ibc.module.pending_scans": "count",
    "relayer.txs_submitted": "count",
    "relayer.fleet.useful_ratio": "share",
    "relayer.fleet.redundant_errors": "count",
    "workload.arrivals": "count",
    "framework.report_s": "s",
    "framework.serialize_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    **OUTCOME,
}


def load_pins() -> dict:
    with open(os.path.join(HERE, "pins.json")) as handle:
        return json.load(handle)


def run_child(workload: str, seed: int, traced: bool) -> dict:
    """One experiment in a fresh interpreter; raises RuntimeError on failure."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    try:
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
             "1" if traced else "0"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"experiment exceeded {CHILD_TIMEOUT_S} s") from exc
    if completed.returncode != 0:
        tail = completed.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"experiment exited {completed.returncode}: {tail[0]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def gate(result: dict, pinned: dict | None, reference: dict | None) -> list[str]:
    """Why ``result`` fails the correctness gate ([] when it passes)."""
    problems = list(result["problems"])
    if pinned is not None:
        problems += [f"pin {p}" for p in outcome.mismatches(result["accounting"], pinned)]
    if reference is not None:
        problems += [
            f"repeat {p}"
            for p in outcome.mismatches(result["accounting"], reference["accounting"])
        ]
    if result["traced"]:
        attributed = sum(result["self_s"].values())
        gap = abs(attributed - result["phases"]["wall_s"])
        if gap > 1e-3 * result["phases"]["wall_s"]:
            problems.append(
                f"layer self times sum to {attributed:.4f} s, traced wall_s is "
                f"{result['phases']['wall_s']:.4f} s"
            )
    return problems


def end_to_end_metrics(untraced: list[dict]) -> dict[str, float]:
    median = statistics.median
    phases = [r["phases"] for r in untraced]
    return {
        "wall_s": median(p["wall_s"] for p in phases),
        "setup_s": median(p["setup_s"] for p in phases),
        "simulate_s": median(p["simulate_s"] for p in phases),
        "sim_events_per_s": median(
            r["accounting"]["events"] / r["phases"]["simulate_s"] for r in untraced
        ),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced),
    }


def per_layer_metrics(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    median = statistics.median
    values: dict[str, float] = {
        f"{layer}.self_s": median(r["self_s"].get(layer, 0.0) for r in traced)
        for layer in SELF_TIME_LAYERS
    }
    values.update(traced[0]["counts"])
    values.update(traced[0]["sim"])
    values["framework.report_s"] = median(r["phases"]["report_s"] for r in untraced)
    values["framework.serialize_s"] = median(
        r["phases"]["serialize_s"] for r in untraced
    )
    traced_wall = median(r["phases"]["wall_s"] for r in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - median(
        r["phases"]["wall_s"] for r in untraced
    )
    values["trace.spans"] = median(sum(r["spans"].values()) for r in traced)
    return values


def measure(workload: str, seed: int, seconds: float, trace: bool, log) -> dict:
    """Run rounds of repeats for ``seconds``; return the result object to print.

    A ``--trace 0`` round runs each of the experiment seeds ``seed`` ..
    ``seed + SEEDS_PER_RUN - 1`` once, so every seed weighs the same in the
    medians; a ``--trace 1`` round runs the experiment of ``seed`` once
    untraced and once traced.
    """
    if trace:
        schedule = [(seed, False), (seed, True)]
    else:
        schedule = [(seed + offset, False) for offset in range(SEEDS_PER_RUN)]
    pins = load_pins().get(workload, {})
    unpinned = sorted({s for s, _ in schedule if str(s) not in pins})
    if unpinned:
        log(f"{workload} seeds {unpinned} are not pinned: gating them on repeat "
            "agreement and invariants only")
    runs: dict[bool, list[dict]] = {False: [], True: []}
    references: dict[int, dict] = {}
    attempted = failed = 0
    started = time.perf_counter()
    longest_round = 0.0
    while not failed:
        if attempted and time.perf_counter() - started + longest_round > seconds:
            break
        round_started = time.perf_counter()
        for experiment_seed, traced in schedule:
            attempted += 1
            label = f"{workload} seed {experiment_seed} repeat {attempted}"
            try:
                result = run_child(workload, experiment_seed, traced)
            except RuntimeError as exc:
                failed += 1
                print(f"{label} failed: {exc}")
                continue
            problems = gate(result, pins.get(str(experiment_seed)),
                            references.get(experiment_seed))
            if problems:
                failed += 1
                for problem in problems:
                    print(f"{label} failed the gate: {problem}")
                continue
            references.setdefault(experiment_seed, result)
            runs[traced].append(result)
            log(f"{label}{' traced' if traced else ''}: "
                f"wall {result['phases']['wall_s']:.3f} s")
        longest_round = max(longest_round, time.perf_counter() - round_started)
    metrics: dict[str, float] = {}
    units = PER_LAYER if trace else END_TO_END
    if runs[False] and (runs[True] or not trace):
        if trace:
            metrics = per_layer_metrics(runs[False], runs[True])
        else:
            metrics = end_to_end_metrics(runs[False])
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="experiment seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no simulator sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
    result = measure(args.workload, seed, args.seconds, bool(args.trace),
                     lambda line: print(line, file=sys.stderr))
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
