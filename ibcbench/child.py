"""Run one benchmark experiment in this (fresh) interpreter; print JSON.

Usage: ``python3 ibcbench/child.py WORKLOAD SEED TRACE`` with ``src`` on
``PYTHONPATH``.  ``run.py`` starts one child per experiment so that the
peak RSS is this experiment's alone and no memo cache or allocator state
carries over between repeats.

Phases are timed from outside the program:

* ``setup``: constructing ``_ExperimentEngine`` (the testbed and genesis);
* ``simulate``: the event loop, i.e. ``engine.run()`` up to its call of
  ``_build_report``;
* ``report``: ``_build_report``;
* ``serialize``: ``ExperimentReport.to_json``.

With TRACE=1 the layers are instrumented first (see ``spans.py``) and the
whole run is one root span of the ``framework`` layer, so the layers' self
times add up to the traced ``wall_s``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from collections import Counter

import outcome
from spans import KERNEL_LAYER, SpanRecorder, instrument, self_times, span_counts
from workloads import WORKLOADS


def _layer_counts(engine, report: dict, calls: Counter) -> dict[str, float]:
    """Per-layer work counts, from the report and the wrapped-call counts."""
    chains = list(engine.testbed.chains)
    mempools = [chain.mempool for chain in chains]
    rpc_servers = [node.rpc for chain in chains for node in chain.nodes.values()]
    steps = {entry["step"]: entry["points"] for entry in report["timeline"]["steps"]}
    intervals = sorted(report["window"]["block_intervals_a"])
    fleet = report["fleet"] or []
    recv_attempts = sum(row["recv_attempts"] for row in fleet)
    delivered = sum(row["delivered"] for row in fleet)
    sub = report["submission"]
    return {
        "sim.events": engine.testbed.env.events_processed,
        "tendermint.consensus.blocks": sum(chain.engine.height for chain in chains),
        "tendermint.consensus.block_interval_p50_s": (
            outcome.nearest_rank(intervals, 50) if intervals else 0.0
        ),
        "tendermint.mempool.add_calls": calls["repro.tendermint.mempool.Mempool.add"],
        "tendermint.mempool.rejected": sum(m.rejected for m in mempools),
        "tendermint.mempool.evicted": sum(m.evicted for m in mempools),
        "tendermint.rpc.requests": sum(s.stats.served for s in rpc_servers),
        "tendermint.rpc.busy_sim_s": report["rpc"]["total_busy_seconds"],
        "tendermint.rpc.pull_fraction": report["rpc"]["pull_fraction"],
        "tendermint.websocket.frames": report["frames"]["delivered"],
        "tendermint.websocket.max_frame_bytes": report["frames"]["max_frame_bytes"],
        "tendermint.merkle.proofs": calls["repro.tendermint.merkle.ProvableStore.prove"],
        "cosmos.accounts.created": calls["repro.cosmos.accounts.AccountKeeper.create"]
        + calls["repro.cosmos.accounts.AccountKeeper.create_lazy"],
        "cosmos.app.deliver_txs": calls["repro.cosmos.app.GaiaApp.deliver_tx"],
        "ibc.module.sends": calls["repro.ibc.module.IbcModule.send_packet"],
        "ibc.module.recvs": calls["repro.ibc.module.IbcModule.recv_packet"],
        "ibc.module.acks": calls["repro.ibc.module.IbcModule.acknowledge_packet"],
        "ibc.module.pending_scans": calls[
            "repro.ibc.module.IbcModule.pending_commitments"
        ],
        # One log record per relayer transaction broadcast (recv and ack).
        "relayer.txs_submitted": len(steps[6]) + len(steps[11]),
        "relayer.fleet.useful_ratio": delivered / recv_attempts if recv_attempts else 0.0,
        "relayer.fleet.redundant_errors": sum(row["redundant_errors"] for row in fleet),
        "workload.arrivals": sub["requested"] + sub["deferred"],
    }


def _experiment(workload_name: str, seed: int, recorder: SpanRecorder | None) -> dict:
    from repro.framework import ExperimentReport
    from repro.framework.runner import _ExperimentEngine, _reset_run_caches

    workload = WORKLOADS[workload_name]
    if recorder is not None:
        root = recorder.layer_id("framework")
        kernel = recorder.layer_id(KERNEL_LAYER)
    config = workload.config(seed)
    _reset_run_caches()
    marks: dict[str, float] = {}

    start = time.perf_counter()
    if recorder is not None:
        recorder.open(root)
    engine = _ExperimentEngine(config)
    marks["setup"] = time.perf_counter()
    build_report = engine._build_report

    def timed_build_report():
        marks["simulate"] = time.perf_counter()
        result = build_report()
        marks["report"] = time.perf_counter()
        return result

    engine._build_report = timed_build_report
    if recorder is not None:
        recorder.open(kernel)
    report = engine.run()
    if recorder is not None:
        recorder.close()
    before_serialize = time.perf_counter()
    report_json = report.to_json()
    end = time.perf_counter()
    if recorder is not None:
        recorder.close()
        # Attribute before the checks below, which run outside the root span.
        traced_layers = {
            "self_s": self_times(recorder),
            "spans": span_counts(recorder),
        }
        calls = Counter(recorder.calls)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report_dict = json.loads(report_json)
    problems = outcome.invariants(workload_name, report_dict)
    if ExperimentReport.from_json(report_json).to_json() != report_json:
        problems.append("report does not round-trip through its wire format")
    result = {
        "workload": workload_name,
        "seed": seed,
        "traced": recorder is not None,
        "phases": {
            "wall_s": end - start,
            "setup_s": marks["setup"] - start,
            "simulate_s": marks["simulate"] - marks["setup"],
            "report_s": marks["report"] - marks["simulate"],
            "serialize_s": end - before_serialize,
        },
        "peak_rss_mb": peak_rss_mb,
        "accounting": outcome.accounting(
            report_json, engine.testbed.env.events_processed
        ),
        "sim": outcome.sim_metrics(report_dict),
        "problems": problems,
    }
    if recorder is not None:
        result.update(traced_layers)
        result["counts"] = _layer_counts(engine, report_dict, calls)

    return result


def run(workload_name: str, seed: int, traced: bool) -> dict:
    recorder = SpanRecorder() if traced else None
    if recorder is not None:
        instrument(recorder)
    return _experiment(workload_name, seed, recorder)


def main(argv: list[str]) -> int:
    workload, seed, trace = argv
    print(json.dumps(run(workload, int(seed), trace == "1")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
