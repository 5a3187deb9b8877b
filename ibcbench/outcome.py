"""The deterministic outcome of one run: gated accounting and sim metrics.

Everything here is computed from the experiment report (and the DES event
count), on the simulated clock, so for a fixed workload and seed it is
bit-identical on every host and in traced and untraced runs alike.  A
change that only makes the simulator faster must leave all of it as is.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

#: Steps of the 13-step breakdown (repro.framework.processor.STEP_EVENTS):
#: a transfer is submitted at step 1 and completed at its acknowledgement.
SUBMIT_STEP = 1
ACK_STEP = 13

#: Accounting keys compared against the pins, besides the section digests.
GATED_KEYS = ("events", "report_sha256", "requested", "committed", "acked")


def section_digests(report: dict[str, Any]) -> dict[str, str]:
    """A short digest per top-level report section, naming what differs."""
    return {
        key: hashlib.sha256(
            json.dumps(value, sort_keys=True).encode()
        ).hexdigest()[:16]
        for key, value in report.items()
    }


def accounting(report_json: str, events: int) -> dict[str, Any]:
    """The gated accounting of one run (see :data:`GATED_KEYS`)."""
    report = json.loads(report_json)
    submission = report["submission"]
    return {
        "events": events,
        "report_sha256": hashlib.sha256(report_json.encode()).hexdigest(),
        "requested": submission["requested"],
        "committed": submission["committed"],
        "acked": report["counts"]["acks"],
        "sections": section_digests(report),
    }


def mismatches(actual: dict[str, Any], expected: dict[str, Any]) -> list[str]:
    """Human-readable differences between two accountings ([] if equal)."""
    problems = [
        f"{key}: expected {expected.get(key)!r}, got {actual.get(key)!r}"
        for key in GATED_KEYS
        if actual.get(key) != expected.get(key)
    ]
    want = expected.get("sections", {})
    have = actual.get("sections", {})
    differing = sorted(k for k in set(want) | set(have) if want.get(k) != have.get(k))
    if differing:
        problems.append("report sections differ: " + ", ".join(differing))
    return problems


def invariants(workload: str, report: dict[str, Any]) -> list[str]:
    """Seed-independent checks on a report; returns the violated ones."""
    sub, counts = report["submission"], report["counts"]
    problems = []
    if sub["requested"] != sub["accepted"] + sub["rejected"] + sub["lost"]:
        problems.append("requested != accepted + rejected + lost")
    if sub["accepted"] != sub["committed"] + sub["failed"] + sub["unconfirmed"]:
        problems.append("accepted != committed + failed + unconfirmed")
    if not counts["acks"] <= counts["receives"] <= counts["sends"]:
        problems.append("acks <= receives <= sends does not hold")
    if sub["requested"] < 1:
        problems.append("no transfer was requested")
    if workload == "fig12_burst":
        if not sub["requested"] == counts["acks"] == 5000:
            problems.append("fig12_burst did not acknowledge all 5000 transfers")
    elif workload == "relay_contention":
        fleet = report["fleet"] or [{}]
        if not fleet[0].get("redundant_ratio", 0.0) > 1.0:
            problems.append("relay_contention relayers did not contend")
    return problems


# -- simulated-clock metrics ------------------------------------------------------


def _per_transfer_times(points: list[list[float]]) -> list[float]:
    """Expand a cumulative (time, count) curve to one time per transfer."""
    times: list[float] = []
    previous = 0
    for time, cumulative in points:
        times.extend([time] * (int(cumulative) - previous))
        previous = int(cumulative)
    return times


def nearest_rank(sorted_values: list[float], percent: int) -> float:
    """The ``percent``-th percentile by the nearest-rank method."""
    rank = max(1, -(-percent * len(sorted_values) // 100))
    return sorted_values[rank - 1]


def completion_latencies(report: dict[str, Any]) -> list[float]:
    """Submission-to-acknowledgement latency per completed transfer, sorted.

    Pairs the k-th acknowledged transfer with the k-th submitted one (the
    horizontal distance between the two cumulative curves of the report's
    13-step timeline), so every latency is non-negative.
    """
    steps = {entry["step"]: entry["points"] for entry in report["timeline"]["steps"]}
    submitted = _per_transfer_times(steps[SUBMIT_STEP])
    completed = _per_transfer_times(steps[ACK_STEP])
    return sorted(done - sent for sent, done in zip(submitted, completed))


def sim_metrics(report: dict[str, Any]) -> dict[str, Any]:
    """The simulated outcome: completion latency, goodput, failed share."""
    latencies = completion_latencies(report)
    sub, counts = report["submission"], report["counts"]
    failed = sub["rejected"] + sub["lost"] + sub["failed"] + counts["timeouts"]
    return {
        "sim_latency_p50_s": nearest_rank(latencies, 50) if latencies else 0.0,
        "sim_latency_p99_s": nearest_rank(latencies, 99) if latencies else 0.0,
        "workload.latency_samples": len(latencies),
        "sim_goodput_tps": report["throughput"]["transfer_tfps"],
        "failed_share": failed / sub["requested"],
    }
