"""Determinism golden test: same seed => byte-identical run artifacts.

Runs a small two-chain transfer scenario twice with the same seed and
asserts that the full JSON report *and* the relayer/workload journals are
byte-identical; a run with a different seed must diverge.  This is the
dynamic counterpart of the static ``repro.lint`` gate: if anything in the
stack starts consuming wall clocks, unmanaged RNGs or hash order, this
test fails.
"""

from dataclasses import replace

import pytest

from repro.framework import ExperimentReport, run_experiment
from repro.scenarios import scenario


def run_scenario(seed, name="golden"):
    """One catalogue scenario with journals captured; returns
    (report_json, journal)."""
    report = run_experiment(scenario(name, seed), capture_journal=True)
    return report.to_json(), report.journal


@pytest.fixture(scope="module")
def golden_runs():
    first = run_scenario(seed=11)
    second = run_scenario(seed=11)
    other = run_scenario(seed=12)
    return first, second, other


def test_same_seed_identical_report_json(golden_runs):
    (json1, _), (json2, _), _ = golden_runs
    assert json1.encode() == json2.encode()


def test_same_seed_identical_journals(golden_runs):
    (_, journal1), (_, journal2), _ = golden_runs
    assert journal1.encode() == journal2.encode()


def test_journals_are_nontrivial(golden_runs):
    (_, journal), _, _ = golden_runs
    lines = journal.splitlines()
    assert len(lines) > 50  # the scenario really relayed packets
    assert any("recv_build" in line for line in lines)


def test_different_seed_diverges(golden_runs):
    (json1, journal1), _, (json3, journal3) = golden_runs
    assert journal1 != journal3
    assert json1 != json3


def test_golden_report_wire_round_trip(golden_runs):
    """Golden schema stability: the report document declares schema
    version 6 and survives a load/dump cycle byte-for-byte — so cached
    sweep points replay exactly what the simulation produced."""
    import json

    (report_json, _), _, _ = golden_runs
    assert json.loads(report_json)["schema_version"] == 6
    assert ExperimentReport.from_json(report_json).to_json() == report_json


# -- With an active fault schedule ------------------------------------------


@pytest.fixture(scope="module")
def golden_fault_runs():
    first = run_scenario(21, "golden-faults")
    second = run_scenario(21, "golden-faults")
    return first, second


def test_fault_scenario_same_seed_identical(golden_fault_runs):
    (json1, journal1), (json2, journal2) = golden_fault_runs
    assert json1.encode() == json2.encode()
    assert journal1.encode() == journal2.encode()


def test_fault_scenario_really_faulted(golden_fault_runs):
    """The schedule must actually bite (else the golden check is vacuous)."""
    import json

    (report_json, journal), _ = golden_fault_runs
    faults = json.loads(report_json)["faults"]
    assert faults is not None
    assert len(faults["windows"]) == 4
    assert faults["ws_disconnects"] >= 1
    assert faults["resubscribes"] >= 1
    assert any("websocket_disconnected" in line for line in journal.splitlines())


# -- With lifecycle tracing enabled -----------------------------------------


def run_traced_scenario(seed, *, tiebreak="fifo", faults=False):
    """The golden (or golden-faults) scenario with the tracer threaded
    through the stack."""
    config = scenario("golden-faults" if faults else "golden", seed)
    return run_experiment(
        replace(config, tracing=True, tiebreak=tiebreak)
    ).to_json()


def _masked(report_json, *config_keys, drop_trace=False):
    """The report document with config echoes (and optionally the trace
    section) neutralized, re-dumped canonically for byte comparison."""
    import json

    document = json.loads(report_json)
    for key in config_keys:
        document["config"].pop(key, None)
    if drop_trace:
        document.pop("trace", None)
    return json.dumps(document, sort_keys=True)


@pytest.fixture(scope="module")
def golden_traced_runs():
    return run_traced_scenario(seed=11), run_traced_scenario(seed=11)


def test_traced_run_same_seed_identical(golden_traced_runs):
    """The tracer is part of the determinism envelope: a traced report
    (span timings, stage sums, pull share — all floats accumulated over
    thousands of events) is byte-identical across repeated runs."""
    json1, json2 = golden_traced_runs
    assert json1.encode() == json2.encode()


def test_traced_run_has_nontrivial_trace(golden_traced_runs):
    import json

    trace = json.loads(golden_traced_runs[0])["trace"]
    assert trace is not None
    assert trace["completed"] > 0
    assert trace["data_pull_share"] > 0.0


def test_traced_fault_scenario_same_seed_identical():
    """Tracing and the full fault schedule together stay byte-stable:
    crash/brownout/disconnect recovery paths emit their spans in the
    same order every run."""
    json1 = run_traced_scenario(seed=21, faults=True)
    json2 = run_traced_scenario(seed=21, faults=True)
    assert json1.encode() == json2.encode()
    import json

    assert json.loads(json1)["trace"]["completed"] > 0


def test_trace_invariant_under_tiebreak_reversal(golden_traced_runs):
    """Reversing the scheduler's same-time tie-break may not move a
    single boundary timestamp or float sum in the trace section (the
    aggregator's min-merges and sorted accumulation guarantee this).
    Only the config's tiebreak echo may differ."""
    fifo = golden_traced_runs[0]
    lifo = run_traced_scenario(seed=11, tiebreak="lifo")
    assert _masked(fifo, "tiebreak") == _masked(lifo, "tiebreak")


def test_tracing_off_leaves_report_byte_identical(golden_traced_runs):
    """Observer effect check: turning the tracer on changes only the
    trace section and the config echo — every other byte of the report
    is identical to an untraced run."""
    traced = golden_traced_runs[0]
    untraced, _ = run_scenario(seed=11)
    assert _masked(traced, "tracing", drop_trace=True) == _masked(
        untraced, "tracing", drop_trace=True
    )


def test_traced_run_identical_across_worker_counts():
    """The parallel executor reproduces a traced point byte-for-byte
    whether it runs in-process or in a spawned worker pool."""
    from repro.parallel import run_points

    configs = [
        replace(scenario("golden", seed), measurement_blocks=3, tracing=True)
        for seed in (31, 32)
    ]
    serial = run_points(configs, workers=1)
    parallel = run_points(configs, workers=4)
    assert serial.merged_json() == parallel.merged_json()
    for point in serial.merged_document():
        assert point["trace"]["completed"] > 0


# -- Multi-chain topologies --------------------------------------------------


@pytest.fixture(scope="module")
def line3_runs():
    """The catalogue's traced 3-chain line, twice at one seed."""
    return run_scenario(11, "line3"), run_scenario(11, "line3")


@pytest.fixture(scope="module")
def hub4_runs():
    """The catalogue's traced 4-spoke hub, twice at one seed."""
    return run_scenario(11, "hub4"), run_scenario(11, "hub4")


def test_line3_same_seed_identical(line3_runs):
    (json1, journal1), (json2, journal2) = line3_runs
    assert json1.encode() == json2.encode()
    assert journal1.encode() == journal2.encode()


def test_hub4_same_seed_identical(hub4_runs):
    (json1, journal1), (json2, journal2) = hub4_runs
    assert json1.encode() == json2.encode()
    assert journal1.encode() == journal2.encode()


def test_line3_lifecycles_span_hops(line3_runs):
    """The 3-chain line actually forwards: lifecycles complete end to end
    and the trace counts the intermediate-hop sends."""
    import json

    document = json.loads(line3_runs[0][0])
    trace = document["trace"]
    assert trace["completed"] > 0
    assert trace["forwarded"] > 0
    assert document["config"]["topology"]["name"] == "line"


def test_hub4_reports_per_channel_fairness(hub4_runs):
    """The hub report carries a per-channel breakdown covering every
    spoke's channel, with hub receives matching spoke sends."""
    import json

    document = json.loads(hub4_runs[0][0])
    channels = document["window"]["channels"]
    assert len(channels) >= 4  # one row per channel end in play
    assert all(row["sends"] >= 0 for row in channels)
    assert sum(row["receives"] for row in channels) > 0
    assert document["trace"]["forwarded"] > 0
