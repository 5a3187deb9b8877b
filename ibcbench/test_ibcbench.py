"""Tests of the benchmark's own arithmetic, gate and naming.

Run from the repository root: ``python3 -m pytest ibcbench -q``.
"""

from __future__ import annotations

import copy
import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import outcome  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _read(path: str) -> dict:
    with open(os.path.join(ROOT, path)) as handle:
        return json.load(handle)


# -- span self-time arithmetic ----------------------------------------------------


def test_self_time_is_parent_minus_children():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 8.0, 9.0, 10.0])
    recorder = spans.SpanRecorder(clock=lambda: next(ticks))
    root, rpc, merkle = (recorder.layer_id(n) for n in ("framework", "rpc", "merkle"))
    recorder.open(root)  # 0 .. 10
    recorder.open(rpc)  # 1 .. 9
    recorder.open(merkle)  # 2 .. 4
    recorder.close()
    recorder.open(merkle)  # 5 .. 8
    recorder.close()
    recorder.close()
    recorder.close()
    assert list(recorder.parent) == [-1, 0, 1, 1]
    assert spans.self_times(recorder) == {"framework": 2.0, "rpc": 3.0, "merkle": 5.0}
    assert spans.span_counts(recorder) == {"framework": 1, "rpc": 1, "merkle": 2}
    assert sum(spans.self_times(recorder).values()) == 10.0


def test_same_layer_calls_open_no_span_but_are_counted():
    recorder = spans.SpanRecorder()
    layer = recorder.layer_id("bank")

    def inner(x):
        return x + 1

    wrapped_inner = spans._wrap(inner, layer, recorder, "bank.inner")
    wrapped_outer = spans._wrap(lambda x: wrapped_inner(x) * 2, layer, recorder, "bank.outer")
    assert wrapped_outer(1) == 4
    assert len(recorder) == 1
    assert recorder.calls == {"bank.outer": 1, "bank.inner": 1}


def test_generator_proxy_forwards_sends_throws_and_return():
    recorder = spans.SpanRecorder()
    outer_layer, gen_layer = recorder.layer_id("relayer"), recorder.layer_id("rpc")

    def call():
        try:
            got = yield "request"
        except KeyError:
            got = yield "retry"
        return got * 10

    traced_call = spans._wrap(call, gen_layer, recorder, "rpc.call")
    recorder.open(outer_layer)
    proxy = traced_call()
    assert next(proxy) == "request"
    assert proxy.throw(KeyError()) == "retry"
    with pytest.raises(StopIteration) as stop:
        proxy.send(4)
    recorder.close()
    assert stop.value.value == 40
    assert spans.span_counts(recorder) == {"relayer": 1, "rpc": 3}
    assert recorder.open_spans == [-1]


def test_layer_of_module_uses_longest_prefix():
    assert spans.layer_of_module("repro.relayer.fleet") == "relayer.fleet"
    assert spans.layer_of_module("repro.relayer.worker") == "relayer"
    assert spans.layer_of_module("repro.relayer.cli") == "workload"
    assert spans.layer_of_module("repro.ibc.transfer") == "ibc.module"
    assert spans.layer_of_module("repro.calibration") is None


# -- correctness gate --------------------------------------------------------------


def _pinned(workload: str, seed: int) -> dict:
    return _read("ibcbench/pins.json")[workload][str(seed)]


def _result(accounting: dict) -> dict:
    return {"problems": [], "accounting": accounting, "traced": False}


def test_gate_accepts_the_pinned_accounting():
    pin = _pinned("fig12_burst", 1)
    assert run.gate(_result(copy.deepcopy(pin)), pin, None) == []


def test_gate_rejects_a_tampered_sha():
    pin = _pinned("fig12_burst", 1)
    tampered = copy.deepcopy(pin)
    tampered["report_sha256"] = "0" * 64
    tampered["sections"]["counts"] = "0" * 16
    problems = run.gate(_result(tampered), pin, None)
    assert any("report_sha256" in p for p in problems)
    assert any("report sections differ: counts" in p for p in problems)


def test_gate_rejects_disagreeing_repeats():
    pin = _pinned("relay_contention", 1)
    other = copy.deepcopy(pin)
    other["events"] += 1
    problems = run.gate(_result(other), None, _result(pin))
    assert problems == [f"repeat events: expected {pin['events']}, got {pin['events'] + 1}"]


def test_accounting_names_differing_sections():
    report = {"submission": {"requested": 2, "committed": 2}, "counts": {"acks": 1}}
    base = outcome.accounting(json.dumps(report), events=10)
    report["counts"]["acks"] = 2
    changed = outcome.accounting(json.dumps(report), events=10)
    assert outcome.mismatches(changed, base) == [
        "report_sha256: expected "
        f"{base['report_sha256']!r}, got {changed['report_sha256']!r}",
        "acked: expected 1, got 2",
        "report sections differ: counts",
    ]


def test_pins_agree_with_the_kernel_and_workload_artifacts():
    kernel = _read("BENCH_kernel.json")["accounting"]
    assert kernel["golden_events"] == 2013
    assert _pinned("fig12_burst", 1)["events"] == kernel["fig12_events"] == 12137
    ramp = _read("BENCH_workload.json")["accounting"]["1000000"]
    million = _pinned("million_users", 7)
    assert million["events"] == ramp["events"]
    assert million["requested"] == ramp["requested"]
    assert million["committed"] == ramp["committed"]


def test_every_default_seed_is_pinned():
    pins = _read("ibcbench/pins.json")
    for name, workload in WORKLOADS.items():
        assert str(workload.default_seed) in pins[name]


def test_latency_pairs_kth_completion_with_kth_submission():
    report = {"timeline": {"steps": [
        {"step": 1, "points": [[0.0, 2], [1.0, 3]]},
        {"step": 13, "points": [[2.0, 1], [4.0, 3]]},
    ]}}
    assert outcome.completion_latencies(report) == [2.0, 3.0, 4.0]
    assert outcome.nearest_rank([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    assert outcome.nearest_rank([1.0, 2.0, 3.0, 4.0], 99) == 4.0


# -- names -------------------------------------------------------------------------


def test_metric_and_workload_names_are_well_formed():
    spec = _read("BENCHMARK.json")
    names = (
        list(WORKLOADS)
        + list(run.END_TO_END)
        + list(run.PER_LAYER)
        + [w["name"] for w in spec["workloads"]]
        + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    )
    for name in names:
        assert NAME.fullmatch(name), name


def test_benchmark_json_matches_the_code():
    spec = _read("BENCHMARK.json")
    assert [w["name"] for w in spec["workloads"]] == ["fig12_burst", "relay_contention"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for workload in spec["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
