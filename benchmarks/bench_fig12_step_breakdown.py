"""Fig. 12 — 13-step breakdown of 5 000 transfers submitted in one block.

Paper: total completion latency 455 s; the transfer phase takes 27.6 % of
the time, receive 57.3 %, acknowledge 14.9 %; the two data pulls (transfer
data pull 110 s + recv data pull 207 s) consume ~69 % of the total — the
serial-RPC bottleneck headline.
"""

from dataclasses import replace

from benchmarks.conftest import run_cached
from repro.analysis import render_step_table
from repro.scenarios import scenario


def run_breakdown():
    return run_cached(replace(scenario("fig12", 5), measurement_blocks=300))


def test_fig12_step_breakdown(benchmark):
    report = benchmark.pedantic(run_breakdown, rounds=1, iterations=1)
    timeline = report.timeline
    assert timeline is not None

    print("\nFig. 12 — 13-step breakdown of 5 000 transfers in one block")
    print(render_step_table(timeline))
    print(
        f"completion latency: {report.completion_latency:.1f}s (paper: 455 s)"
    )

    # Every step processed all 5 000 transfers.
    for step in range(1, 14):
        assert timeline.timelines[step].total == 5000, step

    # Completion latency in the paper's order of magnitude (minutes).
    assert 200 <= report.completion_latency <= 700

    # Phase shape: receive dominates, transfer second, ack smallest.
    transfer = timeline.phase_fraction("transfer")
    receive = timeline.phase_fraction("receive")
    ack = timeline.phase_fraction("acknowledge")
    assert receive > transfer > ack
    assert 0.40 <= receive <= 0.70  # paper: 0.573
    assert 0.20 <= transfer <= 0.50  # paper: 0.276

    # The headline: data pulls consume roughly 69 % of processing time.
    assert 0.55 <= timeline.data_pull_fraction <= 0.85

    # Steps execute in order: each phase's pull finishes after its
    # broadcast started, and acks complete last.
    t = timeline.timelines
    assert t[4].finished_at <= t[9].finished_at <= t[13].finished_at
    assert t[1].started_at <= t[5].started_at <= t[10].started_at
