"""The scenario catalogue: every named experiment configuration.

A named scenario is the unit of evidence: the sanitizers
(``python -m repro lint --schedcheck|--alloccheck|--stallcheck <name>``),
the kernel benchmark, the determinism golden tests and the CI matrix all
take their configs from :data:`SCENARIOS`, so a scenario is written
down exactly once.  Each entry maps a name to a ``seed -> ExperimentConfig``
factory; derive variants with :func:`dataclasses.replace` (e.g. a
reversed tie-break or tracing switched on).
"""

from __future__ import annotations

from typing import Callable

from repro.faults import (
    FaultSchedule,
    LinkDegradation,
    NodeCrash,
    RpcBrownout,
    WsDisconnect,
)
from repro.framework import (
    ExperimentConfig,
    FleetConfig,
    TopologySpec,
    WorkloadSpec,
)


def _golden(seed: int) -> ExperimentConfig:
    """Two chains, 20 transfers/s over a 4-block window (2013 events at seed 7)."""
    return ExperimentConfig(
        input_rate=20,
        measurement_blocks=4,
        seed=seed,
        drain_seconds=20.0,
    )


def _golden_faults(seed: int) -> ExperimentConfig:
    """Every fault kind inside the measurement window, against both
    testbed machines, with relayer retries and packet clearing on."""
    faults = FaultSchedule(
        (
            LinkDegradation(
                "machine-0", "machine-1",
                at=2.0, duration=15.0, latency=0.3, jitter=0.05, loss=0.05,
            ),
            RpcBrownout("machine-0", at=4.0, duration=10.0, drop_probability=0.3),
            NodeCrash("machine-1", at=6.0, duration=12.0),
            WsDisconnect("machine-0", at=18.0),
        )
    )
    return ExperimentConfig(
        input_rate=10,
        measurement_blocks=3,
        seed=seed,
        drain_seconds=30.0,
        relayer=FleetConfig(rpc_retry_attempts=3),
        clear_interval=2,
        faults=faults,
    )


def _line3(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        input_rate=5,
        measurement_blocks=3,
        seed=seed,
        drain_seconds=45.0,
        topology=TopologySpec.line(3),
        tracing=True,
    )


def _hub4(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        input_rate=5,
        measurement_blocks=3,
        seed=seed,
        drain_seconds=45.0,
        topology=TopologySpec.hub_and_spoke(4),
        tracing=True,
    )


def _fleet(seed: int) -> ExperimentConfig:
    """Leader-policy fleet with a mid-run leader crash and failover.

    Two relayers on one edge under the ``leader`` policy; machine-0 (the
    leader's host) crashes after the fixed-total workload has finished
    submitting, so member 1 takes over, clears the pending packets, and
    leadership fails back once machine-0 recovers.  ``run_to_completion``
    makes the 100 %-delivery property part of the diffed artifact.
    """
    return ExperimentConfig(
        input_rate=10,
        measurement_blocks=3,
        num_relayers=2,
        total_transfers=40,
        submission_blocks=1,
        seed=seed,
        run_to_completion=True,
        clear_interval=2,
        relayer=FleetConfig(policy="leader", rpc_retry_attempts=3),
        faults=FaultSchedule(
            (NodeCrash("machine-0", at=8.0, duration=30.0),)
        ),
    )


def _skewed(seed: int) -> ExperimentConfig:
    """Engine-mode workload: Zipf senders, bursty arrivals, adversaries.

    Every draw in the workload engine is keyed by arrival index rather
    than pulled from a shared sequential stream, so the Zipf sender
    choices, MMPP phase flips, payload sizes and spam/griefing tick
    times must all survive a tie-break reversal byte-for-byte.  This is
    the scenario that would catch a sequential-RNG regression in
    ``repro.workload``.
    """
    return ExperimentConfig(
        input_rate=20,
        measurement_blocks=3,
        seed=seed,
        drain_seconds=20.0,
        workload=WorkloadSpec(
            population=200,
            zipf_s=1.2,
            arrival="bursty",
            spam_rate=0.3,
            griefing_rate=0.1,
        ),
    )


def _fig12(seed: int) -> ExperimentConfig:
    """Fig. 12's 5 000-transfer single-block workload (12137 events at seed 1)."""
    return ExperimentConfig(
        total_transfers=5000,
        submission_blocks=1,
        run_to_completion=True,
        seed=seed,
    )


#: Every named scenario, as a ``seed -> ExperimentConfig`` factory.
SCENARIOS: dict[str, Callable[[int], ExperimentConfig]] = {
    "golden": _golden,
    "golden-faults": _golden_faults,
    "fleet": _fleet,
    "line3": _line3,
    "hub4": _hub4,
    "skewed": _skewed,
    "fig12": _fig12,
}


def scenario(name: str, seed: int) -> ExperimentConfig:
    """The config of catalogue scenario ``name`` at ``seed``."""
    try:
        factory = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown scenario {name!r} (known: {known})") from None
    return factory(seed)
