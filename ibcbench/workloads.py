"""The benchmark's workloads: one experiment config per workload and seed.

Each workload is one :class:`repro.framework.ExperimentConfig` built from
the benchmark seed.  ``fig12_burst`` and ``relay_contention`` are the ones
BENCHMARK.json lists; ``million_users`` is run by hand only.  NOTES.md
beside this file gives why each workload was chosen.

Importing this module imports nothing from ``repro``: the parent process
of the benchmark never loads the simulator, only its fresh children do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Seed used when the benchmark is given none; its accounting is the
    #: one BENCH_kernel.json / BENCH_workload.json already quote.
    default_seed: int
    #: Builds the experiment config from the seed (imports repro lazily).
    config: Callable[[int], Any]


def _fig12_burst(seed: int):
    from repro.framework import ExperimentConfig

    return ExperimentConfig(
        total_transfers=5000,
        submission_blocks=1,
        run_to_completion=True,
        seed=seed,
    )


def _relay_contention(seed: int):
    from repro.framework import ExperimentConfig

    return ExperimentConfig(
        input_rate=160,
        measurement_blocks=25,
        num_relayers=2,
        seed=seed,
    )


def _million_users(seed: int):
    from repro.framework import ExperimentConfig, WorkloadSpec

    return ExperimentConfig(
        input_rate=20,
        measurement_blocks=3,
        seed=seed,
        workload=WorkloadSpec(population=1_000_000),
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig12_burst",
            "Fig. 12/13: 5000 transfers in one block relayed to completion "
            "with merkle proofs; relayer pulls, IBC recv/ack and proofs",
            1,
            _fig12_burst,
        ),
        Workload(
            "relay_contention",
            "Fig. 9: two uncoordinated relayers at 160 transfers/s; redundant "
            "relaying, WebSocket publishing and event parsing",
            1,
            _relay_contention,
        ),
        Workload(
            "million_users",
            "1M Zipf-skewed senders at 20 transfers/s: genesis, accounts, bank "
            "and address hashing dominate, so setup and memory move",
            7,
            _million_users,
        ),
    )
}
