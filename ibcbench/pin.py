"""Pin the deterministic accounting of every workload for a range of seeds.

Usage (from the repository root)::

    python3 ibcbench/pin.py

Runs one untraced experiment per workload and seed and writes their
accounting to ``pins.json``, which ``run.py`` gates every repeat against:
seeds 0-31 of the workloads BENCHMARK.json lists, and the default seed of
the others (``million_users`` takes seconds per seed).  Re-pin only for a
change that is meant to alter simulated behaviour, and say so in the
change.
"""

from __future__ import annotations

import json
import os
import sys

from run import HERE, ROOT, run_child
from workloads import WORKLOADS

#: Seeds pinned for every workload that BENCHMARK.json lists.
SEEDS = range(32)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        measured = {w["name"] for w in json.load(handle)["workloads"]}
    pins: dict = {}
    for name in sorted(WORKLOADS):
        seeds = SEEDS if name in measured else [WORKLOADS[name].default_seed]
        for seed in seeds:
            result = run_child(name, seed, traced=False)
            if result["problems"]:
                print(f"{name} seed {seed}: {result['problems']}", file=sys.stderr)
                return 1
            pins.setdefault(name, {})[str(seed)] = result["accounting"]
            print(f"{name} seed {seed}: {result['accounting']['events']} events, "
                  f"wall {result['phases']['wall_s']:.2f} s", file=sys.stderr)
    with open(os.path.join(HERE, "pins.json"), "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
