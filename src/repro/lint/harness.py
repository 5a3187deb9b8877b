"""One front-end for the dynamic sanitizers.

``python -m repro lint --schedcheck|--alloccheck|--stallcheck <scenario>``
all run a :mod:`repro.scenarios` catalogue entry through
:func:`run_check`.  Each sanitizer module keeps only its own measurement
and comparison; the budget files the budgeted checks diff against share
one layout, read and pinned here::

    {"tolerance": 0.25, "note": "...", "scenarios": {name: entry}}

A budget file that pins no entry for the scenario being run is a
violation: the scenario would otherwise be gated by nothing.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Optional

from repro.lint import alloccheck, schedcheck, stallcheck

#: Relative headroom recorded in a freshly pinned budget file, so
#: identical code re-measured under slightly different GC/cache
#: conditions stays clean.
DEFAULT_TOLERANCE = 0.25

#: Dynamic-mode flag -> ``(scenario name, config) -> result`` check.
CHECKS: dict[str, Callable] = {
    "schedcheck": schedcheck.check_experiment,
    "alloccheck": alloccheck.measure,
    "stallcheck": stallcheck.monitor_experiment,
}

#: The budget file each budgeted check diffs against by default, pinned
#: at the repo root (src-layout: this file is ``<root>/src/repro/lint/``).
_ROOT = Path(__file__).resolve().parents[3]
BUDGET_FILES: dict[str, Path] = {
    "alloccheck": _ROOT / "ALLOC_BUDGET.json",
    "stallcheck": _ROOT / "STALL_BUDGET.json",
}


def pin_budget(path: Path, result) -> None:
    """Pin ``result`` as its scenario's budget entry, keeping every other
    scenario's pin (and the file's tolerance and note)."""
    if path.exists():
        document = json.loads(path.read_text())
    else:
        document = {
            "tolerance": DEFAULT_TOLERANCE,
            "note": (
                "Pinned by `python -m repro lint --<check> <scenario> "
                "--write-budget` (scenarios: repro.scenarios); re-pin only "
                "after auditing the growth."
            ),
        }
    scenarios = {
        **document.get("scenarios", {}),
        result.scenario: result.budget_entry(),
    }
    document["scenarios"] = dict(sorted(scenarios.items()))
    path.write_text(json.dumps(document, indent=2) + "\n")


def run_check(
    check: str,
    name: str,
    config,
    budget: Optional[str] = None,
    write_budget: bool = False,
):
    """Run ``check`` on scenario ``name`` (built as ``config``), then diff
    the result against -- or, with ``write_budget``, pin it into -- the
    budget file (``budget``, or the check's default)."""
    result = CHECKS[check](name, config)
    if check not in BUDGET_FILES:
        return result
    path = Path(budget) if budget is not None else BUDGET_FILES[check]
    if write_budget:
        pin_budget(path, result)
        result.wrote_budget_to = str(path)
    elif path.exists():
        diff_budget(result, json.loads(path.read_text()))
    return result


def diff_budget(result, document: dict) -> None:
    """Diff ``result`` against its scenario's entry in a budget document."""
    result.budget = document
    entry = document.get("scenarios", {}).get(result.scenario)
    if entry is None:
        result.violations.append(
            f"the budget file pins no entry for scenario {result.scenario!r}; "
            "pin one with --write-budget after auditing"
        )
        return
    tolerance = float(document.get("tolerance", DEFAULT_TOLERANCE))
    result.apply_budget(entry, tolerance)
