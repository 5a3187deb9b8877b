"""Allocation sanitizer: unit tests plus the tier-1 budget gate.

``test_alloccheck_gate_golden`` is the enforcement point: it runs the
golden scenario under tracemalloc and diffs it against the committed
``ALLOC_BUDGET.json``, so an allocation regression anywhere on the hot
path fails the ordinary pytest run.
"""

import json
from pathlib import Path

import pytest

from repro.lint.alloccheck import (
    AlloccheckResult,
    AllocSite,
    measure,
)
from repro.lint.cli import main as lint_cli
from repro.lint.harness import (
    BUDGET_FILES,
    diff_budget,
    pin_budget,
    run_check,
)
from repro.scenarios import scenario

REPO_ROOT = Path(__file__).parent.parent


def _result(blocks_per_event: float = 10.0) -> AlloccheckResult:
    return AlloccheckResult(
        scenario="golden",
        seed=7,
        events=2000,
        total_blocks=int(blocks_per_event * 2000),
        total_kb=1000.0,
        peak_kb=1200.0,
        blocks_per_event=blocks_per_event,
        top_sites=[AllocSite(path="repro/x.py", line=1, count=5, size_kb=1.0)],
    )


# ----------------------------------------------------------------------
# Budget diff semantics (no experiment run needed)
# ----------------------------------------------------------------------


def _budget(entry: dict, name: str = "golden") -> dict:
    return {"tolerance": 0.25, "scenarios": {name: entry}}


def test_within_budget_is_clean():
    result = _result(10.0)
    diff_budget(result, _budget({"blocks_per_event": 9.0}))
    assert result.clean
    assert "OK" in result.summary()


def test_over_budget_is_a_violation():
    result = _result(12.0)
    diff_budget(result, _budget({"blocks_per_event": 9.0}))
    assert not result.clean
    assert "REGRESSION" in result.summary()
    assert "exceeds budget" in result.violations[0]


def test_budget_boundary_is_inclusive():
    """Exactly at budget * (1 + tolerance) still passes."""
    result = _result(11.25)
    diff_budget(result, _budget({"blocks_per_event": 9.0}))
    assert result.clean


def test_scenario_mismatch_is_a_violation():
    """A budget file that pins only other scenarios gates nothing here."""
    result = _result(1.0)
    diff_budget(result, _budget({"blocks_per_event": 9.0}, name="other"))
    assert not result.clean
    assert "no entry for scenario 'golden'" in result.violations[0]


def test_unusable_budget_is_a_violation():
    result = _result(1.0)
    diff_budget(result, _budget({"seed": 7}))
    assert not result.clean
    assert "no usable blocks_per_event" in result.violations[0]


def test_budget_document_roundtrip(tmp_path):
    path = tmp_path / "budget.json"
    pin_budget(path, _result(10.0))
    fresh = _result(10.0)
    diff_budget(fresh, json.loads(path.read_text()))
    assert fresh.clean


def test_unknown_scenario_raises(capsys):
    """The CLI resolves names through the one catalogue lookup."""
    with pytest.raises(SystemExit) as exit_info:
        lint_cli(["--alloccheck", "no-such-scenario"])
    assert exit_info.value.code == 2
    assert "unknown scenario 'no-such-scenario'" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Measurement + the tier-1 gate
# ----------------------------------------------------------------------


def test_default_budget_path_is_repo_root():
    assert BUDGET_FILES["alloccheck"] == REPO_ROOT / "ALLOC_BUDGET.json"
    assert BUDGET_FILES["alloccheck"].is_file(), (
        "ALLOC_BUDGET.json must be committed; re-pin with "
        "`python -m repro lint --alloccheck golden --write-budget`"
    )


def test_write_budget_pins_a_diffable_file(tmp_path):
    path = tmp_path / "budget.json"
    config = scenario("golden", 7)
    pinned = run_check("alloccheck", "golden", config, str(path), True)
    assert pinned.wrote_budget_to == str(path)
    assert "pinned budget" in pinned.summary()
    entry = json.loads(path.read_text())["scenarios"]["golden"]
    assert entry["blocks_per_event"] == round(pinned.blocks_per_event, 2)

    checked = run_check("alloccheck", "golden", config, str(path))
    assert checked.clean, checked.summary()


def test_alloccheck_gate_golden():
    """THE gate: golden must stay within the committed allocation budget.

    If this fails after an intentional change (new feature allocating
    per-event state), audit the top call sites in the failure summary,
    then re-pin the budget.
    """
    result = run_check("alloccheck", "golden", scenario("golden", 7))
    assert result.budget is not None, "committed ALLOC_BUDGET.json not loaded"
    assert result.clean, result.summary()
    # The golden scenario's event count is pinned (alloccheck shares it
    # with schedcheck and the kernel benchmark).
    assert result.events == 2013


def test_measure_reports_sites_and_normalises():
    result = measure("golden", scenario("golden", 7))
    assert result.events == 2013
    assert result.total_blocks > 0
    assert result.blocks_per_event == result.total_blocks / result.events
    assert len(result.top_sites) > 0
    # Sites are ranked by live-block count, descending.
    counts = [site.count for site in result.top_sites]
    assert counts == sorted(counts, reverse=True)
    # Paths are shortened to the in-repo tail.
    assert any(site.path.startswith("repro/") for site in result.top_sites)
