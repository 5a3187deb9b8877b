"""Liveness sanitizer: toy detections plus the tier-1 budget gate.

``test_stallcheck_gate`` is the enforcement point: it runs every
catalogue scenario under the :class:`StallMonitor`, tears the testbed
down and diffs the store high-water marks against the committed
``STALL_BUDGET.json`` — so a deadlock, a leaked waiter, or an unbounded
queue regression anywhere in the stack fails the ordinary pytest run.
The toy tests pin each detector's behaviour on a purpose-built stall.
"""
# repro-lint: disable-file=R003 -- clean toys hand their processes to env.run()

import importlib.util
import json
from pathlib import Path

import pytest

from repro.lint.cli import main as lint_cli
from repro.lint.harness import (
    BUDGET_FILES,
    diff_budget,
    pin_budget,
    run_check,
)
from repro.lint.stallcheck import (
    UNBUDGETED_FLOOR,
    StallcheckResult,
    StallMonitor,
    check_toy,
)
from repro.scenarios import SCENARIOS, scenario
from repro.sim.core import SHUTDOWN, Environment, ProcessGroup
from repro.sim.resources import Store

REPO_ROOT = Path(__file__).parent.parent

# The stalling builders are static Tier W violations by design, so they
# live in the lint-excluded fixture directory (zero suppressions here).
_TOYS_PATH = Path(__file__).parent / "lint_fixtures" / "stall_toys.py"
_spec = importlib.util.spec_from_file_location("stall_toys", _TOYS_PATH)
stall_toys = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stall_toys)


# ----------------------------------------------------------------------
# Toy detections: each detector pinned on a purpose-built stall
# ----------------------------------------------------------------------


def test_toy_clean_producer_consumer_is_clean():
    def build(env):
        queue = Store(env)

        def producer():
            for item in range(5):
                yield env.timeout(1.0)
                queue.put(item)

        def consumer():
            for _ in range(5):
                yield queue.get()

        env.process(producer(), name="producer")
        env.process(consumer(), name="consumer")

    result = check_toy("clean", build)
    assert result.clean, result.summary()
    assert result.live == 0
    assert "OK" in result.summary()


def test_toy_deadlock_dumps_the_wait_graph():
    """Classic opposite-order deadlock: the report must name both stuck
    processes, their suspension sites, and the resources they wait on."""
    result = check_toy("deadlock", stall_toys.build_deadlock)
    assert not result.clean
    assert result.live == 2
    assert any("deadlock" in v for v in result.violations)
    graph = "\n".join(result.wait_lines)
    assert "forward" in graph and "backward" in graph
    assert "Request on Resource@" in graph
    assert "stall_toys.py:" in graph  # suspension + creation sites
    # The held slots and queued requests also surface as residue.
    assert any("granted slot" in v for v in result.violations)
    assert any("ungranted request" in v for v in result.violations)
    assert "runtime wait graph" in result.summary()


def test_toy_livelock_raises_inside_step():
    result = check_toy(
        "livelock", stall_toys.build_livelock, livelock_threshold=50
    )
    assert not result.clean
    assert any("livelock" in v for v in result.violations)
    assert any("t=0.0" in v for v in result.violations)
    assert result.same_instant_max > 50


def test_toy_unreleased_request_is_residue():
    result = check_toy("leak", stall_toys.build_leak)
    assert not result.clean
    assert result.live == 0  # the process finished; only the slot leaked
    assert any("granted slot" in v for v in result.violations)


def test_toy_shutdown_interrupt_drains_a_group():
    """SHUTDOWN teardown is graceful: not a crash, nothing left alive."""

    def build(env):
        queue = Store(env)
        group = ProcessGroup(env)

        def service():
            while True:
                yield queue.get()

        group.spawn(service(), name="service")

        def killer():
            yield env.timeout(3.0)
            group.interrupt_all(SHUTDOWN)

        env.process(killer(), name="killer")

    result = check_toy("teardown", build)
    assert result.clean, result.summary()


def test_monitor_tracks_store_high_water():
    monitor = StallMonitor()
    with monitor.activate():
        env = Environment()
        store = Store(env)
        for item in range(4):
            store.put(item)
    assert list(monitor.high_water.values()) == [4]
    (site,) = monitor.high_water
    assert "test_stallcheck.py" in site


def test_nested_activation_is_rejected():
    monitor = StallMonitor()
    with monitor.activate():
        with pytest.raises(RuntimeError, match="already active"):
            with StallMonitor().activate():
                pass  # pragma: no cover


# ----------------------------------------------------------------------
# Budget diff semantics (no experiment run needed)
# ----------------------------------------------------------------------


def _result(high_water=None, name="golden") -> StallcheckResult:
    return StallcheckResult(
        scenario=name,
        seed=7,
        events=2000,
        high_water=high_water or {},
    )


def _budget(high_water) -> dict:
    return {
        "tolerance": 0.25,
        "scenarios": {"golden": {"seed": 7, "high_water": high_water}},
    }


def test_within_budget_is_clean():
    result = _result({"repro/x.py:1": 10})
    diff_budget(result, _budget({"repro/x.py:1": 10}))
    assert result.clean


def test_budget_boundary_is_inclusive():
    """Exactly int(pinned * 1.25) + 2 still passes; one more fails."""
    result = _result({"repro/x.py:1": 14})  # int(10 * 1.25) + 2 == 14
    diff_budget(result, _budget({"repro/x.py:1": 10}))
    assert result.clean
    over = _result({"repro/x.py:1": 15})
    diff_budget(over, _budget({"repro/x.py:1": 10}))
    assert not over.clean
    assert "backlog regression" in over.violations[0]
    assert "STALL" in over.summary()


def test_unbudgeted_site_gated_only_past_floor():
    result = _result({"repro/new.py:9": UNBUDGETED_FLOOR})
    diff_budget(result, _budget({}))
    assert result.clean
    over = _result({"repro/new.py:9": UNBUDGETED_FLOOR + 1})
    diff_budget(over, _budget({}))
    assert not over.clean
    assert "unbudgeted store" in over.violations[0]


def test_pinned_site_never_observed_is_a_violation():
    """A pin whose creation site no longer exists (the code moved) must
    fail loudly instead of leaving the real queue gated by the floor."""
    result = _result({"repro/x.py:2": 0})
    diff_budget(result, _budget({"repro/x.py:1": 0}))
    assert not result.clean
    (violation,) = result.violations
    assert "repro/x.py:1" in violation
    assert "never observed" in violation and "re-pin" in violation


def test_unpinned_scenario_is_a_violation():
    result = _result({"repro/x.py:1": 0}, name="line3")
    diff_budget(result, _budget({"repro/x.py:1": 0}))
    assert not result.clean
    assert "no entry for scenario 'line3'" in result.violations[0]


def test_budget_document_merges_scenarios(tmp_path):
    path = tmp_path / "budget.json"
    pin_budget(path, _result({"repro/x.py:1": 3}))
    other = _result({"repro/y.py:2": 1}, name="line3")
    pin_budget(path, other)
    merged = json.loads(path.read_text())
    assert set(merged["scenarios"]) == {"golden", "line3"}
    assert merged["scenarios"]["golden"]["high_water"] == {"repro/x.py:1": 3}
    fresh = _result({"repro/x.py:1": 3})
    diff_budget(fresh, merged)
    assert fresh.clean


def test_unknown_scenario_raises(capsys):
    """The CLI resolves names through the one catalogue lookup."""
    with pytest.raises(SystemExit) as exit_info:
        lint_cli(["--stallcheck", "no-such-scenario"])
    assert exit_info.value.code == 2
    assert "unknown scenario 'no-such-scenario'" in capsys.readouterr().err


def test_scenario_registry_names():
    """The stall gate runs the catalogue, and a scenario without a budget
    entry fails it, so the committed budget pins exactly those names."""
    names = {
        "golden", "golden-faults", "fleet", "line3", "hub4", "skewed", "fig12"
    }
    assert set(SCENARIOS) == names
    budget = json.loads(BUDGET_FILES["stallcheck"].read_text())
    assert set(budget["scenarios"]) == names


def test_default_budget_path_is_repo_root():
    assert BUDGET_FILES["stallcheck"] == REPO_ROOT / "STALL_BUDGET.json"
    assert BUDGET_FILES["stallcheck"].is_file(), (
        "STALL_BUDGET.json must be committed; re-pin with "
        "`python -m repro lint --stallcheck <scenario> --write-budget`"
    )


# ----------------------------------------------------------------------
# Experiment-backed scenarios (the acceptance gate)
# ----------------------------------------------------------------------


@pytest.mark.stallcheck
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_stallcheck_gate(name):
    """THE gate: every catalogue scenario must run, tear down leak-free,
    and stay within its committed stall budget.  On an intentional
    queue-depth change, audit the summary, then re-pin with
    --write-budget."""
    result = run_check("stallcheck", name, scenario(name, 7))
    assert result.budget is not None, "committed STALL_BUDGET.json not loaded"
    assert result.clean, result.summary()
    assert result.live == 0
    # Teardown steps a deterministic number of drain events on top of
    # the run itself; the total is pinned in the budget.
    assert result.events == result.budget["scenarios"][name]["events"]


def test_write_budget_pins_a_diffable_file(tmp_path):
    path = tmp_path / "budget.json"
    config = scenario("golden", 7)
    pinned = run_check("stallcheck", "golden", config, str(path), True)
    assert pinned.wrote_budget_to == str(path)
    assert "pinned stall budget" in pinned.summary()
    document = json.loads(path.read_text())
    assert "golden" in document["scenarios"]

    checked = run_check("stallcheck", "golden", config, str(path))
    assert checked.clean, checked.summary()
