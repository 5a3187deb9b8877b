"""The scenario catalogue: its names, its one lookup, and the CI matrix
that runs both sanitizers over every entry."""

import re
from pathlib import Path

import pytest

from repro.framework import ExperimentConfig
from repro.scenarios import SCENARIOS, scenario

CI_WORKFLOW = Path(__file__).parent.parent / ".github" / "workflows" / "ci.yml"


def test_catalogue_names():
    assert set(SCENARIOS) == {
        "golden", "golden-faults", "fleet", "line3", "hub4", "skewed", "fig12"
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_factories_take_the_seed(name):
    config = scenario(name, 3)
    assert isinstance(config, ExperimentConfig)
    assert config.seed == 3
    assert config.tiebreak == "fifo"


def test_unknown_scenario_lists_the_catalogue():
    known = ", ".join(sorted(SCENARIOS))
    with pytest.raises(ValueError) as exc_info:
        scenario("nope", 7)
    assert str(exc_info.value) == f"unknown scenario 'nope' (known: {known})"


def test_ci_sanitizer_matrix_is_the_catalogue():
    """CI runs --schedcheck and --stallcheck over a ``scenario:`` matrix;
    it must list exactly the catalogue, in sorted order."""
    match = re.search(
        r"^\s*scenario:\s*\[([^\]]*)\]\s*$", CI_WORKFLOW.read_text(), re.M
    )
    assert match, "no `scenario: [...]` matrix in the CI workflow"
    names = [name.strip().strip("\"'") for name in match.group(1).split(",")]
    assert names == sorted(SCENARIOS)
