"""Unit tests for the repro.lint analyzer: rules, suppressions, CLI."""

import json
from pathlib import Path

import pytest

from repro.lint import (
    PROGRAM_REGISTRY,
    REGISTRY,
    LintConfig,
    lint_paths,
    lint_source,
)
from repro.lint.cli import main as lint_cli
from repro.lint.driver import iter_python_files
from repro.lint.findings import PARSE_ERROR_RULE
from repro.lint.reporters import render_json, render_text

FIXTURES = Path(__file__).parent / "lint_fixtures"


def rules_hit(findings):
    return {f.rule_id for f in findings}


def lint_fixture(name):
    return lint_paths([str(FIXTURES / name)])


# ----------------------------------------------------------------------
# Per-rule detection on the seeded fixture files
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "fixture, rule_id, expected_lines",
    [
        ("fixture_d001.py", "D001", {9, 11, 12}),
        ("fixture_d002.py", "D002", {9, 10, 11, 12}),
        ("fixture_d003.py", "D003", {7, 10, 11}),
        ("fixture_d004.py", "D004", {6, 8}),
        ("fixture_r001.py", "R001", {6, 12}),
        ("fixture_r002.py", "R002", {10, 18}),
        ("fixture_r004.py", "R004", {6, 12}),
    ],
)
def test_fixture_findings(fixture, rule_id, expected_lines):
    findings = lint_fixture(fixture)
    assert rules_hit(findings) == {rule_id}
    assert {f.line for f in findings} == expected_lines
    assert all(f.path.endswith(fixture) for f in findings)


def test_fixture_files_cover_every_rule():
    findings = lint_paths([str(FIXTURES)])
    assert rules_hit(findings) == set(REGISTRY) | set(PROGRAM_REGISTRY)


# ----------------------------------------------------------------------
# Whole-program rules on the multi-file fixture packages
# ----------------------------------------------------------------------


def test_d005_package_collision_and_opaque_name():
    findings = lint_paths([str(FIXTURES / "d005_pkg")])
    assert rules_hit(findings) == {"D005"}
    assert {(Path(f.path).name, f.line) for f in findings} == {
        ("comp_b.py", 5),
        ("comp_b.py", 6),
    }
    collision = next(f for f in findings if f.line == 5)
    assert "d005_pkg.comp_a" in collision.message


def test_d005_clean_package_has_no_findings():
    assert lint_paths([str(FIXTURES / "d005_clean_pkg")]) == []


def test_d006_flags_entropy_reached_through_a_helper_module():
    findings = lint_paths([str(FIXTURES / "d006_pkg")])
    assert rules_hit(findings) == {"D006"}
    (finding,) = findings
    assert finding.path.endswith("entropy.py")
    assert finding.line == 7
    assert "d006_pkg.proc.run -> d006_pkg.entropy.sample" in finding.message


def test_d006_clean_package_has_no_findings():
    assert lint_paths([str(FIXTURES / "d006_clean_pkg")]) == []


def test_r003_package_flags_only_the_discarded_handles():
    findings = lint_paths([str(FIXTURES / "r003_pkg")])
    assert rules_hit(findings) == {"R003"}
    assert {f.line for f in findings} == {13, 14}
    assert all(f.path.endswith("spawner.py") for f in findings)


def test_p_package_flags_every_tier_p_rule_once():
    """The seeded performance package trips each P rule at a known line
    (P003 twice: the ``env.clock.now`` chain and its ``env.clock`` prefix
    both cross the repeat threshold)."""
    findings = lint_paths([str(FIXTURES / "p_pkg")])
    assert rules_hit(findings) == {"P001", "P002", "P003", "P004", "P005"}
    assert sorted((f.rule_id, Path(f.path).name, f.line) for f in findings) == [
        ("P001", "item.py", 4),
        ("P002", "proc.py", 14),
        ("P003", "proc.py", 17),
        ("P003", "proc.py", 17),
        ("P004", "proc.py", 16),
        ("P005", "proc.py", 7),
    ]
    # Every finding names its reachability chain from the spawn root.
    assert all("via p_pkg.proc.run" in f.message for f in findings)


def test_w_package_flags_every_tier_w_rule_at_pinned_lines():
    """The liveness package trips each W rule once (W002 twice: both
    halves of the order cycle are named) and leaves the guarded twins
    in ``clean.py`` alone."""
    findings = lint_paths([str(FIXTURES / "w_pkg")])
    assert rules_hit(findings) == {"W001", "W002", "W003", "W004", "W005"}
    assert sorted((f.rule_id, Path(f.path).name, f.line) for f in findings) == [
        ("W001", "waits.py", 13),
        ("W002", "locks.py", 8),
        ("W002", "locks.py", 22),
        ("W003", "waits.py", 18),
        ("W004", "buffers.py", 8),
        ("W005", "waits.py", 28),
    ]
    assert not any(Path(f.path).name == "clean.py" for f in findings)
    w001 = next(f for f in findings if f.rule_id == "W001")
    assert "spawned via w_pkg.waits.pump" in w001.message
    w002 = next(f for f in findings if f.line == 8 and f.rule_id == "W002")
    assert "the opposite order is taken in backward" in w002.message
    w004 = next(f for f in findings if f.rule_id == "W004")
    assert "Mailbox.feed" in w004.message


def test_r003_ignores_non_env_receivers_and_retained_handles():
    findings = lint_source(
        "def start(env, pool):\n"
        "    env.process(run(env))\n"
        "    pool.process(run(env))\n"
        "    handle = env.process(run(env))\n"
        "    return handle\n"
    )
    assert [(f.rule_id, f.line) for f in findings] == [("R003", 2)]


_D006_SINGLE_MODULE = (
    "import random\n"
    "def helper():\n"
    "    return random.random()  # repro-lint: disable=D002\n"
    "def run(env):\n"
    "    yield env.timeout(helper())\n"
    "def start(env):\n"
    "    return env.process(run(env))\n"
)


def test_d005_fstring_templates_collide_across_modules(tmp_path):
    (tmp_path / "m1.py").write_text("def f(r, c):\n    return r.stream(f'gas/{c}')\n")
    (tmp_path / "m2.py").write_text("def g(r, c):\n    return r.stream(f'gas/{c}')\n")
    findings = lint_paths([str(tmp_path)])
    assert rules_hit(findings) == {"D005"}
    assert "'gas/{}'" in findings[0].message


# ----------------------------------------------------------------------
# Stream-name inventory artifact
# ----------------------------------------------------------------------


def test_stream_inventory_artifact(tmp_path):
    out = tmp_path / "inventory.json"
    config = LintConfig(stream_inventory_path=str(out))
    lint_paths([str(FIXTURES / "d005_pkg")], config)
    payload = json.loads(out.read_text())
    assert payload["site_count"] == 4
    assert payload["stream_count"] == 3
    assert {s["module"] for s in payload["streams"]["shared/jitter"]} == {
        "d005_pkg.comp_a",
        "d005_pkg.comp_b",
    }
    # The opaque site is recorded so the artifact admits it is incomplete.
    assert payload["streams"]["<opaque>"][0]["kind"] == "opaque"


def test_cli_stream_inventory(tmp_path, capsys):
    out = tmp_path / "inv.json"
    code = lint_cli(
        [str(FIXTURES / "d005_clean_pkg"), "--stream-inventory", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["stream_count"] == 4
    assert "clean_a/gas/{}" in payload["streams"]


# ----------------------------------------------------------------------
# File discovery
# ----------------------------------------------------------------------


def test_iter_python_files_dedupes_and_sorts_globally(tmp_path):
    (tmp_path / "b.py").write_text("x = 1\n")
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "a.py").write_text("y = 2\n")
    files = list(
        iter_python_files(
            [str(tmp_path), str(sub / "a.py"), str(tmp_path / "b.py")]
        )
    )
    assert files == sorted(files)
    assert len(files) == len(set(files)) == 2


def test_iter_python_files_excludes_dirs_but_not_explicit_files(tmp_path):
    fixtures = tmp_path / "lint_fixtures"
    fixtures.mkdir()
    (fixtures / "bad.py").write_text("x = 1\n")
    (tmp_path / "ok.py").write_text("y = 2\n")
    expanded = list(
        iter_python_files([str(tmp_path)], exclude_dirs=("lint_fixtures",))
    )
    assert [Path(f).name for f in expanded] == ["ok.py"]
    explicit = list(
        iter_python_files(
            [str(fixtures / "bad.py")], exclude_dirs=("lint_fixtures",)
        )
    )
    assert [Path(f).name for f in explicit] == ["bad.py"]


# ----------------------------------------------------------------------
# Rule behaviour details (in-memory sources)
# ----------------------------------------------------------------------


def test_d001_resolves_import_aliases():
    findings = lint_source(
        "import time as t\n"
        "from time import perf_counter as pc\n"
        "a = t.time()\n"
        "b = pc()\n"
    )
    assert [f.rule_id for f in findings] == ["D001", "D001"]
    assert {f.line for f in findings} == {3, 4}


def test_d001_ignores_env_now_and_local_time_names():
    findings = lint_source(
        "def run(env):\n"
        "    t = env.now\n"
        "    time = lambda: 1\n"
        "    return time(), t\n"
    )
    assert findings == []


def test_d002_allows_variable_seeds():
    findings = lint_source(
        "import random\n"
        "def make(seed):\n"
        "    return random.Random(seed)\n"
    )
    assert findings == []


def test_d002_exempts_the_registry_module():
    source = "import random\nrng = random.Random(0)\n"
    assert lint_source(source, path="src/repro/sim/rng.py") == []
    assert rules_hit(lint_source(source, path="src/repro/other.py")) == {"D002"}


def test_d003_sorted_wrapping_is_clean():
    findings = lint_source(
        "def run(items: set):\n"
        "    for x in sorted(items):\n"
        "        yield x\n"
        "    return 3 in items\n"
    )
    assert findings == []


def test_d003_tracks_assigned_set_names_and_self_attrs():
    findings = lint_source(
        "class W:\n"
        "    def __init__(self):\n"
        "        self.in_flight = set()\n"
        "    def drain(self):\n"
        "        pending = {1, 2}\n"
        "        a = list(pending)\n"
        "        b = [s for s in self.in_flight]\n"
        "        return a, b\n"
    )
    assert [f.rule_id for f in findings] == ["D003", "D003"]
    assert {f.line for f in findings} == {6, 7}


def test_d003_set_operations_propagate():
    findings = lint_source(
        "def run(a: set, b: set):\n"
        "    for x in a | b:\n"
        "        yield x\n"
    )
    assert rules_hit(findings) == {"D003"}


def test_d004_none_comparisons_are_ignored():
    findings = lint_source(
        "def check(end_time):\n"
        "    return end_time == None\n"
    )
    assert findings == []


def test_r001_release_in_finally_is_clean():
    findings = lint_source(
        "def serve(self, service_time):\n"
        "    req = self.resource.request()\n"
        "    yield req\n"
        "    try:\n"
        "        yield self.env.timeout(service_time)\n"
        "    finally:\n"
        "        self.resource.release(req)\n"
    )
    assert findings == []


def test_r001_cancel_counts_as_release():
    findings = lint_source(
        "def serve(resource):\n"
        "    req = resource.request()\n"
        "    req.cancel()\n"
    )
    assert findings == []


def test_r001_escaped_request_not_flagged():
    findings = lint_source(
        "def acquire(resource):\n"
        "    req = resource.request()\n"
        "    return req\n"
    )
    assert findings == []


def test_r004_close_in_finally_is_clean():
    findings = lint_source(
        "def submit(self, tracer):\n"
        "    span = tracer.open_span('submit', 'workload')\n"
        "    try:\n"
        "        yield self.env.timeout(1.0)\n"
        "    finally:\n"
        "        tracer.close_span(span, ok=True)\n"
    )
    assert findings == []


def test_r004_escaped_span_not_flagged():
    findings = lint_source(
        "def begin(tracer):\n"
        "    span = tracer.open_span('block', 'consensus')\n"
        "    return span\n"
    )
    assert findings == []


def test_r004_flags_span_leaked_in_spawned_generator():
    findings = lint_source(
        "def run(env, tracer):\n"
        "    span = tracer.open_span('submit', 'workload')\n"
        "    yield env.timeout(1.0)\n"
    )
    assert rules_hit(findings) == {"R004"}
    assert {f.line for f in findings} == {2}


def test_r002_flags_swallowed_rpc_error():
    findings = lint_source(
        "from repro.errors import RpcError\n"
        "def f(client):\n"
        "    try:\n"
        "        client.call('status')\n"
        "    except RpcError:\n"
        "        pass\n"
    )
    assert rules_hit(findings) == {"R002"}
    assert {f.line for f in findings} == {5}


def test_r002_logging_or_reraise_is_clean():
    findings = lint_source(
        "from repro.errors import RpcError, RpcTimeoutError\n"
        "def f(client, log):\n"
        "    try:\n"
        "        client.call('status')\n"
        "    except RpcTimeoutError:\n"
        "        raise\n"
        "    except RpcError as exc:\n"
        "        log.error('query_failed', reason=str(exc))\n"
    )
    assert findings == []


def test_r002_ignores_non_rpc_exceptions():
    findings = lint_source(
        "def f(x):\n"
        "    try:\n"
        "        return int(x)\n"
        "    except ValueError:\n"
        "        pass\n"
    )
    assert findings == []


def test_parse_error_reported_as_finding():
    findings = lint_source("def broken(:\n")
    assert [f.rule_id for f in findings] == [PARSE_ERROR_RULE]


# ----------------------------------------------------------------------
# Suppressions and configuration
# ----------------------------------------------------------------------


def test_inline_and_file_suppressions():
    assert lint_fixture("fixture_suppressed.py") == []


def test_inline_suppression_is_rule_specific():
    findings = lint_source(
        "import random\n"
        "a = random.Random(1)  # repro-lint: disable=D003\n"
    )
    assert rules_hit(findings) == {"D002"}


def test_disable_all_wildcard():
    findings = lint_source(
        "import random\n"
        "a = random.Random(1)  # repro-lint: disable=all\n"
    )
    assert findings == []


_P002_DECORATED_DEF = (
    "def deco(fn):\n"
    "    return fn\n"
    "\n"
    "def start(env):\n"
    "    return env.process(run(env))\n"
    "\n"
    "def run(env):\n"
    "    while True:\n"
    "        yield env.timeout(1.0)\n"
    "        @deco\n"
    "        def helper():{comment}\n"
    "            return 1\n"
    "        helper()\n"
)

_P002_ASYNC_DEF = (
    "def start(env):\n"
    "    return env.process(run(env))\n"
    "\n"
    "def run(env):\n"
    "    while True:\n"
    "        yield env.timeout(1.0)\n"
    "        async def helper():{comment}\n"
    "            return 1\n"
    "        helper()\n"
)


def test_suppression_on_decorated_def():
    """Findings on a decorated def anchor at the ``def`` line (not the
    decorator), so that's where the suppression comment belongs."""
    live = lint_source(_P002_DECORATED_DEF.format(comment=""))
    assert [(f.rule_id, f.line) for f in live] == [("P002", 11)]
    suppressed = lint_source(
        _P002_DECORATED_DEF.format(comment="  # repro-lint: disable=P002")
    )
    assert suppressed == []


def test_suppression_on_decorator_line_does_not_cover_the_def():
    """A comment on the decorator line is one line too early — the
    directive is strictly line-scoped."""
    source = _P002_DECORATED_DEF.format(comment="").replace(
        "@deco", "@deco  # repro-lint: disable=P002"
    )
    assert rules_hit(lint_source(source)) == {"P002"}


def test_suppression_on_async_def():
    live = lint_source(_P002_ASYNC_DEF.format(comment=""))
    assert [(f.rule_id, f.line) for f in live] == [("P002", 7)]
    suppressed = lint_source(
        _P002_ASYNC_DEF.format(comment="  # repro-lint: disable=P002")
    )
    assert suppressed == []


def test_d006_fires_on_a_single_module_spawn_chain():
    findings = lint_source(_D006_SINGLE_MODULE)
    assert rules_hit(findings) == {"D006"}
    assert {f.line for f in findings} == {3}


def test_disable_file_waives_d006():
    source = "# repro-lint: disable-file=D006\n" + _D006_SINGLE_MODULE
    assert lint_source(source) == []


def test_disable_file_waives_program_rules_not_others():
    source = (
        "# repro-lint: disable-file=R003\n"
        "import random\n"
        "def start(env):\n"
        "    env.process(run(env))\n"
        "    env.timeout(1.0)\n"
        "    rng = random.Random(3)\n"
    )
    assert rules_hit(lint_source(source)) == {"D002"}


def test_rule_selection_config():
    config = LintConfig.with_rules(frozenset({"D001"}))
    findings = lint_paths([str(FIXTURES)], config)
    assert rules_hit(findings) == {"D001"}


# ----------------------------------------------------------------------
# Reporters and CLI
# ----------------------------------------------------------------------


def test_text_reporter_format():
    findings = lint_fixture("fixture_d002.py")
    text = render_text(findings)
    assert "fixture_d002.py:9:" in text
    assert "D002" in text
    assert "finding(s)" in text


def test_json_reporter_roundtrip():
    findings = lint_fixture("fixture_d001.py")
    payload = json.loads(render_json(findings))
    assert payload["count"] == len(findings) == 3
    assert payload["findings"][0]["rule"] == "D001"
    assert payload["findings"][0]["line"] == 9


def test_cli_exit_codes(capsys):
    assert lint_cli([str(FIXTURES / "fixture_d001.py")]) == 1
    assert lint_cli([str(FIXTURES / "fixture_suppressed.py")]) == 0
    capsys.readouterr()


def test_cli_json_format(capsys):
    code = lint_cli([str(FIXTURES / "fixture_r001.py"), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert {f["rule"] for f in payload["findings"]} == {"R001"}


def test_cli_list_rules(capsys):
    assert lint_cli(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "D001", "D002", "D003", "D004", "D005", "D006",
        "R001", "R002", "R003", "R004",
        "W001", "W002", "W003", "W004", "W005",
    ):
        assert rule_id in out
    assert "[whole-program]" in out


def test_cli_rejects_unknown_schedcheck_scenario(capsys):
    with pytest.raises(SystemExit):
        lint_cli(["--schedcheck", "no-such-scenario"])
    capsys.readouterr()


def test_cli_rejects_unknown_stallcheck_scenario(capsys):
    with pytest.raises(SystemExit):
        lint_cli(["--stallcheck", "no-such-scenario"])
    capsys.readouterr()


def test_cli_budget_flags_need_a_budgeted_check(capsys):
    for argv in (["--write-budget"], ["--schedcheck", "golden", "--budget", "x"]):
        with pytest.raises(SystemExit) as exit_info:
            lint_cli(argv)
        assert exit_info.value.code == 2
    capsys.readouterr()


def test_cli_accepts_program_rule_selection(capsys):
    code = lint_cli([str(FIXTURES / "r003_pkg"), "--rules", "R003"])
    out = capsys.readouterr().out
    assert code == 1
    assert "R003" in out


def test_cli_rule_selection(capsys):
    code = lint_cli([str(FIXTURES), "--rules", "R001"])
    out = capsys.readouterr().out
    assert code == 1
    assert "R001" in out and "D001" not in out


def test_main_cli_lint_subcommand(capsys):
    from repro.__main__ import main

    assert main(["lint", str(FIXTURES / "fixture_d004.py")]) == 1
    assert "D004" in capsys.readouterr().out
