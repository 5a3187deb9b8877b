"""``python -m repro.lint`` — run the determinism analyzer from the shell.

Exit status: 0 when no findings, 1 when any finding survives suppression
and exemption filtering (or a dynamic check reports a divergence), 2 on
usage errors *and* analyzer crashes — so CI can tell "the tree is dirty"
(1) from "the analyzer itself broke" (2).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from fnmatch import fnmatchcase
from typing import Optional

from repro.lint.config import LintConfig
from repro.lint.driver import lint_paths
from repro.lint.harness import BUDGET_FILES, CHECKS, run_check
from repro.lint.program import PROGRAM_REGISTRY
from repro.lint.reporters import REPORTERS
from repro.lint.rules import REGISTRY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based determinism and simulation-correctness analyzer "
            "for the repro codebase."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=sorted(REPORTERS),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="GLOB",
        help=(
            "rule-id glob to run (repeatable, comma-separable); e.g. "
            "'--select P*' runs only the performance tier, '--select D*,R*' "
            "the determinism and resource tiers"
        ),
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="GLOB",
        help=(
            "rule-id glob to skip after selection (repeatable, "
            "comma-separable); e.g. '--ignore P00[45]'"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    dynamic = parser.add_mutually_exclusive_group()
    dynamic.add_argument(
        "--schedcheck",
        metavar="SCENARIO",
        default=None,
        help=(
            "dynamic mode: run SCENARIO under both event-heap tie-break "
            "policies and report any divergence (a scheduling race) "
            "instead of running the static rules"
        ),
    )
    dynamic.add_argument(
        "--alloccheck",
        metavar="SCENARIO",
        default=None,
        help=(
            "dynamic mode: run SCENARIO under tracemalloc and report "
            "allocations per simulated event by top call site, diffed "
            "against the pinned budget file (ALLOC_BUDGET.json)"
        ),
    )
    dynamic.add_argument(
        "--stallcheck",
        metavar="SCENARIO",
        default=None,
        help=(
            "dynamic mode: run SCENARIO under the liveness monitor, tear "
            "the testbed down, and report deadlocks, livelocks, leaked "
            "waiters and store-backlog regressions against the pinned "
            "budget file (STALL_BUDGET.json)"
        ),
    )
    parser.add_argument(
        "--budget",
        metavar="FILE",
        default=None,
        help=(
            "budget file for --alloccheck/--stallcheck (default: "
            "ALLOC_BUDGET.json / STALL_BUDGET.json at the repo root)"
        ),
    )
    parser.add_argument(
        "--write-budget",
        action="store_true",
        help=(
            "re-pin this scenario's entry in the budget file from this "
            "run's measurements instead of diffing against it"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=7,
        help=(
            "experiment seed for the dynamic-mode scenario (default 7); "
            "scenarios are listed in repro.scenarios"
        ),
    )
    parser.add_argument(
        "--stream-inventory",
        metavar="FILE",
        default=None,
        help=(
            "write the RNG stream-name inventory (JSON) produced by the "
            "whole-program phase to FILE"
        ),
    )
    return parser


def _parse_globs(
    parser: argparse.ArgumentParser, values: Optional[list[str]], flag: str
) -> tuple[str, ...]:
    """Flatten repeatable comma-separable glob flags and typo-check them."""
    if not values:
        return ()
    globs = tuple(
        g.strip() for chunk in values for g in chunk.split(",") if g.strip()
    )
    known = list(REGISTRY) + list(PROGRAM_REGISTRY)
    for pattern in globs:
        if not any(fnmatchcase(rule_id, pattern) for rule_id in known):
            parser.error(f"{flag} glob {pattern!r} matches no registered rule")
    return globs


def _run_dynamic(
    parser: argparse.ArgumentParser, args: argparse.Namespace, check: str
) -> int:
    """Run one sanitizer on one catalogue scenario: 0 clean, 1 findings,
    2 on a usage error or a crash of the run itself."""
    from repro.scenarios import scenario

    name = getattr(args, check)
    if (args.budget is not None or args.write_budget) and check not in BUDGET_FILES:
        parser.error(f"--{check} has no budget file")
    try:
        config = scenario(name, args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        result = run_check(check, name, config, args.budget, args.write_budget)
    except Exception:
        traceback.print_exc()
        print(f"{check} crashed (not a finding)", file=sys.stderr)
        return 2
    print(result.summary())
    return 0 if result.clean else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, rule in REGISTRY.items():
            print(f"{rule_id}  {rule.description}")
        for rule_id, rule in PROGRAM_REGISTRY.items():
            print(f"{rule_id}  [whole-program] {rule.description}")
        return 0

    check = next((c for c in CHECKS if getattr(args, c) is not None), None)
    if check is not None:
        return _run_dynamic(parser, args, check)
    if args.budget is not None or args.write_budget:
        parser.error("--budget/--write-budget need --alloccheck or --stallcheck")

    select = None
    if args.rules:
        select = frozenset(r.strip() for r in args.rules.split(",") if r.strip())
        unknown = select - set(REGISTRY) - set(PROGRAM_REGISTRY)
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    config = LintConfig(
        select=select,
        select_globs=_parse_globs(parser, args.select, "--select"),
        ignore_globs=_parse_globs(parser, args.ignore, "--ignore"),
        stream_inventory_path=args.stream_inventory,
    )

    try:
        findings = lint_paths(args.paths, config)
        report = REPORTERS[args.format](findings)
    except Exception:
        traceback.print_exc()
        print("analyzer crashed (findings, if any, are incomplete)", file=sys.stderr)
        return 2
    print(report)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
