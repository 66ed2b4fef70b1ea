"""CLI entry points: ``python -m repro lint`` and ``python -m repro check``.

``lint`` runs the simlint rule pack and exits non-zero on findings, so it
can gate CI.  ``check`` is the aggregate quality gate: simlint always, plus
``ruff`` and ``mypy`` when they are installed (skipped with a notice
otherwise, or a failure under ``--strict-tools`` — the CI jobs install
both, so the gate is only soft on bare development machines).
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from typing import List, Optional, Sequence, Tuple

from repro.core.cliargs import ArgumentParser
from repro.lint.baseline import apply_baseline, load_baseline, write_baseline
from repro.lint.cache import LintCache
from repro.lint.engine import lint_paths, validate_select
from repro.lint.rules import rules_table
from repro.lint.sarif import to_sarif

DEFAULT_PATHS = ("src", "tests")

#: Exit codes: 0 clean, 1 findings, 2 usage / missing paths.
EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE = 0, 1, 2


def _lint_parser() -> argparse.ArgumentParser:
    parser = ArgumentParser(
        prog="python -m repro lint",
        description=(
            "simlint: determinism, invariant & unit/dimension static "
            "analysis for the simulated testbed (rules SIM000-SIM014; "
            "see docs/lint.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="drop findings recorded in this baseline file (new ones still fail)",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        default=None,
        help="record current findings as the baseline and exit clean",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the content-hash result cache",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list every rule code with its summary and exit",
    )
    return parser


def run_lint(argv: Optional[Sequence[str]] = None) -> int:
    args = _lint_parser().parse_args(list(argv) if argv is not None else None)

    if args.list_rules:
        for code, summary in rules_table():
            print(f"{code}  {summary}")
        return EXIT_CLEAN

    select = None
    if args.select:
        try:
            select = validate_select(args.select.split(","))
        except ValueError as exc:
            print(f"lint: {exc}", file=sys.stderr)
            return EXIT_USAGE

    # The cache only serves full runs: a --select subset would otherwise
    # poison (or be poisoned by) full-run entries.
    cache = None
    if not args.no_cache and select is None:
        cache = LintCache()

    try:
        result = lint_paths(args.paths, select=select, cache=cache)
    except FileNotFoundError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.write_baseline:
        recorded = write_baseline(args.write_baseline, result.diagnostics)
        print(
            f"simlint: baseline written to {args.write_baseline} "
            f"({recorded} finding{'' if recorded == 1 else 's'})"
        )
        return EXIT_CLEAN

    baselined = 0
    if args.baseline:
        try:
            slots = load_baseline(args.baseline)
        except ValueError as exc:
            print(f"lint: {exc}", file=sys.stderr)
            return EXIT_USAGE
        result.diagnostics, baselined = apply_baseline(
            result.diagnostics, slots
        )

    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    elif args.format == "sarif":
        print(json.dumps(to_sarif(result), indent=2, sort_keys=True))
    else:
        for diag in result.diagnostics:
            print(diag.format())
        summary = (
            f"{len(result.diagnostics)} finding"
            f"{'' if len(result.diagnostics) == 1 else 's'} "
            f"({result.files_scanned} files, {result.suppressed} suppressed"
            + (f", {baselined} baselined" if baselined else "")
            + ")"
        )
        print(("" if result.ok else "\n") + f"simlint: {summary}")
        if cache is not None:
            print(f"simlint: {cache.status()}")
    return EXIT_CLEAN if result.ok else EXIT_FINDINGS


# ----------------------------------------------------------------------
# `python -m repro check` — the aggregate gate.
# ----------------------------------------------------------------------


def _check_parser() -> argparse.ArgumentParser:
    parser = ArgumentParser(
        prog="python -m repro check",
        description=(
            "aggregate quality gate: simlint + ruff + strict mypy "
            "(external tools skip with a notice when not installed)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help="paths for simlint/ruff (default: src tests)",
    )
    parser.add_argument(
        "--strict-tools",
        action="store_true",
        help="fail (instead of skip) when ruff or mypy is not installed",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the simlint content-hash result cache",
    )
    return parser


def _run_external(name: str, cmd: List[str]) -> Tuple[str, int]:
    """Run an external tool; returns (status, returncode)."""
    if shutil.which(cmd[0]) is None:
        return ("missing", -1)
    proc = subprocess.run(cmd)
    return ("ok" if proc.returncode == 0 else "fail", proc.returncode)


def run_check(argv: Optional[Sequence[str]] = None) -> int:
    args = _check_parser().parse_args(list(argv) if argv is not None else None)
    failures = 0
    skipped: List[str] = []

    print("== simlint ==", flush=True)
    lint_argv = list(args.paths)
    if args.no_cache:
        lint_argv.append("--no-cache")
    lint_rc = run_lint(lint_argv)
    if lint_rc != EXIT_CLEAN:
        failures += 1

    steps = [
        ("ruff", ["ruff", "check", *args.paths]),
        ("mypy", ["mypy", "--config-file", "pyproject.toml"]),
    ]
    for name, cmd in steps:
        print(f"== {name} ==", flush=True)
        status, _rc = _run_external(name, cmd)
        if status == "missing":
            print(f"{name}: not installed — skipped (CI runs it)")
            skipped.append(name)
            if args.strict_tools:
                failures += 1
        elif status == "fail":
            failures += 1

    verdict = "FAIL" if failures else "ok"
    note = f" (skipped: {', '.join(skipped)})" if skipped else ""
    print(f"\ncheck: {verdict}{note}")
    return EXIT_FINDINGS if failures else EXIT_CLEAN
