"""Command-line front end: ``repro lint`` and ``python -m repro.lint``."""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Sequence

from repro.lint.changed import changed_paths
from repro.lint.engine import discover_files, lint_paths
from repro.lint.rules import all_rules

__all__ = ["add_lint_arguments", "cmd_lint", "main"]

#: What ``repro lint`` checks when no paths are given.
DEFAULT_PATHS = ("src",)


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=list(DEFAULT_PATHS),
        help="files/directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=["human", "json"], default="human",
        help="output format (json is the versioned CI schema)",
    )
    parser.add_argument(
        "--select", default=None, metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--no-scope", action="store_true",
        help="disable per-directory rule scoping (fixture/test runs)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="warnings are blocking too",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="also print suppressed findings with their justifications",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule battery (id, severity, scope, invariant)",
    )
    parser.add_argument(
        "--changed-only", action="store_true",
        help=(
            "skip the run when no file under the paths changed vs HEAD, "
            "else lint them all: project rules span files (pre-commit "
            "hook mode; a full run when git cannot answer)"
        ),
    )
    parser.add_argument(
        "--trace", action="store_true",
        help=(
            "feed P505/P506 traced sim-backend smoke runs of every "
            "strategy, replayed through the vector-clock checker"
        ),
    )
    parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help=(
            "replay the rank-N.jsonl traces recorded in DIR instead "
            "(implies --trace; no skeleton admission: the protocol is "
            "unknown)"
        ),
    )


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in all_rules():
            scope = ", ".join(rule.scope.include) or "everywhere"
            print(f"{rule.id}  [{rule.severity}]  ({scope})")
            print(f"    {rule.invariant}")
        return 0
    select = None
    if args.select:
        select = [s.strip() for s in args.select.split(",") if s.strip()]
    if args.trace_dir and not any(Path(args.trace_dir).glob("rank-*.jsonl")):
        print(f"error: no rank-N.jsonl traces in {args.trace_dir}")
        return 2
    if args.changed_only:
        changed = changed_paths()
        if changed is not None and not any(
            f.resolve() in changed for f in discover_files(args.paths)
        ):
            print("lint: no changed Python files under the given paths")
            return 0
    try:
        report = lint_paths(
            args.paths, select=select, no_scope=args.no_scope,
            trace=args.trace, trace_dir=args.trace_dir,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}")
        return 2
    if args.format == "json":
        print(report.to_json(strict=args.strict))
    else:
        print(report.render_human(verbose=args.verbose))
    return report.exit_code(strict=args.strict)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "AST-based invariant linter: determinism (D), comm-protocol "
            "(C), cache-identity (K), typed-island (T) and whole-protocol "
            "(P) rules"
        ),
    )
    add_lint_arguments(parser)
    return cmd_lint(parser.parse_args(argv))
