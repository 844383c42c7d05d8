"""The lint engine: file discovery, shared passes, rule dispatch.

One run is::

    files     = discover(paths)              # *.py, fixtures excluded
    contexts  = [parse + module pass]        # imports, symbols, dataclasses
    model     = project pass(contexts)       # cross-file identity view,
                                             # protocols extracted on demand
    findings  = module rules × in-scope files
              + project rules × (contexts, model)
    report    = suppressions applied, sorted

Suppressions (:mod:`repro.lint.noqa`) match ``(rule, line)`` on the
finding's own line; a malformed suppression is an LNT001 finding and
suppresses nothing.  Trace findings (P505/P506) point at call sites,
which may lie outside the scanned set; their suppressions are read from
the Python file the finding names.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.context import (
    ModuleContext,
    build_module_context,
    build_project_model,
)
from repro.lint.findings import Finding, LintReport, Severity
from repro.lint.noqa import scan_suppressions
from repro.lint.rules import ModuleRule, ProjectRule, rules_by_id
from repro.lint.scoping import DEFAULT_EXCLUDES

__all__ = [
    "apply_suppressions",
    "discover_files",
    "lint_paths",
    "parse_module",
    "LintReport",
]


def discover_files(
    paths: Sequence[str | Path],
    excludes: Sequence[str] = DEFAULT_EXCLUDES,
) -> list[Path]:
    """All Python files under ``paths``, deterministic order.

    Directories are walked recursively; ``__pycache__`` and the
    deliberately-violating golden fixtures are excluded (explicitly
    listed files bypass the exclusion — the fixture tests rely on that).
    """
    out: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            candidates: Iterable[Path] = sorted(p.rglob("*.py"))
        else:
            candidates = [p]
        for f in candidates:
            posix = f.as_posix()
            if "__pycache__" in posix:
                continue
            if p.is_dir() and any(frag in posix for frag in excludes):
                continue
            rp = f.resolve()
            if rp not in seen:
                seen.add(rp)
                out.append(f)
    return out


def parse_module(path: Path) -> tuple[ModuleContext | None, Finding | None]:
    """Read and parse one file: its context, or an LNT002 finding."""
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return None, Finding(
            rule="LNT002", severity=Severity.ERROR, path=str(path),
            line=1, col=1, message=f"unreadable file: {exc}",
        )
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, Finding(
            rule="LNT002", severity=Severity.ERROR, path=str(path),
            line=exc.lineno or 1, col=(exc.offset or 0) + 1,
            message=f"syntax error: {exc.msg}",
        )
    return build_module_context(str(path), source, tree), None


def lint_paths(
    paths: Sequence[str | Path],
    select: Sequence[str] | None = None,
    no_scope: bool = False,
    excludes: Sequence[str] = DEFAULT_EXCLUDES,
    trace: bool = False,
    trace_dir: str | None = None,
) -> LintReport:
    """Lint ``paths`` and return the full report.

    ``select`` restricts to the given rule ids; ``no_scope`` disables
    per-directory scoping (used by the fixture tests, where a violating
    file lives outside the directory its rule normally binds).
    ``trace`` feeds the P505/P506 rules traced sim smoke runs of every
    strategy; ``trace_dir`` feeds them the ``rank-N.jsonl`` traces
    recorded there instead (no skeleton admission: the protocol is
    unknown).
    """
    rules = rules_by_id(select)
    report = LintReport(rules_run=tuple(r.id for r in rules))
    files = discover_files(paths, excludes=excludes)
    report.files_scanned = len(files)

    contexts: list[ModuleContext] = []
    suppressions: dict[str, dict[int, object]] = {}
    for path in files:
        ctx, problem = parse_module(path)
        if problem is not None:
            report.findings.append(problem)
            continue
        assert ctx is not None
        contexts.append(ctx)
        per_line, noqa_problems = scan_suppressions(ctx.source, ctx.path)
        suppressions[ctx.path] = per_line  # type: ignore[assignment]
        report.extend(noqa_problems)

    raw: list[Finding] = []
    model = None
    for rule in rules:
        if isinstance(rule, ModuleRule):
            for ctx in contexts:
                if no_scope or rule.scope.matches(ctx.path):
                    raw.extend(rule.check(ctx))
        elif isinstance(rule, ProjectRule):
            if model is None:
                model = build_project_model(
                    contexts, trace=trace, trace_dir=trace_dir
                )
            raw.extend(rule.check_project(contexts, model))

    report.extend(_scan_finding_files(raw, suppressions))
    report.findings.extend(apply_suppressions(raw, suppressions))
    report.sort()
    return report


def _scan_finding_files(
    findings: list[Finding],
    suppressions: dict[str, dict[int, object]],
) -> list[Finding]:
    """Add the suppressions of Python files findings name by a path the
    scan did not use; returns those files' LNT001 problems."""
    unknown = {f.path for f in findings} - suppressions.keys()
    if not unknown:
        return []
    scanned = {Path(p).resolve(): per_line
               for p, per_line in suppressions.items()}
    problems: list[Finding] = []
    for fpath in sorted(unknown):
        p = Path(fpath)
        if p.resolve() in scanned:
            suppressions[fpath] = scanned[p.resolve()]
            continue
        if p.suffix != ".py" or not p.is_file():
            continue
        try:
            source = p.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            continue
        per_line, noqa_problems = scan_suppressions(source, fpath)
        suppressions[fpath] = per_line  # type: ignore[assignment]
        problems.extend(noqa_problems)
    return problems


def apply_suppressions(
    findings: Iterable[Finding],
    suppressions: dict[str, dict[int, object]],
) -> list[Finding]:
    """Mark findings suppressed where a matching ``# repro: noqa`` sits.

    ``suppressions`` maps path → line → :class:`repro.lint.noqa.Suppression`
    (as produced by :func:`repro.lint.noqa.scan_suppressions`).
    """
    out: list[Finding] = []
    for f in findings:
        per_line = suppressions.get(f.path, {})
        sup = per_line.get(f.line)
        if sup is not None and f.rule in sup.rules:  # type: ignore[attr-defined]
            f = Finding(
                rule=f.rule, severity=f.severity, path=f.path, line=f.line,
                col=f.col, message=f.message, suppressed=True,
                justification=sup.justification,  # type: ignore[attr-defined]
            )
        out.append(f)
    return out
