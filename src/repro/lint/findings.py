"""Finding records, severities and output rendering for ``repro lint``.

A :class:`Finding` is one rule violation at one source location.  The
JSON output schema (:func:`to_json`) is versioned and consumed by CI and
by the test suite — change it only by bumping :data:`JSON_SCHEMA_VERSION`
and updating ``tests/lint/test_output.py``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable

__all__ = [
    "Severity",
    "Finding",
    "LintReport",
    "JSON_SCHEMA_VERSION",
]

#: Bump on any change to the JSON output structure.
JSON_SCHEMA_VERSION = 1


class Severity:
    """Finding severities.  ``ERROR`` findings are blocking (exit 1);
    ``WARNING`` findings are reported but only block under ``--strict``."""

    ERROR = "error"
    WARNING = "warning"

    ALL = (ERROR, WARNING)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    #: True when a ``# repro: noqa[RULE]`` suppression covered this
    #: finding; suppressed findings are recorded (for audit) but do not
    #: affect the exit status.
    suppressed: bool = False
    #: The justification text of the suppression that covered it.
    justification: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def render(self) -> str:
        tail = ""
        if self.suppressed:
            tail = f"  [suppressed: {self.justification}]"
        return (
            f"{self.location()}: {self.rule} {self.severity}: "
            f"{self.message}{tail}"
        )


@dataclass
class LintReport:
    """The result of one lint run: findings plus scan bookkeeping."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: tuple[str, ...] = ()

    @property
    def active(self) -> list[Finding]:
        """Unsuppressed findings (what determines the exit status)."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed]

    def errors(self, strict: bool = False) -> list[Finding]:
        """Blocking findings: errors, plus warnings under ``strict``."""
        if strict:
            return self.active
        return [f for f in self.active if f.severity == Severity.ERROR]

    def exit_code(self, strict: bool = False) -> int:
        return 1 if self.errors(strict) else 0

    def counts(self) -> dict[str, int]:
        by_rule: dict[str, int] = {}
        for f in self.active:
            by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
        return dict(sorted(by_rule.items()))

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def sort(self) -> None:
        self.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    # -- rendering --------------------------------------------------------

    def to_json(self, strict: bool = False) -> str:
        """The versioned machine-readable report."""
        payload: dict[str, Any] = {
            "version": JSON_SCHEMA_VERSION,
            "files_scanned": self.files_scanned,
            "rules_run": list(self.rules_run),
            "findings": [asdict(f) for f in self.findings],
            "counts": self.counts(),
            "suppressed_count": len(self.suppressed),
            "exit_code": self.exit_code(strict),
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def render_human(self, verbose: bool = False) -> str:
        """The terminal report: findings, then a one-line summary."""
        lines = [f.render() for f in self.active]
        if verbose:
            lines.extend(f.render() for f in self.suppressed)
        n_err = len([f for f in self.active if f.severity == Severity.ERROR])
        n_warn = len(self.active) - n_err
        summary = (
            f"{self.files_scanned} file(s) scanned, "
            f"{n_err} error(s), {n_warn} warning(s), "
            f"{len(self.suppressed)} suppressed"
        )
        if self.counts():
            summary += "  [" + ", ".join(
                f"{rule}×{n}" for rule, n in self.counts().items()
            ) + "]"
        lines.append(summary)
        return "\n".join(lines)
