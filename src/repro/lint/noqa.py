"""Suppression comments: ``# repro: noqa[RULE-ID] -- justification``.

Every suppression must name the rule(s) it silences **and** carry a
written justification — an unexplained suppression is itself a lint
finding (:data:`LNT001`).  The format is deliberately distinct from
flake8's bare ``# noqa`` so generic tool suppressions never silently
disable project invariants:

.. code-block:: python

    risky()  # repro: noqa[D105] -- iteration order pinned by insertion,
                                    sorting would change the float fold

Multiple ids separate with commas: ``# repro: noqa[D101,D103] -- ...``.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass

from repro.lint.findings import Finding, Severity

__all__ = [
    "Suppression",
    "scan_suppressions",
    "LNT001",
    "MIN_JUSTIFICATION",
]

#: Engine-level rule id for malformed suppressions.
LNT001 = "LNT001"

#: A justification shorter than this is considered missing — "ok" or
#: "legacy" is not a reason the next reader can act on.
MIN_JUSTIFICATION = 10

#: Matches a whole suppression comment token.  The justification is
#: whatever follows the ``--`` separator on the same line.  Anchored at
#: the start of the comment so prose that merely *mentions* the syntax
#: never parses as a suppression.
_NOQA_RE = re.compile(
    r"^#\s*repro:\s*noqa\s*\[(?P<ids>[^\]]*)\]\s*(?:--\s*(?P<why>.*))?$"
)

#: Catches near-misses (missing bracket list, etc.) so a typo cannot
#: silently fail to suppress.
_NOQA_LOOSE_RE = re.compile(r"^#\s*repro:\s*noqa\b")

_RULE_ID_RE = re.compile(r"^[A-Z]{1,4}[0-9]{3}$")


def _comment_tokens(source: str) -> list[tuple[int, int, str]]:
    """``(line, 1-based col, text)`` for every COMMENT token in ``source``.

    Callers lint only sources that already parsed with :mod:`ast`, so
    tokenize errors are not expected; if one occurs anyway we degrade to
    "no comments" rather than crash the lint run.
    """
    out: list[tuple[int, int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                out.append((tok.start[0], tok.start[1] + 1, tok.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return out


@dataclass(frozen=True)
class Suppression:
    """One parsed suppression comment."""

    line: int
    rules: tuple[str, ...]
    justification: str


def scan_suppressions(
    source: str, path: str
) -> tuple[dict[int, Suppression], list[Finding]]:
    """Parse all suppression comments in ``source``.

    Returns ``(by_line, problems)`` where ``problems`` are LNT001
    findings for malformed suppressions (missing bracket list, empty id
    list, bad id syntax, or missing/too-short justification).  A
    malformed suppression never suppresses anything.

    Scanning is token-based: only real COMMENT tokens are considered, so
    docstrings and string literals that *describe* the syntax are inert.
    """
    by_line: dict[int, Suppression] = {}
    problems: list[Finding] = []
    for lineno, col, text in _comment_tokens(source):
        if not _NOQA_LOOSE_RE.match(text):
            continue
        parsed = _parse_suppression(text, lineno)
        if isinstance(parsed, Suppression):
            by_line[lineno] = parsed
        else:
            problems.append(Finding(
                rule=LNT001, severity=Severity.ERROR, path=path,
                line=lineno, col=col, message=parsed,
            ))
    return by_line, problems


def _parse_suppression(text: str, lineno: int) -> Suppression | str:
    """The suppression a ``# repro: noqa`` comment spells, or what is
    wrong with it."""
    m = _NOQA_RE.match(text.rstrip())
    if not m:
        return (
            "malformed suppression: expected "
            "'# repro: noqa[RULE-ID] -- justification'"
        )
    ids = tuple(s.strip() for s in m.group("ids").split(",") if s.strip())
    why = (m.group("why") or "").strip()
    if not ids:
        return "suppression lists no rule ids"
    bad = [i for i in ids if not _RULE_ID_RE.match(i)]
    if bad:
        return f"bad rule id(s) in suppression: {', '.join(bad)}"
    if len(why) < MIN_JUSTIFICATION:
        return (
            f"suppression of {','.join(ids)} needs a written "
            "justification ('-- why this violation is safe', "
            f">= {MIN_JUSTIFICATION} chars)"
        )
    return Suppression(lineno, ids, why)
