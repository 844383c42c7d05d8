"""``repro.lint`` — project-specific AST invariant linter.

Three invariant families keep this system honest, none of them
enforceable by a generic linter:

* **determinism** (D-rules) — results reproduce bit-for-bit from the
  spec seed across both cluster backends;
* **comm-protocol** (C-rules) — every inter-rank byte flows through the
  counted, framed comm layer and every blocking wait is bounded;
* **cache-identity** (K-rules) — everything that determines a result
  reaches the ``stable_hash`` cache key and the cell id.

Plus the typed-island rule (T401) backing the CI ``mypy --strict`` job.
Run as ``repro lint [paths…]`` or ``python -m repro.lint``; suppress a
finding only with a justified
``# repro: noqa[RULE-ID] -- why this is safe`` comment.
"""

from repro.lint.engine import discover_files, lint_paths
from repro.lint.findings import Finding, LintReport, Severity
from repro.lint.rules import all_rules, rules_by_id

__all__ = [
    "Finding",
    "LintReport",
    "Severity",
    "all_rules",
    "rules_by_id",
    "discover_files",
    "lint_paths",
]
