"""Rule base classes and the rule registry.

A rule is a class with a unique ``id`` (``D101`` …), a severity, a
one-line ``invariant`` (what the rule protects — rendered by
``repro lint --list-rules`` and DESIGN §9) and a :class:`RuleScope`.
Module rules implement ``check(ctx)`` over one file; project rules
implement ``check_project(contexts, model)`` over the whole scanned set
(the cross-referencing cache-identity rules and the whole-protocol
rules).

The built-in battery registers on first lookup: the determinism,
comm-protocol, cache-identity and typed-island families from this
package, and the whole-protocol family (P5xx) from the analyses that
implement it, :mod:`repro.check.analysis` and :mod:`repro.check.replay`.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.context import ModuleContext, ProjectModel
from repro.lint.findings import Finding, Severity
from repro.lint.scoping import RuleScope

__all__ = [
    "Rule",
    "ModuleRule",
    "ProjectRule",
    "register",
    "all_rules",
    "rules_by_id",
]

_REGISTRY: dict[str, "Rule"] = {}


class Rule:
    """Base: identity, scope and doc metadata shared by all rules."""

    id: str = ""
    severity: str = Severity.ERROR
    #: One-line statement of the protected invariant.
    invariant: str = ""
    scope: RuleScope = RuleScope()

    def finding(
        self, path: str, node: ast.AST | None, message: str,
        line: int | None = None, col: int | None = None,
    ) -> Finding:
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=path,
            line=line if line is not None else getattr(node, "lineno", 1),
            col=col if col is not None else getattr(node, "col_offset", 0) + 1,
            message=message,
        )


class ModuleRule(Rule):
    """A rule evaluated independently per module."""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule evaluated once over the whole scanned file set."""

    def check_project(
        self, contexts: list[ModuleContext], model: ProjectModel
    ) -> Iterator[Finding]:
        raise NotImplementedError


def register(cls: type) -> type:
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return cls


def all_rules() -> list[Rule]:
    _load_builtin()
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def rules_by_id(ids: Iterable[str] | None = None) -> list[Rule]:
    rules = all_rules()
    if ids is None:
        return rules
    wanted = set(ids)
    unknown = wanted - {r.id for r in rules}
    if unknown:
        raise KeyError(
            f"unknown rule id(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(r.id for r in rules)}"
        )
    return [r for r in rules if r.id in wanted]


def _load_builtin() -> None:
    # Deferred so the registry import cannot cycle with rule modules.
    from repro.check import analysis, replay  # noqa: F401
    from repro.lint.rules import cache, comm, determinism, typed  # noqa: F401
