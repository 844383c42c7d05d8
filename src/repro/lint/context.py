"""Shared analysis context: per-module symbol tables and the project model.

The engine parses every file once and runs two passes:

1. a **module pass** building a :class:`ModuleContext` per file — import
   aliases, set-typed local names, dataclass definitions, and
   string-tuple module constants (the manifests the K-rules read);
2. a **project pass** folding every module's context into one
   :class:`ProjectModel` — the cross-file view the cache-identity rules
   cross-reference (``ExperimentSpec`` fields in one file against
   ``cell_key`` in another), and from which the protocol rules extract
   the comm protocols once, on first use.

All inference here is deliberately shallow and syntactic: a lint pass
must never import the code it checks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.check.extract import ProtocolExtractor
    from repro.lint.findings import Finding

__all__ = [
    "DataclassInfo",
    "FunctionInfo",
    "ModuleContext",
    "ProjectModel",
    "build_module_context",
    "build_project_model",
    "is_set_valued",
]


@dataclass
class DataclassInfo:
    """A ``@dataclass``-decorated class parsed from source."""

    name: str
    path: str
    lineno: int
    #: ``(field_name, lineno)`` per annotated field, in declaration order.
    fields: tuple[tuple[str, int], ...]
    node: ast.ClassDef


@dataclass
class FunctionInfo:
    """A module-level or method function of interest to project rules."""

    name: str
    qualname: str
    path: str
    node: ast.FunctionDef


@dataclass
class ModuleContext:
    """Everything the rules need to know about one parsed module."""

    path: str
    tree: ast.Module
    source: str
    #: local name -> dotted module (``np`` -> ``numpy``); from-imports map
    #: the bound name to ``module.attr`` (``wait`` ->
    #: ``multiprocessing.connection.wait``).
    imports: dict[str, str] = field(default_factory=dict)
    #: variable names assigned a set-valued expression, per scope id
    #: (``id(function node)`` or 0 for module scope).
    set_vars: dict[int, set[str]] = field(default_factory=dict)
    dataclasses: list[DataclassInfo] = field(default_factory=list)
    functions: list[FunctionInfo] = field(default_factory=list)
    #: module-level constants that are tuples/sets/frozensets of string
    #: literals — the K-rule manifests (name -> values, lineno).
    str_constants: dict[str, tuple[tuple[str, ...], int]] = field(
        default_factory=dict
    )

    def dotted_name(self, node: ast.AST) -> str | None:
        """The import-resolved dotted name of a Name/Attribute chain."""
        parts: list[str] = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        head = self.imports.get(cur.id, cur.id)
        parts.append(head)
        return ".".join(reversed(parts))


_SET_CALLS = {"set", "frozenset"}
_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}


def is_set_valued(
    node: ast.AST, ctx: ModuleContext, scope: int
) -> bool:
    """Shallow static check: does ``node`` evaluate to a set?

    Recognises set literals/comprehensions, ``set()``/``frozenset()``
    calls, set-operator expressions over set-valued operands, the
    set-returning methods (``union`` …), ``dict.keys()`` unions, and
    local names previously assigned one of the above in the same scope.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id in _SET_CALLS:
            return True
        if isinstance(fn, ast.Attribute) and fn.attr in _SET_METHODS:
            return is_set_valued(fn.value, ctx, scope)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return (
            is_set_valued(node.left, ctx, scope)
            or is_set_valued(node.right, ctx, scope)
        )
    if isinstance(node, ast.Name):
        if node.id in ctx.set_vars.get(scope, set()):
            return True
        return node.id in ctx.set_vars.get(0, set())
    return False


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _dataclass_fields(node: ast.ClassDef) -> tuple[tuple[str, int], ...]:
    out: list[tuple[str, int]] = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            # ClassVar annotations are not dataclass fields.
            ann = ast.unparse(stmt.annotation)
            if "ClassVar" in ann:
                continue
            out.append((stmt.target.id, stmt.lineno))
    return tuple(out)


def _str_tuple_value(node: ast.AST) -> tuple[str, ...] | None:
    """The value of a tuple/list/set/frozenset of string literals, or None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("frozenset", "tuple", "set") and node.args:
        return _str_tuple_value(node.args[0])
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        values: list[str] = []
        for elt in node.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                values.append(elt.value)
            else:
                return None
        return tuple(values)
    return None


class _ContextVisitor(ast.NodeVisitor):
    def __init__(self, ctx: ModuleContext):
        self.ctx = ctx
        self._scope_stack: list[int] = [0]
        self._class_stack: list[str] = []

    # -- imports ----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.ctx.imports[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        mod = node.module or ""
        for alias in node.names:
            self.ctx.imports[alias.asname or alias.name] = (
                f"{mod}.{alias.name}" if mod else alias.name
            )
        self.generic_visit(node)

    # -- scopes and assignments -------------------------------------------

    def _visit_function(self, node: ast.AST) -> None:
        self._scope_stack.append(id(node))
        qual = ".".join(self._class_stack + [node.name])  # type: ignore[attr-defined]
        if isinstance(node, ast.FunctionDef):
            self.ctx.functions.append(FunctionInfo(
                name=node.name, qualname=qual, path=self.ctx.path, node=node,
            ))
        self.generic_visit(node)
        self._scope_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if _is_dataclass_decorated(node):
            self.ctx.dataclasses.append(DataclassInfo(
                name=node.name,
                path=self.ctx.path,
                lineno=node.lineno,
                fields=_dataclass_fields(node),
                node=node,
            ))
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _record_assign(self, target: ast.AST, value: ast.AST, lineno: int) -> None:
        scope = self._scope_stack[-1]
        if isinstance(target, ast.Name):
            if is_set_valued(value, self.ctx, scope):
                self.ctx.set_vars.setdefault(scope, set()).add(target.id)
            if scope == 0:
                tup = _str_tuple_value(value)
                if tup is not None:
                    self.ctx.str_constants[target.id] = (tup, lineno)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_assign(target, node.value, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_assign(node.target, node.value, node.lineno)
        # Annotations count too: ``x: set[int] = ...`` or a bare
        # ``x: set[int]`` declaration marks the name set-valued.
        if isinstance(node.target, ast.Name):
            ann = ast.unparse(node.annotation)
            if ann.startswith(("set[", "set", "frozenset")):
                scope = self._scope_stack[-1]
                self.ctx.set_vars.setdefault(scope, set()).add(node.target.id)
        self.generic_visit(node)


def build_module_context(path: str, source: str, tree: ast.Module) -> ModuleContext:
    ctx = ModuleContext(path=path, tree=tree, source=source)
    _ContextVisitor(ctx).visit(tree)
    return ctx


@dataclass
class ProjectModel:
    """Cross-file view consumed by the project (K and P) rules."""

    #: Dataclasses by class name (first definition wins; the real project
    #: defines each of the identity classes exactly once).
    dataclasses: dict[str, DataclassInfo] = field(default_factory=dict)
    #: String-tuple constants by name -> (values, path, lineno).
    manifests: dict[str, tuple[tuple[str, ...], str, int]] = field(
        default_factory=dict
    )
    #: Functions by bare name (e.g. every ``override_*``; ``cell_key``).
    functions: dict[str, list[FunctionInfo]] = field(default_factory=dict)

    #: Every parsed module of the run (the protocol extractor's input).
    contexts: list[ModuleContext] = field(default_factory=list)
    #: The traces P505/P506 replay: traced sim smoke runs (``trace``) or
    #: a directory of recorded ones (``trace_dir``); neither means none.
    trace: bool = False
    trace_dir: str | None = None

    def manifest(self, name: str) -> tuple[str, ...] | None:
        entry = self.manifests.get(name)
        return entry[0] if entry else None

    @cached_property
    def extraction(self) -> ProtocolExtractor:
        """Every comm protocol the run's modules define (P501–P504)."""
        from repro.check.extract import ProtocolExtractor

        return ProtocolExtractor(self.contexts)

    @cached_property
    def trace_findings(self) -> list[Finding]:
        """The vector-clock replay's P505/P506 findings."""
        if not (self.trace or self.trace_dir):
            return []
        from repro.check import driver

        if self.trace_dir:
            return driver.replay_dir(self.trace_dir)
        return driver.replay_smoke_runs(self.extraction.protocols)


def build_project_model(
    contexts: list[ModuleContext],
    trace: bool = False,
    trace_dir: str | None = None,
) -> ProjectModel:
    model = ProjectModel(contexts=contexts, trace=trace, trace_dir=trace_dir)
    for ctx in contexts:
        for dc in ctx.dataclasses:
            model.dataclasses.setdefault(dc.name, dc)
        for name, (values, lineno) in ctx.str_constants.items():
            model.manifests.setdefault(name, (values, ctx.path, lineno))
        for fn in ctx.functions:
            model.functions.setdefault(fn.name, []).append(fn)
    return model
