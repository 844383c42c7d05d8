"""K-rules: cache-identity completeness.

The resume cache and shard-merge gates are sound only if **everything
that determines a cell's result** reaches the ``stable_hash`` cache key
and the cell id.  PR 4 learned this the hard way (``run_esp`` rebuilt
its spec field-by-field and silently dropped four knobs).  These rules
cross-reference the identity dataclasses against explicit manifests and
against the ``cell_key``/``canonical()``/``override`` call sites, so
adding a field without threading it into the identity machinery is a
lint error, not a silent cache collision.

The cross-referenced names (all checked purely from the AST):

* ``ExperimentSpec`` (parallel/runners.py) ↔ ``IDENTITY_FIELDS``;
* ``RunRecord`` (experiments/artifacts.py) ↔
  ``CANONICAL_RESULT_FIELDS`` / ``CANONICAL_OPERATIONAL_FIELDS`` and the
  ``canonical()`` strip list;
* every ``override_*`` alias ↔ the table-driven ``override``, and
  ``NON_IDENTITY_PARAMS`` ↔ the ``cell_key`` exclusion filter.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import DataclassInfo, ModuleContext, ProjectModel
from repro.lint.findings import Finding
from repro.lint.rules import ProjectRule, register

__all__ = [
    "SpecIdentityManifest",
    "OverrideKnobIdentity",
    "CanonicalFieldManifest",
    "SpecRebuildByHand",
]

SPEC_CLASS = "ExperimentSpec"
SPEC_MANIFEST = "IDENTITY_FIELDS"
SPEC_EXEMPT_MANIFEST = "NON_IDENTITY_SPEC_FIELDS"
RECORD_CLASS = "RunRecord"
RESULT_MANIFEST = "CANONICAL_RESULT_FIELDS"
OPERATIONAL_MANIFEST = "CANONICAL_OPERATIONAL_FIELDS"
PARAMS_EXEMPT = "NON_IDENTITY_PARAMS"


def _method(dc: DataclassInfo, name: str) -> ast.FunctionDef | None:
    for stmt in dc.node.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
            return stmt
    return None


def _calls_named(node: ast.AST, names: tuple[str, ...]) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            fn = sub.func
            if isinstance(fn, ast.Name) and fn.id in names:
                return True
            if isinstance(fn, ast.Attribute) and fn.attr in names:
                return True
    return False


def _popped_keys(node: ast.AST) -> set[str]:
    """String keys removed via ``d.pop("key", …)`` inside ``node``."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "pop"
            and sub.args
            and isinstance(sub.args[0], ast.Constant)
            and isinstance(sub.args[0].value, str)
        ):
            out.add(sub.args[0].value)
    return out


def _references_name(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id == name
        for sub in ast.walk(node)
    )


@register
class SpecIdentityManifest(ProjectRule):
    """K301 — every ExperimentSpec field is a declared identity input."""

    id = "K301"
    invariant = (
        "every ExperimentSpec field is declared in IDENTITY_FIELDS and "
        "carried by to_dict(), so cell cache keys (stable_hash over "
        "spec.to_dict()) cover the whole spec"
    )

    def check_project(
        self, contexts: list[ModuleContext], model: ProjectModel
    ) -> Iterator[Finding]:
        dc = model.dataclasses.get(SPEC_CLASS)
        if dc is None:
            return
        manifest = model.manifest(SPEC_MANIFEST)
        exempt = model.manifest(SPEC_EXEMPT_MANIFEST) or ()
        field_names = [name for name, _ in dc.fields]
        if manifest is None:
            yield self.finding(
                dc.path, None,
                f"{SPEC_CLASS} is defined but no {SPEC_MANIFEST} manifest "
                "declares its identity fields; the cache-key contract is "
                "unverifiable",
                line=dc.lineno,
            )
            return
        declared = set(manifest) | set(exempt)
        for name, lineno in dc.fields:
            if name not in declared:
                yield self.finding(
                    dc.path, None,
                    f"new {SPEC_CLASS} field {name!r} is not declared in "
                    f"{SPEC_MANIFEST}: every identity-affecting knob must "
                    "reach the stable_hash cell key (declare it there, or "
                    f"in {SPEC_EXEMPT_MANIFEST} with a justification)",
                    line=lineno,
                )
        for name in manifest:
            if name not in field_names:
                yield self.finding(
                    dc.path, None,
                    f"{SPEC_MANIFEST} lists {name!r} which is not a field "
                    f"of {SPEC_CLASS} (renamed or removed?); manifest and "
                    "dataclass have drifted",
                    line=dc.lineno,
                )
        to_dict = _method(dc, "to_dict")
        if to_dict is not None and not _calls_named(to_dict, ("asdict",)):
            yield self.finding(
                dc.path, None,
                f"{SPEC_CLASS}.to_dict() does not build from asdict(); a "
                "hand-rolled dict drops newly added fields from every "
                "cache key",
                line=to_dict.lineno,
            )
        # cell_key must hash the spec wholesale, not pick fields.
        for fn in model.functions.get("cell_key", []):
            hashes_spec = False
            for sub in ast.walk(fn.node):
                if isinstance(sub, ast.Dict):
                    for k, v in zip(sub.keys, sub.values):
                        if (
                            isinstance(k, ast.Constant)
                            and k.value == "spec"
                            and _calls_named(v, ("to_dict",))
                        ):
                            hashes_spec = True
            if not hashes_spec:
                yield self.finding(
                    fn.path, fn.node,
                    "cell_key does not hash spec.to_dict() under a 'spec' "
                    "key; picking individual fields silently drops new "
                    "spec knobs from the cache key",
                )


@register
class OverrideKnobIdentity(ProjectRule):
    """K302 — one knob override, and one audited cell_key exemption list."""

    id = "K302"
    invariant = (
        "every override_* function delegates to the table-driven "
        "override(), and cell_key excludes exactly the params declared "
        "in NON_IDENTITY_PARAMS"
    )

    def check_project(
        self, contexts: list[ModuleContext], model: ProjectModel
    ) -> Iterator[Finding]:
        exempt = set(model.manifest(PARAMS_EXEMPT) or ())
        # A second knob implementation would re-grow its own id patching
        # and identity rules; the aliases must stay one call to override().
        for name, fns in model.functions.items():
            if not name.startswith("override_"):
                continue
            for fn in fns:
                if not _calls_named(fn.node, ("override",)):
                    yield self.finding(
                        fn.path, fn.node,
                        f"{name} does not delegate to override(): a "
                        "per-knob implementation can drift from the KNOBS "
                        "table's cell-id and cache-key rules",
                    )
        # cell_key's param exclusions must be exactly the declared
        # operational knobs — a literal exclusion is invisible drift.
        for fn in model.functions.get("cell_key", []):
            for sub in ast.walk(fn.node):
                if not isinstance(sub, ast.Compare):
                    continue
                for op, comparator in zip(sub.ops, sub.comparators):
                    if isinstance(op, ast.NotEq) and isinstance(
                        comparator, ast.Constant
                    ) and isinstance(comparator.value, str):
                        excluded = comparator.value
                        if excluded not in exempt:
                            yield self.finding(
                                fn.path, sub,
                                f"cell_key excludes {excluded!r} by string "
                                f"literal; declare it in {PARAMS_EXEMPT} "
                                "and filter by that manifest so the "
                                "exemption is auditable",
                            )
                    elif isinstance(op, ast.NotIn) and isinstance(
                        comparator, ast.Name
                    ) and comparator.id != PARAMS_EXEMPT:
                        yield self.finding(
                            fn.path, sub,
                            f"cell_key filters params by {comparator.id!r}; "
                            f"the audited exemption manifest is "
                            f"{PARAMS_EXEMPT}",
                        )


@register
class CanonicalFieldManifest(ProjectRule):
    """K303 — every RunRecord field is classified result or operational."""

    id = "K303"
    invariant = (
        "every RunRecord field is classified in CANONICAL_RESULT_FIELDS "
        "or CANONICAL_OPERATIONAL_FIELDS, and canonical() strips exactly "
        "the operational ones — so the determinism key can never "
        "silently absorb host-dependent bookkeeping"
    )

    def check_project(
        self, contexts: list[ModuleContext], model: ProjectModel
    ) -> Iterator[Finding]:
        dc = model.dataclasses.get(RECORD_CLASS)
        if dc is None:
            return
        result = model.manifest(RESULT_MANIFEST)
        operational = model.manifest(OPERATIONAL_MANIFEST)
        field_names = [name for name, _ in dc.fields]
        if result is None or operational is None:
            missing = [
                m for m, v in (
                    (RESULT_MANIFEST, result), (OPERATIONAL_MANIFEST, operational)
                ) if v is None
            ]
            yield self.finding(
                dc.path, None,
                f"{RECORD_CLASS} is defined but {' and '.join(missing)} "
                "missing: fields must be explicitly classified as part of "
                "the determinism key or as operational bookkeeping",
                line=dc.lineno,
            )
            return
        declared = set(result) | set(operational)
        for name, lineno in dc.fields:
            if name not in declared:
                yield self.finding(
                    dc.path, None,
                    f"new {RECORD_CLASS} field {name!r} is unclassified: "
                    f"add it to {RESULT_MANIFEST} (part of the determinism "
                    f"key) or {OPERATIONAL_MANIFEST} (stripped by "
                    "canonical()) — and handle it in canonical()",
                    line=lineno,
                )
        both = set(result) & set(operational)
        for name in sorted(both):
            yield self.finding(
                dc.path, None,
                f"{RECORD_CLASS} field {name!r} is listed in both "
                "manifests; a field is result or operational, not both",
                line=dc.lineno,
            )
        for name in sorted(declared - set(field_names)):
            yield self.finding(
                dc.path, None,
                f"manifest entry {name!r} is not a field of "
                f"{RECORD_CLASS} (renamed or removed?); manifest and "
                "dataclass have drifted",
                line=dc.lineno,
            )
        canonical = _method(dc, "canonical")
        if canonical is None:
            yield self.finding(
                dc.path, None,
                f"{RECORD_CLASS} has no canonical() method; the "
                "determinism key is undefined",
                line=dc.lineno,
            )
            return
        if not _calls_named(canonical, ("to_dict", "asdict")):
            yield self.finding(
                dc.path, None,
                "canonical() does not start from to_dict()/asdict(); a "
                "hand-rolled dict drops newly added fields from the "
                "determinism key",
                line=canonical.lineno,
            )
        if not _references_name(canonical, OPERATIONAL_MANIFEST):
            popped = _popped_keys(canonical)
            unstripped = set(operational) - popped
            if unstripped:
                yield self.finding(
                    dc.path, None,
                    "canonical() neither iterates "
                    f"{OPERATIONAL_MANIFEST} nor pops "
                    f"{sorted(unstripped)}; operational fields are leaking "
                    "into the determinism key",
                    line=canonical.lineno,
                )


@register
class SpecRebuildByHand(ProjectRule):
    """K304 — specs are rebuilt with dataclasses.replace, never by hand."""

    id = "K304"
    invariant = (
        "a spec derived from another spec uses dataclasses.replace(); "
        "field-by-field constructor copies silently drop newly added "
        "fields (the PR 4 run_esp bug)"
    )

    def check_project(
        self, contexts: list[ModuleContext], model: ProjectModel
    ) -> Iterator[Finding]:
        for ctx in contexts:
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                ctor = (
                    fn.id if isinstance(fn, ast.Name)
                    else fn.attr if isinstance(fn, ast.Attribute) else None
                )
                if ctor != SPEC_CLASS:
                    continue
                # Keyword values that read attributes off a common base
                # object are a field-by-field copy of another spec.
                bases: dict[str, int] = {}
                for kw in node.keywords:
                    v = kw.value
                    if isinstance(v, ast.Attribute) and isinstance(
                        v.value, ast.Name
                    ):
                        bases[v.value.id] = bases.get(v.value.id, 0) + 1
                if bases and max(bases.values()) >= 2:
                    base = max(bases, key=lambda k: bases[k])
                    yield self.finding(
                        ctx.path, node,
                        f"{SPEC_CLASS}(...) copies {bases[base]} fields off "
                        f"{base!r} by hand; use dataclasses.replace"
                        f"({base}, ...) so new fields can never be dropped",
                    )
