"""Static protocol extraction: source ASTs -> per-role skeletons.

The extractor never imports the code it checks (same contract as
``repro lint``).  It parses every given file, then builds:

* one **strategy protocol** per module defining an ``_spmd`` entry point
  — the SPMD body is projected twice, once per role (``master`` for
  rank 0, ``worker`` for every other rank), with rank conditionals
  resolved, local/imported helper calls inlined (the type3 store's
  ``_master``, nested closures like its ``reply``), payload
  labels read off the tuple-with-string-head idiom, and reply
  destinations tied back to the last wildcard receive;
* one **collective protocol** per ``bcast``/``scatter``/``gather``
  method that splits on ``rank == root`` — the complementarity contract
  of :class:`~repro.parallel.mpi.commbase.BufferedComm`'s root-sequenced
  collectives (root's per-rank sends vs everyone else's single recv on
  the reserved collective tag).

All resolution is shallow and syntactic.  Anything the extractor cannot
prove collapses to :data:`~repro.check.events.UNKNOWN`, which the
downstream analyses treat as matching everything — commcheck under-
reports rather than speculates.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.check.events import (
    ANY,
    COMM_OPS,
    RANKS,
    REPLY,
    UNKNOWN,
    Branch,
    Choice,
    Event,
    Jump,
    Loop,
    Node,
    Protocol,
    RoleSkeleton,
)

__all__ = ["ProtocolExtractor", "extract_protocols", "ExtractError"]

#: Inlining depth cap — protocol helpers are shallow; a cycle or a deep
#: chain stops expanding and the call is simply skipped.
_MAX_INLINE_DEPTH = 6

#: Fallback when no faults.py is in the scanned set.
DEFAULT_FAULT_KINDS = ("kill", "wedge", "disconnect", "drop", "delay")

#: Fault kinds that terminate or permanently silence a rank — the ones
#: that turn an unbounded recv into a hang (P504's concern).
KILLING_FAULT_KINDS = ("kill", "wedge", "disconnect")

# Environment markers a walker tracks per local name.
_RECV_SRC = "<recv-src>"
_RECV_MSG = "<recv-msg>"
_RECV_KIND = "<recv-kind>"
_RANK_VAR = "<rank-var>"


class ExtractError(Exception):
    """A file could not be parsed."""


@dataclass
class _Module:
    """One parsed file plus its shallow symbol tables."""

    path: str
    tree: ast.Module
    source: str
    imports: dict[str, str] = field(default_factory=dict)
    int_consts: dict[str, int] = field(default_factory=dict)
    str_consts: dict[str, str] = field(default_factory=dict)
    tuple_consts: dict[str, tuple[str, ...]] = field(default_factory=dict)
    functions: dict[str, ast.FunctionDef] = field(default_factory=dict)
    classes: dict[str, ast.ClassDef] = field(default_factory=dict)

    @property
    def stem(self) -> str:
        return Path(self.path).stem

    def dotted(self) -> str:
        """Best-effort dotted module name derived from the path."""
        parts = Path(self.path).with_suffix("").parts
        if "src" in parts:
            parts = parts[parts.index("src") + 1:]
        elif "repro" in parts:
            parts = parts[parts.index("repro"):]
        return ".".join(parts)


def _int_literal(node: ast.AST) -> int | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, int) \
            and not isinstance(node.value, bool):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _int_literal(node.operand)
        if inner is not None:
            return -inner
    return None


def _parse_module(path: str | Path) -> _Module:
    p = Path(path)
    try:
        source = p.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(p))
    except (OSError, SyntaxError, UnicodeDecodeError) as exc:
        raise ExtractError(f"{p}: {exc}") from exc
    mod = _Module(path=str(p), tree=tree, source=source)
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                mod.imports[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                mod.imports[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        elif isinstance(node, ast.FunctionDef):
            mod.functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            mod.classes[node.name] = node
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            lit = _int_literal(node.value)
            if lit is not None:
                mod.int_consts[name] = lit
            elif isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str):
                mod.str_consts[name] = node.value.value
            elif isinstance(node.value, (ast.Tuple, ast.List)):
                elts = [
                    e.value for e in node.value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                ]
                if elts and len(elts) == len(node.value.elts):
                    mod.tuple_consts[name] = tuple(elts)
    return mod


def _class_int_consts(cls: ast.ClassDef) -> dict[str, int]:
    out: dict[str, int] = {}
    for node in cls.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            lit = _int_literal(node.value)
            if lit is not None:
                out[node.targets[0].id] = lit
    return out


def _class_methods(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        n.name: n for n in cls.body if isinstance(n, ast.FunctionDef)
    }


def _comm_receiver(node: ast.AST, in_comm_class: bool) -> bool:
    """Is ``node`` a wrapped comm object (the public op surface)?"""
    if isinstance(node, ast.Name):
        if node.id == "self":
            return in_comm_class
        return node.id == "comm" or node.id.endswith("comm")
    if isinstance(node, ast.Attribute):
        return node.attr.endswith("comm")
    return False


def _rankish(node: ast.AST) -> bool:
    """Is ``node`` the executing rank (``comm.rank``/``self._rank``)?"""
    if isinstance(node, ast.Attribute):
        return node.attr in ("rank", "_rank")
    return isinstance(node, ast.Name) and node.id == "rank"


def _mentions_size(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in ("size", "_size"):
            return True
        if isinstance(sub, ast.Name) and sub.id in ("size", "nranks", "p"):
            return True
    return False


def _norm(node: ast.AST) -> str:
    return ast.unparse(node).replace(" ", "")


class ProtocolExtractor:
    """Parses a file set and extracts every protocol it defines."""

    def __init__(self, paths: Sequence[str | Path]):
        self.modules: list[_Module] = []
        self.errors: list[tuple[str, str]] = []
        by_name: dict[str, _Module] = {}
        for path in paths:
            try:
                mod = _parse_module(path)
            except ExtractError as exc:
                self.errors.append((str(path), str(exc)))
                continue
            self.modules.append(mod)
            by_name[mod.dotted()] = mod
            by_name.setdefault(mod.stem, mod)
        self._by_name = by_name

    # -- cross-module resolution ------------------------------------------

    def resolve_function(
        self, mod: _Module, name: str
    ) -> tuple[_Module, ast.FunctionDef] | None:
        """A module-level function ``name`` visible in ``mod``."""
        if name in mod.functions:
            return mod, mod.functions[name]
        dotted = mod.imports.get(name)
        if dotted and "." in dotted:
            modname, attr = dotted.rsplit(".", 1)
            target = self._by_name.get(modname) \
                or self._by_name.get(modname.rsplit(".", 1)[-1])
            if target is not None and attr in target.functions:
                return target, target.functions[attr]
        return None

    def resolve_int(self, mod: _Module, name: str) -> int | None:
        if name in mod.int_consts:
            return mod.int_consts[name]
        dotted = mod.imports.get(name)
        if dotted and "." in dotted:
            modname, attr = dotted.rsplit(".", 1)
            target = self._by_name.get(modname) \
                or self._by_name.get(modname.rsplit(".", 1)[-1])
            if target is not None:
                return target.int_consts.get(attr)
        return None

    def resolve_str(self, mod: _Module, name: str) -> str | None:
        if name in mod.str_consts:
            return mod.str_consts[name]
        dotted = mod.imports.get(name)
        if dotted and "." in dotted:
            modname, attr = dotted.rsplit(".", 1)
            target = self._by_name.get(modname) \
                or self._by_name.get(modname.rsplit(".", 1)[-1])
            if target is not None:
                return target.str_consts.get(attr)
        return None

    # -- manifests ---------------------------------------------------------

    def fault_kinds(self) -> tuple[str, ...]:
        """FAULT_KINDS read off faults.py's AST (never imported)."""
        for mod in self.modules:
            kinds = mod.tuple_consts.get("FAULT_KINDS")
            if kinds:
                return kinds
        return DEFAULT_FAULT_KINDS

    # -- protocol construction --------------------------------------------

    def protocols(self) -> list[Protocol]:
        out: list[Protocol] = []
        for mod in self.modules:
            if "_spmd" in mod.functions:
                out.append(self._strategy_protocol(mod))
            out.extend(self._collective_protocols(mod))
        return out

    def _strategy_protocol(self, mod: _Module) -> Protocol:
        proto = Protocol(
            name=mod.stem, path=mod.path, kind="strategy",
        )
        proto.deadline_capable, proto.runner_line = \
            self._deadline_capable(mod)
        entry = mod.functions["_spmd"]
        for role in ("master", "worker"):
            walker = _Walker(self, mod, role)
            nodes, _ = walker.walk(entry.body)
            proto.roles[role] = RoleSkeleton(role=role, nodes=nodes)
        return proto

    def _collective_protocols(self, mod: _Module) -> list[Protocol]:
        out: list[Protocol] = []
        for cname, cls in mod.classes.items():
            methods = _class_methods(cls)
            for op in ("bcast", "scatter", "gather"):
                fn = methods.get(op)
                if fn is None or not self._splits_on_root(fn):
                    continue
                proto = Protocol(
                    name=f"{mod.stem}.{cname}.{op}",
                    path=mod.path, kind="collective",
                    deadline_capable=True,  # impls sit under backend deadlines
                )
                for role in ("root", "nonroot"):
                    walker = _Walker(self, mod, role, comm_class=cls)
                    nodes, _ = walker.walk(fn.body)
                    proto.roles[role] = RoleSkeleton(role=role, nodes=nodes)
                out.append(proto)
        return out

    @staticmethod
    def _splits_on_root(fn: ast.FunctionDef) -> bool:
        for node in ast.walk(fn):
            if isinstance(node, ast.If) \
                    and isinstance(node.test, ast.Compare) \
                    and _rankish(node.test.left) \
                    and len(node.test.comparators) == 1 \
                    and isinstance(node.test.comparators[0], ast.Name) \
                    and node.test.comparators[0].id == "root":
                return True
        return False

    @staticmethod
    def _deadline_capable(mod: _Module) -> tuple[bool, int]:
        """Does any runner in this module thread a deadline into
        ``make_cluster`` or the driver ``run_cluster``?  Returns
        (capable, line of the call)."""
        line = 0
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else (
                fn.attr if isinstance(fn, ast.Attribute) else ""
            )
            keyword = {"make_cluster": "timeout", "run_cluster": "deadline"}.get(name)
            if keyword is None:
                continue
            line = node.lineno
            for kw in node.keywords:
                if kw.arg == keyword and not (
                    isinstance(kw.value, ast.Constant)
                    and kw.value.value is None
                ):
                    return True, line
        return False, line


class _Walker:
    """Projects one role's skeleton out of a statement list."""

    def __init__(
        self,
        ext: ProtocolExtractor,
        mod: _Module,
        role: str,
        env: dict[str, Any] | None = None,
        depth: int = 0,
        comm_class: ast.ClassDef | None = None,
    ):
        self.ext = ext
        self.mod = mod
        self.role = role
        self.env: dict[str, Any] = dict(env or {})
        self.depth = depth
        self.comm_class = comm_class
        self.class_consts = (
            _class_int_consts(comm_class) if comm_class is not None else {}
        )
        self.local_funcs: dict[str, ast.FunctionDef] = {}
        self.guarded = False

    # -- entry -------------------------------------------------------------

    def walk(self, stmts: Sequence[ast.stmt]) -> tuple[list[Node], bool]:
        """Returns (nodes, terminated): ``terminated`` when control
        cannot reach past the last statement (unconditional jump)."""
        nodes: list[Node] = []
        for stmt in stmts:
            emitted, terminated = self._stmt(stmt)
            nodes.extend(emitted)
            if terminated:
                return nodes, True
        return nodes, False

    # -- statements --------------------------------------------------------

    def _stmt(self, stmt: ast.stmt) -> tuple[list[Node], bool]:
        if isinstance(stmt, ast.FunctionDef):
            self.local_funcs[stmt.name] = stmt
            return [], False
        if isinstance(stmt, ast.Return):
            nodes = self._expr(
                stmt.value, targets=None, tail=True
            ) if stmt.value else []
            nodes.append(Jump("return", self.mod.path, stmt.lineno))
            return nodes, True
        if isinstance(stmt, ast.Raise):
            return [Jump("return", self.mod.path, stmt.lineno)], True
        if isinstance(stmt, ast.Break):
            return [Jump("break", self.mod.path, stmt.lineno)], True
        if isinstance(stmt, ast.Continue):
            return [Jump("continue", self.mod.path, stmt.lineno)], True
        if isinstance(stmt, ast.If):
            return self._if(stmt)
        if isinstance(stmt, ast.For):
            return self._for(stmt)
        if isinstance(stmt, ast.While):
            return self._while(stmt)
        if isinstance(stmt, ast.Try):
            return self._try(stmt)
        if isinstance(stmt, ast.With):
            return self.walk(stmt.body)
        if isinstance(stmt, ast.Assign):
            nodes = self._expr(stmt.value, targets=stmt.targets)
            self._track_assign(stmt)
            return nodes, False
        if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            value = stmt.value
            nodes = self._expr(value, targets=None) if value else []
            return nodes, False
        if isinstance(stmt, ast.Expr):
            return self._expr(stmt.value, targets=None), False
        return [], False

    # -- branching ---------------------------------------------------------

    def _if(self, stmt: ast.If) -> tuple[list[Node], bool]:
        split = self._rank_split(stmt.test)
        if split is not None:
            body_role, else_role = split
            if self.role == body_role:
                return self.walk(stmt.body)
            if self.role == else_role:
                return self.walk(stmt.orelse)
            return [], False

        label = self._reactive_label(stmt.test)
        if label is not None:
            branches: list[Branch] = []
            cur: ast.stmt | None = stmt
            reactive = True
            while isinstance(cur, ast.If) and reactive:
                lab = self._reactive_label(cur.test)
                if lab is None:
                    break
                body, _ = self.walk(cur.body)
                branches.append(Branch(label=lab, body=body))
                orelse = cur.orelse
                if len(orelse) == 1 and isinstance(orelse[0], ast.If):
                    cur = orelse[0]
                else:
                    if orelse:
                        tail, _ = self.walk(orelse)
                        branches.append(Branch(label=None, body=tail))
                    cur = None
            if cur is not None and isinstance(cur, ast.If):
                tail_nodes, _ = self._if(cur)
                branches.append(Branch(label=None, body=list(tail_nodes)))
            choice = Choice(branches, self.mod.path, stmt.lineno)
            return [choice], False

        body, body_term = self.walk(stmt.body)
        orelse, else_term = self.walk(stmt.orelse)
        if not body and not orelse:
            return [], False
        choice = Choice(
            [Branch(None, body), Branch(None, orelse)],
            self.mod.path, stmt.lineno,
        )
        return [choice], body_term and else_term and bool(stmt.orelse)

    def _rank_split(self, test: ast.AST) -> tuple[str, str] | None:
        """(body_role, else_role) for rank conditionals, else None."""
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1
                and len(test.comparators) == 1 and _rankish(test.left)):
            return None
        if isinstance(test.left, ast.Name) \
                and self.env.get(test.left.id) == _RANK_VAR:
            return None
        op = test.ops[0]
        comp = test.comparators[0]
        lit = _int_literal(comp)
        if lit == 0:
            if isinstance(op, ast.Eq):
                return ("master", "worker") if self.comm_class is None \
                    else ("root", "nonroot")
            if isinstance(op, (ast.NotEq, ast.Gt)):
                return ("worker", "master") if self.comm_class is None \
                    else ("nonroot", "root")
        if lit == 1 and isinstance(op, ast.GtE):
            return ("worker", "master")
        if isinstance(comp, ast.Name) and comp.id == "root":
            if isinstance(op, ast.Eq):
                return "root", "nonroot"
            if isinstance(op, ast.NotEq):
                return "nonroot", "root"
        return None

    def _reactive_label(self, test: ast.AST) -> str | None:
        """The message-kind string a branch is keyed on, if any."""
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Eq)
                and len(test.comparators) == 1):
            return None
        left = test.left
        keyed = (
            isinstance(left, ast.Name)
            and self.env.get(left.id) == _RECV_KIND
        ) or (
            isinstance(left, ast.Subscript)
            and isinstance(left.value, ast.Name)
            and self.env.get(left.value.id) == _RECV_MSG
            and isinstance(left.slice, ast.Constant)
            and left.slice.value == 0
        )
        if not keyed:
            return None
        comp = test.comparators[0]
        if isinstance(comp, ast.Constant) and isinstance(comp.value, str):
            return comp.value
        if isinstance(comp, ast.Name):
            return self.ext.resolve_str(self.mod, comp.id)
        return None

    # -- loops -------------------------------------------------------------

    def _for(self, stmt: ast.For) -> tuple[list[Node], bool]:
        kind = "for"
        count = _norm(stmt.iter)
        it = stmt.iter
        if isinstance(it, ast.Call) and isinstance(it.func, ast.Name) \
                and it.func.id == "range" and _mentions_size(it):
            kind = "ranks"
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = _RANK_VAR
        body, _ = self.walk(stmt.body)
        if isinstance(stmt.target, ast.Name):
            self.env.pop(stmt.target.id, None)
        if not body:
            return [], False
        return [Loop(kind, count, body, self.mod.path, stmt.lineno)], False

    def _while(self, stmt: ast.While) -> tuple[list[Node], bool]:
        kind = "serve" if _mentions_size(stmt.test) else "while"
        body, _ = self.walk(stmt.body)
        if not body:
            return [], False
        loop = Loop(kind, _norm(stmt.test), body, self.mod.path, stmt.lineno)
        return [loop], False

    def _try(self, stmt: ast.Try) -> tuple[list[Node], bool]:
        guards = any(
            h.type is not None and any(
                isinstance(n, (ast.Name, ast.Attribute))
                and ("CommError" in ast.unparse(n)
                     or "Exception" in ast.unparse(n))
                for n in ast.walk(h.type)
            )
            for h in stmt.handlers
        )
        body, term = self.walk(stmt.body)
        if guards:
            for ev in _events_under(body):
                ev.guarded = True
        # Handler bodies model failure paths; they are collected neither
        # as protocol events nor as explorer branches (DESIGN §10) — the
        # deadline analysis (P504) is what bounds those paths.
        tail, tail_term = self.walk(stmt.finalbody) if stmt.finalbody \
            else ([], False)
        return body + tail, term and not stmt.handlers or tail_term

    # -- expressions / calls ----------------------------------------------

    def _expr(
        self,
        expr: ast.AST | None,
        targets: list[ast.expr] | None,
        tail: bool = False,
    ) -> list[Node]:
        if expr is None:
            return []
        nodes: list[Node] = []
        calls = [n for n in ast.walk(expr) if isinstance(n, ast.Call)]
        direct = expr if isinstance(expr, ast.Call) else None
        for call in calls:
            emitted = self._call(
                call, targets if call is direct else None,
                tail=tail and call is direct,
            )
            nodes.extend(emitted)
        return nodes

    def _call(
        self,
        call: ast.Call,
        targets: list[ast.expr] | None,
        tail: bool = False,
    ) -> list[Node]:
        fn = call.func
        in_cls = self.comm_class is not None
        # Public comm op on a comm object.
        if isinstance(fn, ast.Attribute) and fn.attr in COMM_OPS \
                and _comm_receiver(fn.value, in_cls):
            return [self._event(fn.attr, call, targets)]
        # The transport hook is the comm-class-internal send.
        if in_cls and isinstance(fn, ast.Attribute) \
                and fn.attr == "_transmit" \
                and isinstance(fn.value, ast.Name) and fn.value.id == "self":
            return [self._transmit_event(call)]
        return self._inline(call, tail)

    def _event(
        self, op: str, call: ast.Call, targets: list[ast.expr] | None
    ) -> Event:
        kw = {k.arg: k.value for k in call.keywords if k.arg}
        ev = Event(op=op, path=self.mod.path, line=call.lineno)
        if op == "send":
            obj = call.args[0] if call.args else kw.get("obj")
            dest = call.args[1] if len(call.args) > 1 else kw.get("dest")
            tag = call.args[2] if len(call.args) > 2 else kw.get("tag")
            ev.peer = self._peer(dest)
            ev.tag = self._tag(tag)
            ev.label = self._label(obj)
        elif op == "recv":
            src = call.args[0] if call.args else kw.get("source")
            tag = call.args[1] if len(call.args) > 1 else kw.get("tag")
            ev.peer = ANY if src is None else self._source(src)
            ev.tag = self._tag(tag)
            ev.label = UNKNOWN
            self._bind_recv(targets)
        elif op == "barrier":
            ev.root = 0
            ev.label = None
        else:  # bcast / scatter / gather
            root = kw.get("root")
            if root is None and len(call.args) > 1:
                root = call.args[1]
            ev.root = 0 if root is None else self._root(root)
            ev.label = None
        return ev

    def _transmit_event(self, call: ast.Call) -> Event:
        kw = {k.arg: k.value for k in call.keywords if k.arg}
        dest = call.args[1] if len(call.args) > 1 else kw.get("dest")
        tag = call.args[2] if len(call.args) > 2 else kw.get("tag")
        return Event(
            op="send", path=self.mod.path, line=call.lineno,
            peer=self._peer(dest), tag=self._tag(tag),
            label=UNKNOWN,
        )

    def _bind_recv(self, targets: list[ast.expr] | None) -> None:
        if not targets or len(targets) != 1:
            return
        tgt = targets[0]
        if isinstance(tgt, ast.Tuple) and len(tgt.elts) == 2:
            src_t, msg_t = tgt.elts
            if isinstance(src_t, ast.Name):
                self.env[src_t.id] = _RECV_SRC
            if isinstance(msg_t, ast.Name):
                self.env[msg_t.id] = _RECV_MSG
        elif isinstance(tgt, ast.Name):
            self.env[tgt.id] = _RECV_MSG

    def _track_assign(self, stmt: ast.Assign) -> None:
        """Track ``kind = msg[0]`` bindings; drop stale markers."""
        if len(stmt.targets) != 1:
            return
        tgt = stmt.targets[0]
        if not isinstance(tgt, ast.Name):
            return
        value = stmt.value
        if isinstance(value, ast.Subscript) \
                and isinstance(value.value, ast.Name) \
                and self.env.get(value.value.id) == _RECV_MSG \
                and isinstance(value.slice, ast.Constant) \
                and value.slice.value == 0:
            self.env[tgt.id] = _RECV_KIND
        elif isinstance(value, ast.Call) and isinstance(
            value.func, ast.Attribute
        ) and value.func.attr == "recv":
            pass  # recv bindings were handled by _bind_recv
        elif self.env.get(tgt.id) in (_RECV_SRC, _RECV_MSG, _RECV_KIND):
            del self.env[tgt.id]

    # -- value resolution --------------------------------------------------

    def _peer(self, node: ast.AST | None) -> int | str:
        if node is None:
            return UNKNOWN
        lit = _int_literal(node)
        if lit is not None:
            return lit
        if isinstance(node, ast.Name):
            marker = self.env.get(node.id)
            if marker == _RECV_SRC:
                return REPLY
            if marker == _RANK_VAR:
                return RANKS
            if isinstance(marker, int):
                return marker
            const = self.ext.resolve_int(self.mod, node.id)
            if const is not None:
                return const
        return UNKNOWN

    def _source(self, node: ast.AST) -> int | str:
        if isinstance(node, ast.Name) and node.id == "ANY_SOURCE":
            return ANY
        if isinstance(node, ast.Attribute) and node.attr == "ANY_SOURCE":
            return ANY
        lit = _int_literal(node)
        if lit == -1:
            return ANY
        return self._peer(node)

    def _root(self, node: ast.AST) -> int | str:
        lit = _int_literal(node)
        if lit is not None:
            return lit
        return UNKNOWN

    def _tag(self, node: ast.AST | None) -> int | str:
        if node is None:
            return 0
        lit = _int_literal(node)
        if lit is not None:
            return lit
        if isinstance(node, ast.Name):
            marker = self.env.get(node.id)
            if isinstance(marker, int):
                return marker
            const = self.ext.resolve_int(self.mod, node.id)
            if const is not None:
                return const
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self" \
                and node.attr in self.class_consts:
            return self.class_consts[node.attr]
        return UNKNOWN

    def _label(self, node: ast.AST | None) -> str | None:
        if node is None:
            return UNKNOWN
        if isinstance(node, ast.Constant):
            return node.value if isinstance(node.value, str) else None
        if isinstance(node, ast.Tuple) and node.elts:
            head = node.elts[0]
            if isinstance(head, ast.Constant) and isinstance(head.value, str):
                return head.value
            if isinstance(head, ast.Name):
                const = self.ext.resolve_str(self.mod, head.id)
                if const is not None:
                    return const
            return None
        if isinstance(node, ast.Name):
            marker = self.env.get(node.id)
            if isinstance(marker, str) and not marker.startswith("<"):
                return marker
            if marker is None and self.ext.resolve_str(
                self.mod, node.id
            ) is not None:
                return self.ext.resolve_str(self.mod, node.id)
        return UNKNOWN

    # -- inlining ----------------------------------------------------------

    def _inline(self, call: ast.Call, tail: bool = False) -> list[Node]:
        if self.depth >= _MAX_INLINE_DEPTH:
            return []
        fn = call.func
        target: tuple[_Module, ast.FunctionDef] | None = None
        drop_first = "comm"
        if isinstance(fn, ast.Name):
            if fn.id in self.local_funcs:
                target = (self.mod, self.local_funcs[fn.id])
                drop_first = ""
            else:
                target = self.ext.resolve_function(self.mod, fn.id)
        elif isinstance(fn, ast.Attribute) and self.comm_class is not None \
                and isinstance(fn.value, ast.Name) and fn.value.id == "self":
            method = _class_methods(self.comm_class).get(fn.attr)
            if method is not None:
                target = (self.mod, method)
                drop_first = "self"
        if target is None:
            return []
        callee_mod, callee = target
        env = self._bind_args(callee, call, drop_first)
        walker = _Walker(
            self.ext, callee_mod, self.role, env=env,
            depth=self.depth + 1, comm_class=self.comm_class,
        )
        nodes, _ = walker.walk(callee.body)
        # A trailing return ends the inlinee, not the caller.
        while nodes and isinstance(nodes[-1], Jump) \
                and nodes[-1].kind == "return":
            nodes.pop()
        if not tail:
            # In tail position (``return _master(comm, ...)``) the
            # callee's returns ARE the caller's returns and may
            # propagate.  Elsewhere they only end the inlinee: a
            # comm-free callee inlines to nothing, and internal returns
            # must not terminate the caller's skeleton.
            if not _events_under(nodes):
                return []
            nodes = _strip_returns(nodes)
        return nodes

    def _bind_args(
        self, callee: ast.FunctionDef, call: ast.Call, drop_first: str
    ) -> dict[str, Any]:
        params = [a.arg for a in callee.args.args]
        args = list(call.args)
        if params and params[0] in ("comm", "self") and drop_first:
            params = params[1:]
            # ``fn(comm, ...)`` passes the communicator positionally;
            # ``self.method(...)`` does not — drop the arg only when the
            # call site spells it.
            if drop_first == "comm" and args and _comm_receiver(
                args[0], self.comm_class is not None
            ):
                args = args[1:]
        env: dict[str, Any] = {}
        for name, arg in zip(params, args):
            env[name] = self._arg_value(arg)
        for kwarg in call.keywords:
            if kwarg.arg:
                env[kwarg.arg] = self._arg_value(kwarg.value)
        return env

    def _arg_value(self, node: ast.AST) -> Any:
        lit = _int_literal(node)
        if lit is not None:
            return lit
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            marker = self.env.get(node.id)
            if marker is not None:
                return marker
            const = self.ext.resolve_int(self.mod, node.id)
            if const is not None:
                return const
        return UNKNOWN


def _strip_returns(nodes: list[Node]) -> list[Node]:
    """Drop ``return`` jumps from a non-tail inlined body.

    Over-approximates (paths past a conditional callee return are still
    explored) — conservative: it can only add behaviours, never hide a
    blocked state behind a phantom early exit of the caller.
    """
    out: list[Node] = []
    for node in nodes:
        if isinstance(node, Jump) and node.kind == "return":
            continue
        if isinstance(node, Loop):
            node = Loop(node.kind, node.count, _strip_returns(node.body),
                        node.path, node.line)
        elif isinstance(node, Choice):
            node = Choice(
                [Branch(b.label, _strip_returns(b.body))
                 for b in node.branches],
                node.path, node.line,
            )
        out.append(node)
    return out


def _events_under(nodes: list[Node]) -> list[Event]:
    out: list[Event] = []
    for node in nodes:
        if isinstance(node, Event):
            out.append(node)
        elif isinstance(node, Loop):
            out.extend(_events_under(node.body))
        elif isinstance(node, Choice):
            for b in node.branches:
                out.extend(_events_under(b.body))
    return out


def extract_protocols(
    paths: Sequence[str | Path],
) -> tuple[list[Protocol], ProtocolExtractor]:
    """Parse ``paths`` and extract every protocol they define."""
    ext = ProtocolExtractor(paths)
    return ext.protocols(), ext
