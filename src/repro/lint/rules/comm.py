"""C-rules: comm-protocol discipline inside ``parallel/``.

The fault-injection layer (PR 8) counts *public comm ops* by wrapping
``send``/``recv``/collectives on the comm objects, and the liveness
layer assumes every blocking wait is bounded.  Both assumptions die
silently if code underneath grows a raw socket write or an unbounded
``Connection.recv()`` — these rules pin the layering.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.rules import ModuleRule, register
from repro.lint.scoping import COMM_IMPL, COMM_LAYER, RuleScope

__all__ = [
    "RawCommSend",
    "UnboundedBlockingWait",
    "NonDaemonThread",
    "LiteralDeadline",
    "UntaggedWildcardRecv",
]


def _comm_like(receiver: ast.AST) -> bool:
    """True for receivers that are wrapped comm objects, not raw transports.

    The public comm API lives on objects conventionally named ``comm``
    (or ``*comm``) and on ``self`` inside the comm classes themselves —
    everything else (`sock`, `conn`, `self._pipes[dest]` …) is raw
    transport.
    """
    if isinstance(receiver, ast.Name):
        return receiver.id == "self" or receiver.id.endswith("comm")
    if isinstance(receiver, ast.Attribute):
        return receiver.attr.endswith("comm")
    return False


@register
class RawCommSend(ModuleRule):
    """C201 — raw socket/pipe sends belong in message.py/commbase.py."""

    id = "C201"
    invariant = (
        "every byte between ranks flows through the framing/transport "
        "helpers in message.py/commbase.py, so fault-injection op "
        "counting and wire framing stay uniform across backends"
    )
    scope = RuleScope(include=COMM_LAYER, exclude=COMM_IMPL)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if not isinstance(fn, ast.Attribute):
                continue
            if fn.attr == "sendall":
                yield self.finding(
                    ctx.path, node,
                    "raw socket sendall outside the framing layer; route "
                    "through message.send_frame/forward_frame so framing "
                    "and op-counting stay universal",
                )
            elif fn.attr == "send" and not _comm_like(fn.value):
                yield self.finding(
                    ctx.path, node,
                    "raw transport .send() outside commbase/message; only "
                    "wrapped comm objects may send between ranks",
                )


@register
class UnboundedBlockingWait(ModuleRule):
    """C202 — every blocking receive/wait carries a deadline."""

    id = "C202"
    invariant = (
        "no blocking recv/wait in parallel/ without a timeout: a dead "
        "or wedged peer must surface as CommError, never as a hang"
    )
    scope = RuleScope(include=COMM_LAYER, exclude=COMM_IMPL)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            kwargs = {k.arg for k in node.keywords}
            dotted = ctx.dotted_name(fn)
            # from multiprocessing.connection import wait; wait(conns)
            if dotted == "multiprocessing.connection.wait":
                if "timeout" not in kwargs and len(node.args) < 2:
                    yield self.finding(
                        ctx.path, node,
                        "connection.wait() without a timeout blocks forever "
                        "on a wedged peer; poll with a bounded timeout",
                    )
                continue
            if not isinstance(fn, ast.Attribute):
                continue
            if fn.attr == "recv" and not node.args and not node.keywords \
                    and not _comm_like(fn.value):
                yield self.finding(
                    ctx.path, node,
                    "bare Connection.recv() blocks forever on a wedged "
                    "peer; poll() with a bounded timeout first",
                )
            elif fn.attr in ("select", "wait") and not node.args \
                    and "timeout" not in kwargs:
                yield self.finding(
                    ctx.path, node,
                    f".{fn.attr}() without a timeout blocks forever; pass "
                    "a bounded timeout and re-check liveness in a loop",
                )


@register
class NonDaemonThread(ModuleRule):
    """C203 — helper threads in parallel/ must be daemonic."""

    id = "C203"
    invariant = (
        "threads in parallel/ are daemon=True: a non-daemon helper "
        "outlives its dying rank and wedges interpreter shutdown, which "
        "the liveness layer cannot see"
    )
    scope = RuleScope(include=COMM_LAYER)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if ctx.dotted_name(node.func) != "threading.Thread":
                continue
            daemon = next(
                (k.value for k in node.keywords if k.arg == "daemon"), None
            )
            if not (
                isinstance(daemon, ast.Constant) and daemon.value is True
            ):
                yield self.finding(
                    ctx.path, node,
                    "threading.Thread without daemon=True; a non-daemon "
                    "helper thread blocks interpreter shutdown after a "
                    "rank failure",
                )


@register
class LiteralDeadline(ModuleRule):
    """C204 — no magic-number deadlines at call sites.

    PR 5 shipped a hard-coded 600 s result-collection deadline that no
    CLI flag could reach; PR 7 had to thread ``--deadline`` through
    every layer to fix it.  Timeouts at call sites must be named module
    constants or threaded parameters — a bare numeric literal is
    untraceable and untunable.
    """

    id = "C204"
    invariant = (
        "timeout/deadline call arguments are named constants or "
        "threaded parameters, never inline numeric literals"
    )
    scope = RuleScope(include=COMM_LAYER)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if kw.arg not in ("timeout", "deadline"):
                    continue
                if isinstance(kw.value, ast.Constant) and isinstance(
                    kw.value.value, (int, float)
                ):
                    yield self.finding(
                        ctx.path, kw.value,
                        f"inline literal {kw.arg}={kw.value.value!r}; name "
                        "it as a module constant or thread it from the "
                        "caller",
                    )


def _is_any_source(node: ast.AST | None, ctx: ModuleContext) -> bool:
    """True when a recv source expression means "match any sender"."""
    if node is None:
        return True
    if isinstance(node, ast.Constant) and node.value == -1:
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) \
            and isinstance(node.operand, ast.Constant) \
            and node.operand.value == 1:
        return True
    if isinstance(node, (ast.Name, ast.Attribute)):
        dotted = ctx.dotted_name(node)
        name = dotted or (node.id if isinstance(node, ast.Name) else "")
        return name.split(".")[-1] == "ANY_SOURCE"
    return False


@register
class UntaggedWildcardRecv(ModuleRule):
    """C205 — an ANY_SOURCE receive must constrain the tag.

    A wildcard receive with no tag is a universal funnel: *any* message
    from *any* protocol phase matches it, so a stray or late message
    (a retried send, a collective chunk, a done marker from a previous
    phase) is silently consumed as whatever the caller expected.  The
    certified funnels (Type III's store loop) pin a tag so the wildcard
    ranges only over senders, never over message kinds — the protocol
    rule P505 then reasons about exactly that sender race.
    """

    id = "C205"
    invariant = (
        "ANY_SOURCE receives carry an explicit tag: the wildcard may "
        "range over senders, never over message kinds"
    )
    scope = RuleScope(include=COMM_LAYER, exclude=COMM_IMPL)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if not isinstance(fn, ast.Attribute) or fn.attr != "recv" \
                    or not _comm_like(fn.value):
                continue
            kwargs = {k.arg for k in node.keywords}
            has_tag = len(node.args) > 1 or "tag" in kwargs
            if has_tag:
                continue
            src = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "source"), None
            )
            if _is_any_source(src, ctx):
                yield self.finding(
                    ctx.path, node,
                    "ANY_SOURCE recv with no tag matches every message "
                    "kind in flight; pin a tag so the wildcard ranges "
                    "only over senders",
                )
