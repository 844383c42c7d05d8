"""Matching + deadlock analyses over extracted protocol skeletons.

Static detectors (the dynamic P505/P506 live in :mod:`repro.check.replay`):

* **P501 — unmatched tag**: a point-to-point send whose (resolved) tag
  no receive in the protocol ever asks for, or a receive waiting on a
  tag nothing sends.  Unresolved (:data:`UNKNOWN`) tags match anything.
* **P502 — collective-order mismatch**: the master and worker roles must
  execute the *same* collective sequence under the same loop structure —
  a conditional collective, a missing participant or a different op
  order means one role blocks inside the collective plumbing forever.
  For the collective *implementations* (BufferedComm's root-sequenced
  bcast/scatter/gather) the check is complementarity: exactly one side
  sends and the other receives on the reserved collective tag.
* **P503 — blocking cycle**: bounded explicit-state exploration of the
  master + two workers (p = 3, loops unrolled) searching for a reachable
  global state in which every unfinished role is blocked on a receive or
  collective that can never be satisfied.  Sends are eager (buffered),
  matching the backends; serve loops exit only when every peer finished
  and their channels drained — the done-counting idiom.  The search is
  *bounded*: a state-cap hit means "nothing found within bounds", never
  a finding.
* **P504 — undeadlined recv**: a strategy whose runner never threads a
  run deadline into ``make_cluster`` (or the cluster driver
  ``run_cluster``) has receives that hang forever when
  a peer dies mid-run — cross-checked against the fault kinds the fault
  injection layer can inject (``kill``/``wedge``/``disconnect`` silence
  a peer for good).  A recv inside a ``try`` that catches ``CommError``
  is exempt (peer death surfaces as a handled error).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.check.events import (
    ANY,
    COLL_OPS,
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
)
from repro.check.extract import KILLING_FAULT_KINDS
from repro.lint.findings import Finding, Severity

__all__ = [
    "DETECTORS",
    "analyze_protocols",
    "explore_deadlocks",
    "Deadlock",
]

#: Detector id -> (severity, one-line invariant).  P505/P506 are the
#: dynamic sanitizer's ids (replay.py) but belong to the same battery.
DETECTORS: dict[str, tuple[str, str]] = {
    "P500": (
        Severity.ERROR,
        "every file handed to commcheck parses",
    ),
    "P501": (
        Severity.ERROR,
        "every point-to-point send tag has a matching recv tag in the "
        "protocol, and vice versa",
    ),
    "P502": (
        Severity.ERROR,
        "master and worker execute the same collective sequence, and "
        "collective implementations are send/recv complementary",
    ),
    "P503": (
        Severity.ERROR,
        "no reachable p=3 global state leaves every unfinished role "
        "blocked on an unmatchable recv or collective",
    ),
    "P504": (
        Severity.ERROR,
        "a strategy whose runner threads no deadline into make_cluster "
        "or run_cluster has no unguarded recv a killed/wedged/"
        "disconnected peer could hang forever",
    ),
    "P505": (
        Severity.ERROR,
        "an ANY_SOURCE recv's matched sender is uniquely determined by "
        "happens-before order (no message race)",
    ),
    "P506": (
        Severity.ERROR,
        "recorded traces are admitted by the static protocol skeleton "
        "(ops, tags, labels, paired sends, aligned collectives)",
    ),
}


def _finding(rule: str, path: str, line: int, message: str) -> Finding:
    return Finding(
        rule=rule, severity=DETECTORS[rule][0], path=path,
        line=max(line, 1), col=1, message=message,
    )


# ---------------------------------------------------------------------------
# P501 — tag matching
# ---------------------------------------------------------------------------

def _check_tags(proto: Protocol) -> list[Finding]:
    events = proto.events()
    sends = [e for e in events if e.op == "send"]
    recvs = [e for e in events if e.op == "recv"]
    if not sends and not recvs:
        return []
    send_tags = {e.tag for e in sends}
    recv_tags = {e.tag for e in recvs}
    out: list[Finding] = []
    for e in sends:
        if e.tag == UNKNOWN or UNKNOWN in recv_tags:
            continue
        if e.tag not in recv_tags:
            out.append(_finding(
                "P501", e.path, e.line,
                f"send with tag {e.tag!r} in protocol {proto.name!r} has "
                f"no matching recv (recv tags: {sorted(map(str, recv_tags))})",
            ))
    for e in recvs:
        if e.tag == UNKNOWN or UNKNOWN in send_tags:
            continue
        if e.tag not in send_tags:
            out.append(_finding(
                "P501", e.path, e.line,
                f"recv waiting on tag {e.tag!r} in protocol {proto.name!r} "
                f"that nothing sends (send tags: "
                f"{sorted(map(str, send_tags))})",
            ))
    return out


# ---------------------------------------------------------------------------
# P502 — collective order
# ---------------------------------------------------------------------------

def _coll_projection(
    nodes: Sequence[Node],
) -> tuple[Any, ...]:
    """The collective structure of a subtree, loops and all.

    Returns a tuple tree of ``("coll", op, root)``, ``("loop", kind,
    count, sub)`` and ``("choice", (sub, ...))`` items; subtrees with no
    collectives vanish.  Raises :class:`_ConditionalCollective` when a
    choice's branches disagree (a data-dependent collective).
    """
    out: list[Any] = []
    for node in nodes:
        if isinstance(node, Event) and node.op in COLL_OPS:
            out.append(("coll", node.op, str(node.root)))
        elif isinstance(node, Loop):
            sub = _coll_projection(node.body)
            if sub:
                out.append(("loop", node.kind, node.count, sub))
        elif isinstance(node, Choice):
            subs = [_coll_projection(b.body) for b in node.branches]
            present = [s for s in subs if s]
            if not present:
                continue
            if len(set(subs)) > 1:
                raise _ConditionalCollective(node)
            out.append(("choice", subs[0]))
    return tuple(out)


class _ConditionalCollective(Exception):
    def __init__(self, choice: Choice):
        self.choice = choice


def _check_collectives(proto: Protocol) -> list[Finding]:
    if proto.kind == "collective":
        return _check_complementarity(proto)
    roles = proto.roles
    if "master" not in roles or "worker" not in roles:
        return []
    projections: dict[str, tuple[Any, ...]] = {}
    for name, skel in roles.items():
        try:
            projections[name] = _coll_projection(skel.nodes)
        except _ConditionalCollective as exc:
            return [_finding(
                "P502", exc.choice.path, exc.choice.line,
                f"role {name!r} of protocol {proto.name!r} runs a "
                "collective on only some branches of a data-dependent "
                "choice — the other roles block inside the collective",
            )]
    if projections["master"] != projections["worker"]:
        line = 1
        for skel in roles.values():
            for ev in proto.events(skel.role):
                if ev.op in COLL_OPS:
                    line = ev.line
                    break
            if line > 1:
                break
        return [_finding(
            "P502", proto.path, line,
            f"protocol {proto.name!r}: master and worker collective "
            f"sequences differ (master: {projections['master']!r}, "
            f"worker: {projections['worker']!r})",
        )]
    return []


def _check_complementarity(proto: Protocol) -> list[Finding]:
    """Root-sequenced collective impls: one side sends, the other recvs."""
    by_role = {
        name: proto.events(name) for name in proto.roles
    }
    if set(by_role) != {"root", "nonroot"}:
        return []
    out: list[Finding] = []
    for name, events in sorted(by_role.items()):
        ops = {e.op for e in events}
        other = by_role["nonroot" if name == "root" else "root"]
        if "send" in ops and "recv" in ops:
            ev = next(e for e in events if e.op == "send")
            out.append(_finding(
                "P502", ev.path, ev.line,
                f"collective {proto.name!r}: role {name!r} both sends "
                "and receives — root-sequenced collectives must be "
                "complementary",
            ))
        elif "send" in ops and not any(e.op == "recv" for e in other):
            ev = next(e for e in events if e.op == "send")
            out.append(_finding(
                "P502", ev.path, ev.line,
                f"collective {proto.name!r}: role {name!r} sends but the "
                "other role never receives",
            ))
        elif "recv" in ops and not any(e.op == "send" for e in other):
            ev = next(e for e in events if e.op == "recv")
            out.append(_finding(
                "P502", ev.path, ev.line,
                f"collective {proto.name!r}: role {name!r} receives but "
                "the other role never sends",
            ))
    return out


# ---------------------------------------------------------------------------
# P503 — bounded deadlock exploration
# ---------------------------------------------------------------------------

@dataclass
class Deadlock:
    """One reachable fully-blocked global state."""

    #: (path, line, op) per blocked role, master first.
    blocked: tuple[tuple[str, int, str], ...]


class _Prog:
    """Hashable cursor machine over one role's skeleton.

    A cursor is a tuple of frames ``(kind, list_id, index, aux)``:
    ``seq`` for plain bodies/branches, ``loop`` for bounded loops
    (``aux`` = remaining iterations), ``serve`` for the done-counting
    funnel (the parent frame stays *at* the loop node, so completing the
    body re-presents the enter/exit decision).
    """

    def __init__(self, nodes: Sequence[Node], unroll: int = 2):
        self.lists: list[tuple[Node, ...]] = []
        self._lid: dict[int, int] = {}
        self.unroll = unroll
        self.root = self._register(list(nodes))

    def _register(self, nodes: list[Node]) -> int:
        key = id(nodes)
        if key in self._lid:
            return self._lid[key]
        lid = len(self.lists)
        self._lid[key] = lid
        self.lists.append(tuple(nodes))
        for node in nodes:
            if isinstance(node, Loop):
                self._register(node.body)
            elif isinstance(node, Choice):
                for b in node.branches:
                    self._register(b.body)
        return lid

    def start(self) -> tuple:
        return (("seq", self.root, 0, 0),)

    def lid(self, nodes: list[Node]) -> int:
        return self._lid[id(nodes)]

    # -- head expansion ----------------------------------------------------

    def expand(self, cursor: tuple, env: tuple) -> list[tuple]:
        """All possible next actions from ``cursor``.

        Heads: ``("done", ())``, ``("event", Event, cursor')`` and
        ``("serve", Loop, enter_cursor, exit_cursor)``.
        """
        if not cursor:
            return [("done", ())]
        kind, lid, idx, aux = cursor[-1]
        nodes = self.lists[lid]
        parent = cursor[:-1]
        if idx >= len(nodes):
            if kind == "loop" and aux > 1:
                return self.expand(
                    parent + ((kind, lid, 0, aux - 1),), env
                )
            # seq / exhausted loop / completed serve body: pop.  A serve
            # parent still points at the Loop node, re-presenting the
            # enter/exit decision.
            return self.expand(parent, env)
        node = nodes[idx]
        after = parent + ((kind, lid, idx + 1, aux),)
        if isinstance(node, Event):
            return [("event", node, after)]
        if isinstance(node, Jump):
            return self._jump(node, cursor, env)
        if isinstance(node, Loop):
            body_lid = self.lid(node.body)
            if node.kind == "serve":
                enter = cursor[:-1] + (
                    (kind, lid, idx, aux), ("serve", body_lid, 0, 0),
                )
                return [("serve", node, enter, after)]
            if node.kind == "while":
                # Bounded: skip entirely or run the body once.
                return self.expand(after, env) + self.expand(
                    after + (("loop", body_lid, 0, 1),), env
                )
            return self.expand(
                after + (("loop", body_lid, 0, self.unroll),), env
            )
        if isinstance(node, Choice):
            heads: list[tuple] = []
            for branch in self._live_branches(node, env):
                if branch.body:
                    heads.extend(self.expand(
                        after + (("seq", self.lid(branch.body), 0, 0),), env
                    ))
                else:
                    heads.extend(self.expand(after, env))
            return _dedupe(heads)
        return self.expand(after, env)

    @staticmethod
    def _live_branches(node: Choice, env: tuple) -> list[Branch]:
        if not node.reactive:
            return node.branches
        last_label = env[1]
        matched = [b for b in node.branches if b.label == last_label]
        if matched:
            return matched
        unlabeled = [b for b in node.branches if b.label is None]
        # An unresolved label falls to the else arm when present; a
        # label the chain does not key on means our static view is
        # incomplete — explore everything rather than miss a path.
        return unlabeled or node.branches

    def _jump(self, node: Jump, cursor: tuple, env: tuple) -> list[tuple]:
        if node.kind == "return":
            return [("done", ())]
        frames = list(cursor)
        while frames:
            kind, lid, idx, aux = frames.pop()
            if kind == "loop":
                if node.kind == "continue":
                    if aux > 1:
                        frames.append((kind, lid, 0, aux - 1))
                break
            if kind == "serve":
                if node.kind == "break" and frames:
                    pk, plid, pidx, paux = frames[-1]
                    frames[-1] = (pk, plid, pidx + 1, paux)
                break
        return self.expand(tuple(frames), env)


def _dedupe(heads: list[tuple]) -> list[tuple]:
    seen: set[Any] = set()
    out: list[tuple] = []
    for head in heads:
        key = (head[0], id(head[1]) if len(head) > 1 else 0,
               head[2:] if len(head) > 2 else ())
        if key not in seen:
            seen.add(key)
            out.append(head)
    return out


def _tag_matches(want: Any, have: Any) -> bool:
    return want == UNKNOWN or have == UNKNOWN or want == have


def explore_deadlocks(
    proto: Protocol,
    p: int = 3,
    unroll: int = 2,
    max_states: int = 200_000,
) -> list[Deadlock]:
    """Bounded search for fully-blocked reachable states (see module doc)."""
    if "master" not in proto.roles or "worker" not in proto.roles:
        return []
    master = _Prog(proto.roles["master"].nodes, unroll)
    worker = _Prog(proto.roles["worker"].nodes, unroll)
    progs = [master] + [worker] * (p - 1)
    if not any(True for _ in proto.events()):
        return []

    init_cursors = tuple(prog.start() for prog in progs)
    init_envs = tuple((None, None) for _ in range(p))
    init_channels: tuple = ()
    stack = [(init_cursors, init_envs, init_channels)]
    visited: set[Any] = set()
    deadlocks: dict[Any, Deadlock] = {}

    while stack and len(visited) < max_states:
        state = stack.pop()
        if state in visited:
            continue
        visited.add(state)
        cursors, envs, channels = state
        chan = {k: list(v) for k, v in channels}

        # A finished rank (empty cursor) takes no further actions — it
        # must not contribute a self-loop "done" move that would mask a
        # fully-blocked state.
        heads_by_rank = [
            progs[r].expand(cursors[r], envs[r]) if cursors[r] else []
            for r in range(p)
        ]

        # Eager singleton moves: a rank whose only action is a send (or
        # finishing) can always take it without hiding any deadlock —
        # sends are buffered and never block.
        ample = None
        for r in range(p):
            heads = heads_by_rank[r]
            if len(heads) == 1 and heads[0][0] == "done" and cursors[r]:
                ample = (r, heads[0])
                break
            if len(heads) == 1 and heads[0][0] == "event" \
                    and heads[0][1].op == "send":
                ample = (r, heads[0])
                break

        moves: list[tuple] = []  # (cursors', envs', channels')

        def deliver(src: int, ev: Event, chan_now: dict) -> dict | None:
            dst: Any = ev.peer
            if dst == REPLY:
                dst = envs[src][0]
            out = {k: list(v) for k, v in chan_now.items()}
            targets: list[int] = []
            if isinstance(dst, int) and 0 <= dst < p:
                targets = [dst]
            elif dst == RANKS:
                targets = [r for r in range(p) if r != src]
            for t in targets:
                out.setdefault((src, t), []).append((ev.tag, ev.label))
            return out

        def freeze(chan_now: dict) -> tuple:
            return tuple(sorted(
                (k, tuple(v)) for k, v in chan_now.items() if v
            ))

        def apply(r: int, head: tuple) -> None:
            if head[0] == "done":
                moves.append((
                    _swap(cursors, r, ()), envs, freeze(chan),
                ))
                return
            if head[0] == "serve":
                _, node, enter, exit_cur = head
                others_done = all(
                    not cursors[q] for q in range(p) if q != r
                )
                inbound = any(
                    k[1] == r and v for k, v in chan.items()
                )
                target = exit_cur if others_done and not inbound else enter
                moves.append((
                    _swap(cursors, r, target), envs, freeze(chan),
                ))
                return
            _, ev, after = head
            if ev.op == "send":
                out = deliver(r, ev, chan)
                moves.append((
                    _swap(cursors, r, after), envs, freeze(out),
                ))
            elif ev.op == "recv":
                want_src = ev.peer
                for (s, d), queue in sorted(chan.items()):
                    if d != r or not queue:
                        continue
                    if isinstance(want_src, int) and s != want_src:
                        continue
                    for i, (tag, label) in enumerate(queue):
                        if _tag_matches(ev.tag, tag):
                            out = {k: list(v) for k, v in chan.items()}
                            del out[(s, d)][i]
                            new_env = _swap(envs, r, (s, label))
                            moves.append((
                                _swap(cursors, r, after), new_env,
                                freeze(out),
                            ))
                            break
                # no match on any channel: blocked, no move.

        if ample is not None:
            apply(*ample)
        else:
            for r in range(p):
                for head in heads_by_rank[r]:
                    if head[0] == "event" and head[1].op in COLL_OPS:
                        continue  # handled jointly below
                    apply(r, head)
            # Joint collective moves: every unfinished rank must be at
            # the same collective.
            live = [r for r in range(p) if cursors[r]]
            coll_heads = {
                r: [h for h in heads_by_rank[r]
                    if h[0] == "event" and h[1].op in COLL_OPS]
                for r in live
            }
            if live and all(coll_heads[r] for r in live):
                ops_common = set.intersection(*(
                    {(h[1].op) for h in coll_heads[r]} for r in live
                ))
                for op in sorted(ops_common):
                    new_cursors = list(cursors)
                    ok = True
                    for r in live:
                        head = next(
                            (h for h in coll_heads[r] if h[1].op == op),
                            None,
                        )
                        if head is None:
                            ok = False
                            break
                        new_cursors[r] = head[2]
                    if ok:
                        moves.append((
                            tuple(new_cursors), envs, freeze(chan),
                        ))

        if not moves:
            live = [r for r in range(p) if cursors[r]]
            if live:
                blocked = []
                for r in live:
                    for head in heads_by_rank[r]:
                        if head[0] == "event":
                            ev = head[1]
                            blocked.append((ev.path, ev.line, ev.op))
                            break
                    else:
                        blocked.append((proto.path, 1, "end"))
                key = frozenset(blocked)
                if key not in deadlocks:
                    deadlocks[key] = Deadlock(blocked=tuple(blocked))
            continue

        for move in moves:
            if move not in visited:
                stack.append(move)

    return list(deadlocks.values())


def _swap(tup: tuple, i: int, value: Any) -> tuple:
    return tup[:i] + (value,) + tup[i + 1:]


def _check_deadlocks(proto: Protocol) -> list[Finding]:
    if proto.kind != "strategy":
        return []
    out = []
    for dl in explore_deadlocks(proto):
        where = "; ".join(
            f"{path}:{line} ({op})" for path, line, op in sorted(dl.blocked)
        )
        path, line, _ = sorted(dl.blocked)[0]
        out.append(_finding(
            "P503", path, line,
            f"protocol {proto.name!r} can reach a state where every "
            f"unfinished role blocks forever: {where}",
        ))
    return out


# ---------------------------------------------------------------------------
# P504 — undeadlined recv vs killable peers
# ---------------------------------------------------------------------------

def _check_deadlines(
    proto: Protocol, fault_kinds: Sequence[str]
) -> list[Finding]:
    if proto.kind != "strategy" or proto.deadline_capable:
        return []
    killers = sorted(set(fault_kinds) & set(KILLING_FAULT_KINDS))
    if not killers:
        return []
    out = []
    for ev in proto.events():
        if ev.op == "recv" and not ev.guarded:
            out.append(_finding(
                "P504", ev.path, ev.line,
                f"recv in protocol {proto.name!r} has no reachable "
                "deadline: the runner threads no timeout into "
                f"make_cluster, and a peer lost to {'/'.join(killers)} "
                "fault injection would hang this wait forever",
            ))
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def analyze_protocols(
    protocols: Iterable[Protocol],
    fault_kinds: Sequence[str] = KILLING_FAULT_KINDS,
) -> list[Finding]:
    """Run every static detector over ``protocols``."""
    out: list[Finding] = []
    for proto in protocols:
        out.extend(_check_tags(proto))
        out.extend(_check_collectives(proto))
        out.extend(_check_deadlocks(proto))
        out.extend(_check_deadlines(proto, fault_kinds))
    return out
