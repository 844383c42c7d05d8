"""The dynamic sanitizer: replay recorded traces against the model.

Input is one event list per rank, as recorded by
:class:`repro.parallel.trace.CommTraceRecorder` (see that module for the
record schema).  The checker reconstructs happens-before *offline* —
nothing rides on the wire, so traced runs stay bit-identical:

1. **Pairing** — point-to-point events pair by the FIFO-per-channel
   guarantee both backends share (non-overtaking per
   ``(src, dst, tag)``): the k-th receive rank ``b`` completes from
   ``(a, tag)`` matches the k-th send ``a → b`` with that tag.  A recv
   whose matched send does not exist in the sender's trace is a **P506**
   model violation.
2. **Collectives** — every rank's j-th collective must agree on
   ``(op, root)``; root-sequenced collectives are a synchronization
   point between the root and each participant.
3. **Vector clocks** — one clock per rank; program order, send→recv
   pairs and collective joins generate the happens-before partial order.
4. **P505 — ANY_SOURCE race**: a wildcard receive matched to sender
   ``a`` races when some *other* send to the same ``(dst, tag)`` channel
   is concurrent with it (neither happens-before the other): arrival
   order, not the protocol, decided the match — the run-to-run
   bit-identity hazard on the real backend.
5. **P506 — skeleton admission**: every traced event must be one the
   static skeleton of its role can produce (op, tag, label, wildcard
   use) — a trace the model cannot explain means the model or the code
   is wrong.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.check.analysis import finding
from repro.check.events import ANY, COLL_OPS, UNKNOWN, Protocol
from repro.lint.context import ModuleContext, ProjectModel
from repro.lint.findings import Finding
from repro.lint.rules import ProjectRule, register

__all__ = [
    "TraceRule",
    "NoMessageRace",
    "TraceAdmitted",
    "check_traces",
    "vector_clocks",
    "pair_p2p",
]

_TraceEv = dict[str, Any]


class TraceRule(ProjectRule):
    """A finding kind of the replay of the run's traces
    (:attr:`ProjectModel.trace_findings`; none without ``--trace``)."""

    def check_project(
        self, contexts: list[ModuleContext], model: ProjectModel
    ) -> Iterator[Finding]:
        return (f for f in model.trace_findings if f.rule == self.id)


@register
class NoMessageRace(TraceRule):
    id = "P505"
    invariant = (
        "an ANY_SOURCE recv's matched sender is uniquely determined by "
        "happens-before order (no message race)"
    )


@register
class TraceAdmitted(TraceRule):
    id = "P506"
    invariant = (
        "recorded traces are admitted by the static protocol skeleton "
        "(ops, tags, labels, paired sends, aligned collectives)"
    )


def _finding(rule: str, ev: _TraceEv, message: str) -> Finding:
    return finding(rule, *_site(ev), message)


def _site(ev: _TraceEv) -> tuple[str, int]:
    """The recorded call site of a trace event."""
    return str(ev.get("file", "<trace>")), int(ev.get("line", 1)) or 1


def pair_p2p(
    traces: dict[int, list[_TraceEv]],
) -> tuple[dict[tuple[int, int], tuple[int, int]], list[Finding]]:
    """Match each recv to its send via per-channel FIFO counting.

    Returns ``(pairs, problems)`` where ``pairs`` maps recv node
    ``(rank, i)`` to send node ``(rank, i)``.
    """
    # Per (src, dst, tag): ordered send indices.
    sends: dict[tuple[int, int, int], list[int]] = {}
    for rank, events in traces.items():
        for ev in events:
            if ev["op"] == "send":
                key = (rank, ev["dst"], ev["tag"])
                sends.setdefault(key, []).append(ev["i"])
    pairs: dict[tuple[int, int], tuple[int, int]] = {}
    problems: list[Finding] = []
    taken: dict[tuple[int, int, int], int] = {}
    for rank in sorted(traces):
        for ev in traces[rank]:
            if ev["op"] != "recv":
                continue
            key = (ev["src"], rank, ev["tag"])
            k = taken.get(key, 0)
            taken[key] = k + 1
            queue = sends.get(key, [])
            if k >= len(queue):
                problems.append(_finding(
                    "P506", ev,
                    f"rank {rank} recv #{ev['i']} (src={ev['src']}, "
                    f"tag={ev['tag']}) has no matching send in rank "
                    f"{ev['src']}'s trace — the traces are inconsistent",
                ))
                continue
            pairs[(rank, ev["i"])] = (ev["src"], queue[k])
    return pairs, problems


def _collective_groups(
    traces: dict[int, list[_TraceEv]],
) -> tuple[list[list[tuple[int, int]]], list[Finding]]:
    """Group the j-th collective of every rank; flag misalignment."""
    per_rank = {
        rank: [ev for ev in events if ev["op"] in COLL_OPS]
        for rank, events in traces.items()
    }
    problems: list[Finding] = []
    counts = {rank: len(evs) for rank, evs in per_rank.items()}
    depth = min(counts.values()) if counts else 0
    if len(set(counts.values())) > 1:
        deepest = max(counts, key=lambda r: counts[r])
        extra = per_rank[deepest][depth]
        problems.append(_finding(
            "P506", extra,
            f"collective counts differ across ranks ({counts}); rank "
            f"{deepest}'s collective #{depth} has no partners",
        ))
    groups: list[list[tuple[int, int]]] = []
    for j in range(depth):
        sigs = {
            (per_rank[r][j]["op"], per_rank[r][j]["root"])
            for r in per_rank
        }
        if len(sigs) > 1:
            ref = per_rank[min(per_rank)][j]
            problems.append(_finding(
                "P506", ref,
                f"collective #{j} disagrees across ranks: {sorted(sigs)}",
            ))
        groups.append([(r, per_rank[r][j]["i"]) for r in sorted(per_rank)])
    return groups, problems


def vector_clocks(
    traces: dict[int, list[_TraceEv]],
    pairs: dict[tuple[int, int], tuple[int, int]],
    groups: Sequence[Sequence[tuple[int, int]]],
) -> dict[tuple[int, int], tuple[int, ...]]:
    """Vector clock per event node ``(rank, i)``.

    An event's own component is ``i + 1`` (per-rank events are already
    sequenced); cross-rank components join over send→recv edges and
    collective groups.  ``a happens-before b`` iff
    ``clocks[b][a.rank] >= a.i + 1``.
    """
    ranks = sorted(traces)
    n = max(ranks) + 1 if ranks else 0
    clocks: dict[tuple[int, int], tuple[int, ...]] = {}
    # Messages create only forward edges; collectives join all members.
    # Process by global rounds: repeat until stable (bounded by edges).
    indeg: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for (rnode, snode) in pairs.items():
        indeg.setdefault(rnode, []).append(snode)
    group_of: dict[tuple[int, int], int] = {}
    for gi, members in enumerate(groups):
        for node in members:
            group_of[node] = gi

    def preds(node: tuple[int, int]) -> list[tuple[int, int]]:
        r, i = node
        return ([(r, i - 1)] if i > 0 else []) + indeg.get(node, [])

    def join(nodes: Sequence[tuple[int, int]]) -> list[int]:
        vec = [0] * n
        for q in nodes:
            for x, qx in enumerate(clocks[q]):
                if qx > vec[x]:
                    vec[x] = qx
        return vec

    # Kahn-style: per-rank pointers advance when all cross-edges resolve.
    ptr = {r: 0 for r in ranks}
    group_ready: dict[int, set[tuple[int, int]]] = {}
    progress = True
    while progress:
        progress = False
        for r in ranks:
            while ptr[r] < len(traces[r]):
                i = ptr[r]
                node = (r, i)
                if any(q not in clocks for q in preds(node)):
                    break
                gi = group_of.get(node)
                if gi is not None:
                    ready = group_ready.setdefault(gi, set())
                    ready.add(node)
                    members = set(groups[gi])
                    # Wait at the collective until every member arrives
                    # with resolved predecessors.
                    if ready != members and any(
                        m not in clocks and (
                            ptr[m[0]] != m[1]
                            or any(q not in clocks for q in preds(m))
                        )
                        for m in members
                    ):
                        break
                    # All members ready: join their predecessors.
                    vec = join([q for m in members for q in preds(m)])
                    for m in sorted(members):
                        mr, mi = m
                        if m in clocks:
                            continue
                        clock = list(vec)
                        clock[mr] = mi + 1
                        clocks[m] = tuple(clock)
                        ptr[mr] = mi + 1
                        progress = True
                    continue
                vec = join(preds(node))
                vec[r] = i + 1
                clocks[node] = tuple(vec)
                ptr[r] = i + 1
                progress = True
    return clocks


def _happens_before(
    a: tuple[int, int],
    b: tuple[int, int],
    clocks: dict[tuple[int, int], tuple[int, ...]],
) -> bool:
    vb = clocks.get(b)
    return vb is not None and vb[a[0]] >= a[1] + 1


def _find_races(
    traces: dict[int, list[_TraceEv]],
    pairs: dict[tuple[int, int], tuple[int, int]],
    clocks: dict[tuple[int, int], tuple[int, ...]],
) -> list[Finding]:
    sends_to: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for rank, events in traces.items():
        for ev in events:
            if ev["op"] == "send":
                sends_to.setdefault(
                    (ev["dst"], ev["tag"]), []
                ).append((rank, ev["i"]))
    racy: dict[tuple[str, int], int] = {}
    sample: dict[tuple[str, int], str] = {}
    for rank in sorted(traces):
        for ev in traces[rank]:
            if ev["op"] != "recv" or ev.get("req", 0) != -1:
                continue
            rnode = (rank, ev["i"])
            matched = pairs.get(rnode)
            if matched is None:
                continue
            for snode in sends_to.get((rank, ev["tag"]), []):
                if snode == matched or snode[0] == matched[0]:
                    continue
                if _happens_before(snode, rnode, clocks):
                    continue
                if _happens_before(rnode, snode, clocks):
                    continue
                loc = _site(ev)
                racy[loc] = racy.get(loc, 0) + 1
                if loc not in sample:
                    sample[loc] = (
                        f"recv #{ev['i']} on rank {rank} matched rank "
                        f"{matched[0]} but rank {snode[0]}'s send "
                        f"#{snode[1]} to the same (dst, tag) channel is "
                        "concurrent"
                    )
    out = []
    for loc in sorted(racy):
        path, line = loc
        out.append(finding(
            "P505", path, line,
            f"ANY_SOURCE message race ({racy[loc]} concurrent "
            f"pair(s)): {sample[loc]}; arrival order, not "
            "happens-before, decided the match — bit-identity "
            "depends on delivery order here",
        ))
    return out


def _admission(
    traces: dict[int, list[_TraceEv]], proto: Protocol
) -> list[Finding]:
    """P506: every traced event must be producible by its role skeleton."""
    allowed: dict[str, dict[str, Any]] = {}
    for role in proto.roles:
        evs = proto.events(role)
        allowed[role] = {
            "send_tags": {e.tag for e in evs if e.op == "send"},
            "recv_tags": {e.tag for e in evs if e.op == "recv"},
            "labels": {e.label for e in evs if e.op == "send"},
            "wildcard": any(
                e.op == "recv" and e.peer in (ANY, UNKNOWN) for e in evs
            ),
            "colls": {
                (e.op, e.root) for e in evs if e.op in COLL_OPS
            },
        }
    out: list[Finding] = []
    for rank in sorted(traces):
        role = "master" if rank == 0 else "worker"
        spec = allowed.get(role)
        if spec is None:
            continue
        for ev in traces[rank]:
            op = ev["op"]
            if op == "send":
                if UNKNOWN not in spec["send_tags"] \
                        and ev["tag"] not in spec["send_tags"]:
                    out.append(_finding(
                        "P506", ev,
                        f"rank {rank} sent tag {ev['tag']!r} but role "
                        f"{role!r} of protocol {proto.name!r} sends only "
                        f"tags {sorted(map(str, spec['send_tags']))}",
                    ))
                elif ev.get("label") is not None \
                        and UNKNOWN not in spec["labels"] \
                        and ev["label"] not in spec["labels"]:
                    out.append(_finding(
                        "P506", ev,
                        f"rank {rank} sent message kind {ev['label']!r} "
                        f"but role {role!r} of protocol {proto.name!r} "
                        f"only sends "
                        f"{sorted(str(x) for x in spec['labels'])}",
                    ))
            elif op == "recv":
                if UNKNOWN not in spec["recv_tags"] \
                        and ev["tag"] not in spec["recv_tags"]:
                    out.append(_finding(
                        "P506", ev,
                        f"rank {rank} received tag {ev['tag']!r} but "
                        f"role {role!r} of protocol {proto.name!r} "
                        "never waits on it",
                    ))
                elif ev.get("req", 0) == -1 and not spec["wildcard"]:
                    out.append(_finding(
                        "P506", ev,
                        f"rank {rank} did an ANY_SOURCE recv but role "
                        f"{role!r} of protocol {proto.name!r} has no "
                        "wildcard receive",
                    ))
            elif op in COLL_OPS:
                colls = spec["colls"]
                if not any(
                    c[0] == op and (c[1] == UNKNOWN or c[1] == ev["root"])
                    for c in colls
                ):
                    out.append(_finding(
                        "P506", ev,
                        f"rank {rank} ran {op}(root={ev['root']}) but "
                        f"role {role!r} of protocol {proto.name!r} has "
                        f"no such collective (allowed: {sorted(colls)})",
                    ))
    return out


def check_traces(
    traces: dict[int, list[_TraceEv]],
    protocol: Protocol | None = None,
) -> list[Finding]:
    """Run the full dynamic battery over one run's traces."""
    if not traces:
        return []
    pairs, problems = pair_p2p(traces)
    groups, coll_problems = _collective_groups(traces)
    out = problems + coll_problems
    clocks = vector_clocks(traces, pairs, groups)
    out.extend(_find_races(traces, pairs, clocks))
    if protocol is not None:
        out.extend(_admission(traces, protocol))
    return out
