"""The protocol event model: per-role communication skeletons.

The protocol rules (P5xx) abstract each SPMD strategy into one skeleton per
*role* (master = rank 0, worker = every other rank; the collective
implementations use root/nonroot).  A skeleton is a tree of four node
kinds:

* :class:`Event` — one comm op (``send``/``recv``/``bcast``/``scatter``/
  ``gather``/``barrier``) with its tag, peer, payload label and source
  location.  Peers and tags are resolved where they are constants or
  named module constants; unresolvable values degrade to :data:`UNKNOWN`
  (which matches anything — the analyses are conservative, never
  speculative).
* :class:`Loop` — iteration structure.  ``kind`` distinguishes
  count-bounded loops (``"for"``), loops over the rank space
  (``"ranks"``), generic ``while`` loops (``"while"``) and the
  *serve loop* idiom (``"serve"``): a ``while`` whose condition counts
  peers against ``comm.size`` — the master's message funnel, which may
  only exit once every peer is finished and its channel drained.
* :class:`Choice` — branching.  A choice is *reactive* when its branches
  are keyed on the label of the last received message (``kind = msg[0];
  if kind == _REPORT: ...``); the deadlock explorer then resolves it
  deterministically from the message that actually arrived instead of
  exploring impossible paths.
* :class:`Jump` — ``break``/``continue``/``return`` control transfers.

Symbolic peer/tag markers:

* :data:`ANY` — ANY_SOURCE receive;
* :data:`REPLY` — a send whose destination is the source of the last
  wildcard receive (the store's reply idiom);
* :data:`RANKS` — a send/recv target that is the induction variable of a
  loop over the rank space;
* :data:`UNKNOWN` — statically unresolvable (matches everything).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

__all__ = [
    "ANY",
    "REPLY",
    "RANKS",
    "UNKNOWN",
    "P2P_OPS",
    "COLL_OPS",
    "COMM_OPS",
    "Event",
    "Loop",
    "Choice",
    "Branch",
    "Jump",
    "Node",
    "RoleSkeleton",
    "Protocol",
    "iter_events",
]

#: Wildcard receive source.
ANY = "ANY"
#: Send destination = source of the last wildcard receive in this role.
REPLY = "REPLY"
#: Peer is the induction variable of a loop over the rank space.
RANKS = "RANKS"
#: Statically unresolvable peer/tag/label — matches everything.
UNKNOWN = "?"

P2P_OPS = ("send", "recv")
COLL_OPS = ("bcast", "scatter", "gather", "barrier")
COMM_OPS = P2P_OPS + COLL_OPS


@dataclass
class Event:
    """One communication operation in a role's skeleton."""

    op: str
    path: str
    line: int
    #: send destination / recv source: int rank, ANY, REPLY, RANKS or UNKNOWN.
    peer: int | str | None = None
    #: message tag: int where resolved, else UNKNOWN.
    tag: int | str = 0
    #: collective root: int where resolved, else UNKNOWN.
    root: int | str = 0
    #: payload label (tuple-with-string-head idiom), None when no label,
    #: UNKNOWN when the payload is not statically visible.
    label: str | None = UNKNOWN
    #: True when the op sits in a ``try`` whose handler catches CommError:
    #: peer death surfaces as a handled exception, not a hang.
    guarded: bool = False


@dataclass
class Loop:
    """Iteration structure around a skeleton subtree."""

    #: "for" (count-bounded), "ranks" (over the rank space), "while"
    #: (generic) or "serve" (message funnel counting peers vs comm.size).
    kind: str
    #: normalised bound expression text ("" when not meaningful).
    count: str
    body: list["Node"]
    path: str
    line: int


@dataclass
class Branch:
    """One arm of a :class:`Choice`.

    ``label`` is the message kind this arm is keyed on when the choice is
    reactive; ``None`` marks an unkeyed arm (plain data-dependent branch,
    or a reactive chain's ``else``).
    """

    label: str | None
    body: list["Node"] = field(default_factory=list)


@dataclass
class Choice:
    """A branch point.  Reactive iff any branch carries a label."""

    branches: list[Branch]
    path: str
    line: int

    @property
    def reactive(self) -> bool:
        return any(b.label is not None for b in self.branches)


@dataclass
class Jump:
    """A ``break``, ``continue`` or ``return`` control transfer."""

    kind: str  # "break" | "continue" | "return"
    path: str
    line: int


Node = Union[Event, Loop, Choice, Jump]


@dataclass
class RoleSkeleton:
    """The communication skeleton one role executes."""

    role: str
    nodes: list[Node] = field(default_factory=list)


@dataclass
class Protocol:
    """One extracted protocol: a named set of role skeletons.

    Strategy protocols (``kind="strategy"``) have roles ``master`` /
    ``worker`` projected from an ``_spmd`` entry point; collective
    implementations (``kind="collective"``) have roles ``root`` /
    ``nonroot`` projected from a ``rank == root`` split.
    """

    name: str
    path: str
    kind: str
    roles: dict[str, RoleSkeleton] = field(default_factory=dict)
    #: True when the strategy's runner threads a run deadline into
    #: ``make_cluster`` — a blocked recv is then bounded on the real
    #: backends even if a peer dies (P504).
    deadline_capable: bool = False
    #: line of the make_cluster call the deadline judgement refers to.
    runner_line: int = 0

    def events(self, role: str | None = None) -> list[Event]:
        out: list[Event] = []
        for name, skel in sorted(self.roles.items()):
            if role is None or name == role:
                out.extend(iter_events(skel.nodes))
        return out


def iter_events(nodes: list[Node]) -> Iterator[Event]:
    """Every :class:`Event` leaf under ``nodes``, in source order."""
    for node in nodes:
        if isinstance(node, Event):
            yield node
        elif isinstance(node, Loop):
            yield from iter_events(node.body)
        elif isinstance(node, Choice):
            for branch in node.branches:
                yield from iter_events(branch.body)
