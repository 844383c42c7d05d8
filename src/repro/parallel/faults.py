"""Deterministic fault injection for the cluster backends.

Real clusters lose ranks: processes are OOM-killed, wedge inside native
code, or drop their network connection mid-run.  The fault-tolerance
machinery that handles those events (retry classification in the sweep
layer, survivor degradation in Type III, reconnect in the socket router)
is only trustworthy if the events themselves can be *reproduced* — a
flaky chaos test is worse than none.  This module makes failure a seeded,
replayable input:

* a :class:`FaultPlan` is a tuple of :class:`Fault` directives parsed
  from a compact spec string (``"kill:at=3;wedge:rank=2:at=5"``);
* victims left unspecified (``rank`` omitted) are resolved from the run
  seed via :func:`~repro.utils.hashing.stable_hash`, so a given
  ``(seed, plan)`` picks the same rank every run on every backend —
  and never rank 0, which the master-style strategies cannot lose
  without the whole run aborting trivially;
* the plan is threaded through ``make_cluster``; each cluster arms it on
  every rank's communicator as the first hook of the comm interceptor
  chain (:mod:`repro.parallel.intercept`), which counts that rank's comm
  operations and fires when the count reaches ``at`` — the firing point
  is a property of the SPMD code path, not of wall-clock timing.

Fault kinds
-----------
``kill``
    The victim exits immediately (``os._exit`` with :data:`KILL_EXIT` on
    the process backend; :class:`InjectedFault` on the simulated
    cluster, whose ranks are threads).
``wedge``
    The victim SIGSTOPs itself — the process lives but stops
    heartbeating, exercising the socket backend's heartbeat monitor
    (:class:`~repro.parallel.mpi.socket_backend.LivenessMonitor`).
    Exception-mode backends raise :class:`InjectedFault` instead.
``disconnect``
    The victim closes its transport connection without dying — the
    socket backend's reconnect path re-admits it; backends with no
    reconnect semantics ignore the directive.
``drop``
    The victim's ``at``-th ``send`` is silently discarded.  The receiver
    blocks until a liveness bound (deadline, structural deadlock
    detection on sim) converts the loss into an error.
``delay``
    The victim sleeps ``seconds`` before its ``at``-th ``send`` —
    jitter for arrival-order-sensitive paths, not a failure.

``at`` counts the victim's public comm operations — every ``send``,
``recv``, ``bcast``, ``scatter``, ``gather`` and ``barrier`` call is one
op regardless of how a backend implements it internally — for
``kill``/``wedge``/``disconnect``, and its ``send`` calls alone for
``drop``/``delay`` (those act on an outgoing point-to-point frame).  An optional
``attempt=N`` scopes a fault to the N-th execution attempt of a sweep
cell — ``attempt=1`` faults make a cell fail once and then succeed on
retry, which is how the retry/resume tests pin "transient failure,
bit-identical recovery".  Outside the sweep layer a bare run counts as
attempt 1.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, replace
from typing import Any

from repro.parallel.intercept import Hook
from repro.parallel.mpi.comm import CommError
from repro.utils.hashing import stable_hash

__all__ = [
    "Fault",
    "FaultPlan",
    "FaultHook",
    "InjectedFault",
    "FAULT_KINDS",
    "KILL_EXIT",
    "as_plan",
    "parse_faults",
    "format_faults",
]

#: Recognized fault kinds, in spec order of documentation.
FAULT_KINDS = ("kill", "wedge", "disconnect", "drop", "delay")

#: Exit code used by injected kills: deterministic (unlike a SIGKILL's
#: signal-dependent code) and distinctive in "died without result"
#: messages.
KILL_EXIT = 173

#: Default sleep for ``delay`` faults when ``seconds`` is omitted.
DEFAULT_DELAY_SECONDS = 0.05


class InjectedFault(CommError):
    """Raised in place of a process-level fault on exception-mode backends.

    Subclasses :class:`CommError` so the sweep layer classifies injected
    failures exactly like organic rank deaths: transient, retryable.
    """


@dataclass(frozen=True)
class Fault:
    """One fault directive: *kind* strikes *rank* at its *at*-th comm op.

    ``rank=None`` means "resolve deterministically from the seed"
    (see :meth:`FaultPlan.resolve`).  ``attempt=None`` means "every
    attempt"; an integer scopes the fault to that sweep retry attempt.
    ``seconds`` only applies to ``delay``.
    """

    kind: str
    rank: int | None = None
    at: int = 1
    attempt: int | None = None
    seconds: float = DEFAULT_DELAY_SECONDS

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (expected one of "
                f"{', '.join(FAULT_KINDS)})"
            )
        if self.at < 1:
            raise ValueError(f"fault 'at' must be >= 1, got {self.at}")
        if self.rank is not None and self.rank < 0:
            raise ValueError(f"fault rank must be >= 0, got {self.rank}")
        if self.attempt is not None and self.attempt < 1:
            raise ValueError(f"fault attempt must be >= 1, got {self.attempt}")
        if self.seconds < 0:
            raise ValueError(f"fault seconds must be >= 0, got {self.seconds}")

    def spec(self) -> str:
        """The fault as one spec-string clause (parse/format round-trip)."""
        parts = [self.kind]
        if self.rank is not None:
            parts.append(f"rank={self.rank}")
        parts.append(f"at={self.at}")
        if self.attempt is not None:
            parts.append(f"attempt={self.attempt}")
        if self.kind == "delay" and self.seconds != DEFAULT_DELAY_SECONDS:
            parts.append(f"seconds={self.seconds:g}")
        return ":".join(parts)


def parse_faults(text: str) -> tuple[Fault, ...]:
    """Parse a spec string: ``;``-separated clauses of ``kind:key=value``.

    Examples: ``"kill:at=3"``, ``"wedge:rank=2:at=5:attempt=1"``,
    ``"delay:at=2:seconds=0.5;drop:at=4"``.  Raises :class:`ValueError`
    on anything malformed — the CLI and the registry validate specs
    before any process is spawned.
    """
    faults: list[Fault] = []
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        head, *fields = clause.split(":")
        kw: dict[str, Any] = {"kind": head.strip()}
        for field in fields:
            key, sep, value = field.partition("=")
            key = key.strip()
            if not sep or key not in ("rank", "at", "attempt", "seconds"):
                raise ValueError(
                    f"bad fault field {field!r} in clause {clause!r} "
                    "(expected rank=, at=, attempt= or seconds=)"
                )
            try:
                kw[key] = float(value) if key == "seconds" else int(value)
            except ValueError:
                raise ValueError(
                    f"bad fault value {value!r} for {key!r} in {clause!r}"
                ) from None
        faults.append(Fault(**kw))
    if not faults:
        raise ValueError(f"fault spec {text!r} contains no fault clauses")
    return tuple(faults)


def format_faults(faults: tuple[Fault, ...]) -> str:
    """Inverse of :func:`parse_faults` (canonical clause order preserved)."""
    return ";".join(f.spec() for f in faults)


def _victim(seed: int, fault: Fault, p: int) -> int:
    """Deterministic victim for a rank-less fault: never rank 0 at p > 1.

    Keyed on the fault's *shape* (kind, op index) rather than its list
    position, so filtering a plan by attempt never reshuffles victims.
    """
    if p <= 1:
        return 0
    digest = stable_hash(("fault-victim", seed, fault.kind, fault.at), length=16)
    return 1 + int(digest, 16) % (p - 1)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, reproducible set of fault directives for one run."""

    faults: tuple[Fault, ...]
    seed: int = 0

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        return cls(faults=parse_faults(text), seed=seed)

    def spec(self) -> str:
        return format_faults(self.faults)

    def for_attempt(self, attempt: int) -> "FaultPlan":
        """The sub-plan active on execution attempt ``attempt`` (1-based).

        Keeps unscoped faults and faults pinned to this attempt; the
        ``attempt`` field is consumed (cleared) so the surviving faults
        are unconditional for the run that receives them.
        """
        kept = tuple(
            replace(f, attempt=None)
            for f in self.faults
            if f.attempt is None or f.attempt == attempt
        )
        return replace(self, faults=kept)

    def resolve(self, p: int) -> "FaultPlan":
        """Pin every rank-less fault to its seed-derived victim for size ``p``.

        Raises :class:`ValueError` if an explicit rank is out of range —
        a plan written for a larger cluster is a config error, not a
        silent no-op.
        """
        resolved = []
        for fault in self.faults:
            if fault.rank is None:
                fault = replace(fault, rank=_victim(self.seed, fault, p))
            elif fault.rank >= p:
                raise ValueError(
                    f"fault {fault.spec()!r} targets rank {fault.rank} but the "
                    f"cluster has only {p} ranks"
                )
            resolved.append(fault)
        return replace(self, faults=tuple(resolved))

    def hook(self, comm: Any, mode: str = "exception") -> "FaultHook | None":
        """This plan's interceptor-chain hook for ``comm``'s rank.

        ``None`` when the plan spares the rank.  ``mode="process"`` enacts
        kills/wedges at the OS level (``os._exit`` / self-SIGSTOP);
        ``mode="exception"`` raises :class:`InjectedFault` instead — the
        only option on the simulated cluster, whose ranks are threads of
        one process.  Must be called on an already :meth:`resolve`-d plan.
        """
        mine = sorted(
            (f for f in self.faults if f.rank == comm.rank),
            key=lambda f: (f.at, FAULT_KINDS.index(f.kind)),
        )
        return FaultHook(mine, comm, mode) if mine else None


class FaultHook(Hook):
    """One rank's armed faults: the first hook of the comm chain.

    The chain calls :meth:`before` once per *public* op (collectives a
    backend builds over its own send/recv count once), so the firing
    point is the same on every backend.
    """

    def __init__(self, faults: list[Fault], comm: Any, mode: str):
        self.pending = list(faults)
        self.comm = comm
        self.mode = mode
        self.ops = 0
        self.sends = 0

    def before(self, op: str, args: tuple, kwargs: dict) -> bool:
        """Count the op, fire due faults; True drops the current send."""
        is_send = op == "send"
        self.ops += 1
        if is_send:
            self.sends += 1
        dropped = False
        for fault in list(self.pending):
            if fault.kind in ("drop", "delay"):
                if not (is_send and self.sends == fault.at):
                    continue
            elif self.ops != fault.at:
                continue
            self.pending.remove(fault)
            dropped |= _enact(fault, self.comm, self.mode)
        return dropped


def _enact(fault: Fault, comm: Any, mode: str) -> bool:
    """Fire one fault; returns True when the current send must be dropped."""
    if fault.kind == "delay":
        time.sleep(fault.seconds)
        return False
    if fault.kind == "drop":
        return True
    if fault.kind == "disconnect":
        sever = getattr(comm, "_fault_disconnect", None)
        if sever is not None:
            sever()
        return False
    # kill / wedge
    if mode == "process":
        if fault.kind == "kill":
            os._exit(KILL_EXIT)
        os.kill(os.getpid(), signal.SIGSTOP)
        return False
    raise InjectedFault(
        f"injected {fault.kind}: rank {comm.rank} at comm op {fault.at}"
    )


def as_plan(
    faults: "str | FaultPlan | None", seed: int
) -> "FaultPlan | None":
    """Coerce a runner's ``faults`` argument into a seeded plan.

    Spec strings (what the CLI and sweep params carry) are parsed with
    the run seed and filtered to attempt 1 — a bare runner call *is*
    attempt 1, so faults scoped to a later retry attempt never fire
    outside the sweep layer (which pre-filters per attempt and hands the
    runner an unscoped spec).  ``FaultPlan`` instances and ``None`` pass
    through untouched.
    """
    if faults is None or isinstance(faults, FaultPlan):
        return faults
    return FaultPlan.parse(faults, seed=seed).for_attempt(1)
