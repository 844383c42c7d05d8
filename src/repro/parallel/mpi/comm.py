"""Abstract communicator interface (mpi4py-style, lower-case semantics).

SPMD programs in this library are written against this interface and run
unchanged on either backend: the deterministic simulated cluster or the
real-process socket router.  The API mirrors the
pickle-based (lower-case) half of mpi4py:

* ``send(obj, dest, tag)`` — buffered-eager send: returns once the message
  is handed to the transport (it never rendezvouses with the receiver);
* ``recv(source, tag)`` — blocking receive; ``source=ANY_SOURCE`` matches
  any sender, delivered in deterministic ``(arrival, source, seq)`` order
  on the simulated backend;
* ``bcast / scatter / gather / allgather / barrier`` — synchronizing
  collectives, called by every rank in the same order (SPMD discipline).

Backends also expose ``elapsed()`` — virtual model-seconds on the
simulated cluster, wall-clock seconds elsewhere — so strategy code reports
runtimes uniformly.  Every backend's ``run`` returns one
:class:`ClusterRunResult`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.cost.workmeter import WorkMeter

__all__ = [
    "Communicator",
    "ClusterRunResult",
    "ANY_SOURCE",
    "CommError",
    "DeadlockError",
]

#: Wildcard source for :meth:`Communicator.recv`.
ANY_SOURCE: int = -1


class CommError(RuntimeError):
    """Raised for protocol misuse (bad ranks, mismatched collectives...)."""


class DeadlockError(CommError):
    """Raised by the simulated cluster when every rank is blocked."""


@dataclass
class ClusterRunResult:
    """Outcome of one SPMD run, on either backend.

    Per rank: the function's return value, its elapsed time in the
    backend's clock domain and its work meter.  ``makespan`` is the run's
    span in that domain (the slowest virtual clock on sim, the parent's
    wall time on socket).  ``lost`` maps ranks a degraded run abandoned
    to a reason; their slots hold ``None``/``0.0``/an empty meter.
    """

    results: list[Any]
    clocks: list[float]
    meters: list[WorkMeter]
    makespan: float
    lost: dict[int, str] = field(default_factory=dict)


class Communicator(abc.ABC):
    """One rank's endpoint in a communicator group (see module docstring)."""

    @property
    @abc.abstractmethod
    def rank(self) -> int:
        """This process's rank in ``[0, size)``."""

    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Number of ranks in the group."""

    # -- point-to-point -------------------------------------------------
    @abc.abstractmethod
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Buffered send of a picklable object."""

    @abc.abstractmethod
    def recv(self, source: int = ANY_SOURCE, tag: int = 0) -> tuple[int, Any]:
        """Blocking receive; returns ``(source_rank, object)``."""

    # -- collectives ------------------------------------------------------
    @abc.abstractmethod
    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast from ``root``; every rank returns the object."""

    @abc.abstractmethod
    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter a length-``size`` sequence from ``root``."""

    @abc.abstractmethod
    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one object per rank to ``root`` (None elsewhere)."""

    @abc.abstractmethod
    def barrier(self) -> None:
        """Synchronize all ranks."""

    def allgather(self, obj: Any) -> list[Any]:
        """Gather to root 0 then broadcast (default composition)."""
        out = self.gather(obj, root=0)
        return self.bcast(out, root=0)

    # -- liveness ---------------------------------------------------------
    def dead_peers(self) -> frozenset[int]:
        """Ranks this endpoint knows are gone (finished or died).

        Departure knowledge is transport-dependent and lazily acquired —
        a peer's death is only discovered when the transport reports it
        (EOF, PEERDOWN) — so this is a lower bound, not an oracle.
        Backends with no departure signal return the empty set.
        """
        return frozenset()

    # -- timing -----------------------------------------------------------
    @abc.abstractmethod
    def elapsed(self) -> float:
        """Seconds elapsed for this rank (virtual or wall-clock)."""

    def progress(self) -> None:
        """Optional progress hint: publish this rank's current clock.

        A no-op on the real backend; on the simulated cluster it lets a rank
        in a long compute stretch update its virtual clock so other ranks'
        conservative delivery decisions can proceed sooner.
        """

    def _check_rank(self, r: int, *, allow_any: bool = False) -> None:
        if allow_any and r == ANY_SOURCE:
            return
        if not 0 <= r < self.size:
            raise CommError(f"rank {r} out of range for size {self.size}")
