"""The cluster-backend protocol: one SPMD contract, two executions.

Every parallel strategy is written once against
:class:`~repro.parallel.mpi.comm.Communicator` and executed through a
:class:`ClusterBackend` — the deterministic simulated cluster (virtual
clocks, model-seconds, bit-reproducible) or the socket router cluster
(real OS processes over a hub-and-spoke router, wall-clock, O(p) fds,
p in the hundreds).  :func:`make_cluster` is the single construction
point the strategy runners, the experiment registry and the CLI's
``--cluster sim|socket`` flag all share.

The contract:

* ``run(fn, args, kwargs, per_rank_kwargs)`` executes ``fn(comm, ...)``
  on every rank and returns a
  :class:`~repro.parallel.mpi.comm.ClusterRunResult`: ``results`` (one
  per rank), ``clocks`` (per-rank elapsed in the backend's clock
  domain), ``meters`` (per-rank work meters), ``makespan`` (the run's
  span in that domain) and ``lost`` (ranks a degraded run abandoned);
* ``clock`` names the domain: ``"model"`` (virtual, deterministic) or
  ``"wall"`` (host wall-clock);
* any rank failure raises :class:`~repro.parallel.mpi.comm.CommError`
  (or the rank's own exception on the simulated backend) after every
  process/thread has been reaped — callers never leak ranks.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.cost.workmeter import WorkModel
from repro.parallel.mpi.calibration import (
    calibrated_network_model,
    calibrated_work_model,
)
from repro.parallel.mpi.comm import ClusterRunResult
from repro.parallel.mpi.netmodel import NetworkModel
from repro.parallel.mpi.simcluster import SimCluster
from repro.parallel.mpi.socket_backend import DEFAULT_TIMEOUT, SocketCluster

if TYPE_CHECKING:  # circular at runtime: faults needs CommError from mpi
    from repro.parallel.faults import FaultPlan

__all__ = [
    "ClusterBackend",
    "ClusterRunResult",
    "CLUSTERS",
    "RANK_FAILURE_POLICIES",
    "make_cluster",
    "validate_cluster",
]

#: Registered backend names, in preference order.
CLUSTERS = ("sim", "socket")

#: Accepted ``on_rank_failure`` policies.
RANK_FAILURE_POLICIES = ("abort", "degrade")


def validate_cluster(kind: str) -> str:
    """Check a backend name (the one shared validation everywhere uses)."""
    if kind not in CLUSTERS:
        raise ValueError(
            f"unknown cluster backend {kind!r}; expected one of {CLUSTERS}"
        )
    return kind


@runtime_checkable
class ClusterBackend(Protocol):
    """SPMD execution over ``size`` ranks (see module docstring)."""

    size: int
    #: ``"model"`` (virtual clocks) or ``"wall"`` (host wall-clock).
    clock: str

    def run(
        self,
        fn: Callable[..., Any],
        args: Sequence[Any] = (),
        kwargs: dict[str, Any] | None = None,
        per_rank_kwargs: Sequence[dict[str, Any]] | None = None,
    ) -> ClusterRunResult:
        ...


def make_cluster(
    kind: str,
    p: int,
    network: NetworkModel | None = None,
    work_model: WorkModel | None = None,
    timeout: float | None = None,
    faults: "FaultPlan | None" = None,
    on_rank_failure: str = "abort",
    trace_dir: str | None = None,
) -> ClusterBackend:
    """Build a ``p``-rank cluster backend by name.

    ``network`` applies to the simulated backend only (the real backend's
    communication costs are real); ``work_model`` defaults to the
    calibrated model on both, so the real backend's meters report
    comparable model-seconds.  ``timeout`` overrides the real backend's
    run deadline (ignored by the simulated backend, which detects
    deadlock structurally instead); the CLI exposes it as ``--deadline``.

    ``faults`` is a :class:`~repro.parallel.faults.FaultPlan` armed on
    every rank (both backends).  ``on_rank_failure`` selects the
    real backend's response to a mid-run rank loss: ``"abort"`` (default,
    raise :class:`CommError`) or ``"degrade"`` (continue with the
    survivors and report the losses on the run result).  It is checked
    for both kinds, but the simulated backend has no partial-death mode
    and ignores it.

    ``trace_dir`` arms a :class:`~repro.parallel.trace.CommTraceRecorder`
    on every rank (both backends) and writes one canonical
    event-trace file per rank into the directory; recording is purely
    local (no payload, ordering or RNG effect), so traced runs are
    bit-identical to untraced ones.  ``repro commcheck --trace`` replays
    these traces against the static protocol skeletons.
    """
    validate_cluster(kind)
    if on_rank_failure not in RANK_FAILURE_POLICIES:
        raise ValueError(
            f"on_rank_failure must be one of {RANK_FAILURE_POLICIES}, "
            f"got {on_rank_failure!r}"
        )
    if kind == "sim":
        return SimCluster(
            p,
            network=network or calibrated_network_model(),
            work_model=work_model or calibrated_work_model(),
            faults=faults,
            trace_dir=trace_dir,
        )
    return SocketCluster(
        p,
        work_model=work_model or calibrated_work_model(),
        timeout=DEFAULT_TIMEOUT if timeout is None else timeout,
        faults=faults,
        on_rank_failure=on_rank_failure,
        trace_dir=trace_dir,
    )
