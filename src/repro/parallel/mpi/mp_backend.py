"""Shared pieces of the real-process backend.

:class:`~repro.parallel.mpi.socket_backend.SocketCluster` runs the SPMD
strategy code on genuine OS processes; this module holds what it shares
with its callers: the start-method choice, the default run deadline, the
accepted rank-failure policies and the run-result type.
"""

from __future__ import annotations

import multiprocessing as mp
import sys
from dataclasses import dataclass, field
from typing import Any

from repro.cost.workmeter import WorkMeter

__all__ = [
    "DEFAULT_TIMEOUT",
    "MpRunResult",
    "RANK_FAILURE_POLICIES",
    "pick_start_method",
]

#: Accepted ``on_rank_failure`` policies.
RANK_FAILURE_POLICIES = ("abort", "degrade")

#: Default run deadline (seconds): generous for real workloads, finite so
#: a hung backend can never stall a caller (CI enforces a tighter one).
DEFAULT_TIMEOUT = 600.0


def pick_start_method() -> str:
    """``fork`` where safe and available, else ``spawn``.

    macOS can fork but CoreFoundation makes it unsafe-by-default (Python
    3.8+ defaults the platform to spawn for the same reason); Windows has
    no fork at all.  The SPMD function and its arguments must be
    picklable either way (module-level functions; specs are plain
    dataclasses).
    """
    if sys.platform != "darwin" and "fork" in mp.get_all_start_methods():
        return "fork"
    return "spawn"


@dataclass
class MpRunResult:
    """Outcome of one real-process SPMD run.

    ``wall_seconds`` is the parent-observed span (includes process spawn);
    ``clocks`` are the per-rank in-child elapsed times; ``meters`` carry
    each rank's work-unit counts back to the parent (model-seconds for
    the wall-clock calibration fit).  ``lost`` maps ranks abandoned by an
    ``on_rank_failure="degrade"`` run to a human-readable reason; their
    ``results``/``clocks``/``meters`` slots hold ``None``/``0.0``/empty
    meters.  Under the default abort policy it is always empty.
    """

    results: list[Any]
    wall_seconds: float
    clocks: list[float] = field(default_factory=list)
    meters: list[WorkMeter] = field(default_factory=list)
    lost: dict[int, str] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        """Wall-clock of the whole run (the analogue of the sim makespan)."""
        return self.wall_seconds
