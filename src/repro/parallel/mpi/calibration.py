"""Calibration of the work and network models.

The simulated cluster reports **model-seconds**, not wall-clock.  Two knobs
tie model-seconds to the paper's testbed (2 GHz Pentium-4 nodes, MPICH
1.2.5 over 100 Mbit ethernet):

Work model
----------
The paper's serial WL+P run on s1196 took 92 s for 3 500 iterations —
**≈ 26 ms per SimE iteration** — with the gprof split of Section 4
(allocation ≈ 98.4 %, wirelength ≈ 0.6 %, goodness ≈ 0.2 %).  Our serial
engine on the s1196 stand-in charges ≈ 80 k work units per iteration with
the same *relative* split (allocation ≈ 96–98 % of units; the split is a
property of the algorithm, not of the coefficients).  The calibrated
seconds-per-unit coefficients below scale those unit counts so one serial
iteration of the s1196 stand-in costs ≈ 26 model-ms, with mild per-category
skew nudging the shares toward the paper's exact percentages.  Coefficients
are uniform across circuits — s3330's larger per-iteration cost emerges
from its larger unit counts, as it did on the real machine.

Network model
-------------
Effective application-level numbers for MPICH-over-TCP on that hardware:
~1 ms small-message latency (NIC + TCP stack + interrupt coalescing on a
P4-era machine), ~11 MB/s effective bandwidth (100 Mbit line rate minus
TCP/MPI framing).  Collectives are switch-pipelined and nearly flat in the
processor count (see :class:`~repro.parallel.mpi.netmodel.NetworkModel`),
which is what Table 1's p-independent runtimes indicate.

Neither knob affects *which* solutions are produced — only the reported
model-seconds.  All reproduction claims are ratio/trend claims, which are
invariant to a uniform rescaling of either model.

Host calibration (socket backend)
---------------------------------
The real-process backend measures wall-clock, and a host's wall time per
work unit differs from the paper's Pentium 4 by a machine-dependent
factor.  :func:`fit_work_model` recovers that factor by least squares —
it scales the paper-calibrated coefficients uniformly so model-seconds
track *measured* wall times — and :func:`calibrate_to_host` collects the
measurements by running serial SimE cells through a one-rank
:class:`~repro.parallel.mpi.socket_backend.SocketCluster` (real process,
real clock) via :func:`measure_host_samples`.  The uniform-scale fit is
deliberate: per-category coefficients are the paper's gprof shares, a
property of the algorithm, and refitting them per host would let
interpreter noise rewrite the Section 4 profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.cost.workmeter import WorkModel
from repro.parallel.mpi.netmodel import NetworkModel

__all__ = [
    "calibrated_work_model",
    "calibrated_network_model",
    "PAPER_SERIAL_SECONDS_PER_ITER",
    "WallClockFit",
    "fit_work_model",
    "measure_host_samples",
    "calibrate_to_host",
]

#: The paper's serial per-iteration runtime anchor (s1196, WL+P):
#: 92 s / 3500 iterations.
PAPER_SERIAL_SECONDS_PER_ITER: float = 92.0 / 3500.0

#: Seconds per work unit, per category.  Derived from a 60-iteration serial
#: run of the s1196 stand-in, which charges per iteration ≈ 77 k allocation
#: units, ≈ 1.7 k wirelength units, ≈ 560 goodness/selection units, ≈ 590
#: power units; the coefficients put the serial iteration at the paper's
#: 26.3 ms with the Section 4 shares (allocation 98.4 %, wirelength 0.6 %,
#: goodness 0.3 %, ...).
_SECONDS_PER_UNIT: dict[str, float] = {
    "allocation": 3.36e-7,
    "wirelength": 9.1e-8,
    "power": 9.0e-8,
    "goodness": 1.4e-7,
    "selection": 9.4e-8,
    "delay": 1.4e-7,
    "merge": 1.4e-7,
}


def calibrated_work_model() -> WorkModel:
    """The work model used by every reproduction bench."""
    return WorkModel(seconds_per_unit=dict(_SECONDS_PER_UNIT))


def calibrated_network_model() -> NetworkModel:
    """The fast-ethernet-class network model used by every bench."""
    return NetworkModel(latency=1.0e-3, bandwidth=11.0e6, min_payload=64)


@dataclass(frozen=True)
class WallClockFit:
    """Diagnostics of one wall-clock calibration fit.

    ``scale`` is the fitted host factor (fitted seconds = scale × paper
    model-seconds); ``r_squared`` how much of the wall-time variance the
    scaled model explains; ``n_samples`` the measurement count.
    """

    scale: float
    r_squared: float
    n_samples: int


def fit_work_model(
    samples: Iterable[tuple[dict[str, float], float]],
    base: WorkModel | None = None,
) -> tuple[WorkModel, WallClockFit]:
    """Fit a :class:`WorkModel` to measured wall times.

    ``samples`` are ``(unit_counts, wall_seconds)`` pairs — a work-meter
    snapshot plus the wall time the same workload took.  The fit scales
    ``base`` (default: the paper-calibrated model) by the least-squares
    factor through the origin, preserving the per-category shares.
    """
    base = base or calibrated_work_model()
    pairs = list(samples)
    if not pairs:
        raise ValueError("need at least one (unit_counts, wall_seconds) sample")
    model_secs: list[float] = []
    walls: list[float] = []
    for units, wall in pairs:
        m = sum(u * base.cost(c) for c, u in units.items())
        if m <= 0.0:
            raise ValueError("sample charges no modelled work; cannot fit")
        if wall < 0.0:
            raise ValueError(f"negative wall time {wall!r}")
        model_secs.append(m)
        walls.append(float(wall))
    scale = sum(w * m for w, m in zip(walls, model_secs)) / sum(
        m * m for m in model_secs
    )
    fitted = WorkModel(
        seconds_per_unit={c: s * scale for c, s in base.seconds_per_unit.items()}
    )
    mean_w = sum(walls) / len(walls)
    ss_tot = sum((w - mean_w) ** 2 for w in walls)
    ss_res = sum((w - scale * m) ** 2 for w, m in zip(walls, model_secs))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return fitted, WallClockFit(scale=scale, r_squared=r2, n_samples=len(pairs))


def measure_host_samples(
    circuit: str = "s1196",
    budgets: Sequence[int] = (4, 8),
    seed: int = 1,
    objectives: tuple[str, ...] = ("wirelength", "power"),
) -> list[tuple[dict[str, float], float]]:
    """Measured ``(unit_counts, wall_seconds)`` pairs for the host.

    Each budget runs one serial SimE cell through a one-rank socket
    cluster (:func:`~repro.parallel.runners.run_cluster`) — a real
    child process, so the measured clock is exactly what the socket
    backend's parallel runs experience.  Wall time is the rank's
    in-child elapsed (process spawn excluded: spawn cost is overhead of
    the backend, not of the modelled work).
    """
    # Deferred: runners imports this module for the default models.
    from repro.parallel.runners import ExperimentSpec, run_cluster, serial_spmd

    samples: list[tuple[dict[str, float], float]] = []
    for iterations in budgets:
        if iterations < 1:
            raise ValueError(f"budgets must be >= 1, got {iterations}")
        spec = ExperimentSpec(
            circuit=circuit,
            objectives=objectives,
            iterations=iterations,
            seed=seed,
        )
        res, _ = run_cluster(serial_spmd, spec, 1, {}, cluster="socket")
        samples.append((res.meters[0].snapshot(), res.clocks[0]))
    return samples


def calibrate_to_host(
    circuit: str = "s1196",
    budgets: Sequence[int] = (4, 8),
    seed: int = 1,
) -> tuple[WorkModel, WallClockFit]:
    """Measure this host through the socket backend and fit a work model."""
    return fit_work_model(measure_host_samples(circuit, budgets, seed))
