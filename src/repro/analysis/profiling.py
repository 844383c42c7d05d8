"""Section 4 reproduction: where does the serial runtime go?

The paper profiled its serial C implementation with gprof and found that
~98.4 % (WL+P) / ~98.5 % (WL+P+D) of the time is spent in Allocation, with
wirelength calculation ~0.5–0.6 %, goodness evaluation ~0.2–0.4 % and
delay calculation ~0.2 %.  We reproduce the measurement with the work
meter (see :mod:`repro.cost.workmeter` for why operation counting replaces
wall-clock profiling here): run the serial algorithm, read the per-category
model-second shares.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cost.workmeter import WorkModel
from repro.parallel.runners import ExperimentSpec, ParallelOutcome, run_serial

__all__ = ["ProfileReport", "profile_serial_run", "run_profile", "PAPER_SHARES"]

#: The paper's gprof shares for the two program versions (Section 4).
PAPER_SHARES: dict[str, dict[str, float]] = {
    "wirelength-power": {
        "allocation": 0.984,
        "wirelength": 0.006,
        "goodness": 0.002,
    },
    "wirelength-power-delay": {
        "allocation": 0.985,
        "wirelength": 0.005,
        "goodness": 0.004,
        "delay": 0.002,
    },
}


@dataclass(frozen=True)
class ProfileReport:
    """Measured share of model-time per work category for one run."""

    circuit: str
    objectives: tuple[str, ...]
    iterations: int
    shares: dict[str, float]
    total_model_seconds: float

    @property
    def allocation_share(self) -> float:
        return self.shares.get("allocation", 0.0)

    def version_key(self) -> str:
        """The matching PAPER_SHARES key for this objective set."""
        return "-".join(self.objectives)


def profile_serial_run(
    spec: ExperimentSpec, work_model: WorkModel | None = None
) -> ProfileReport:
    """Run the serial algorithm and report per-category time shares."""
    outcome = run_serial(spec, work_model=work_model)
    units: dict[str, float] = outcome.extras["work_units"]
    from repro.parallel.mpi.calibration import calibrated_work_model

    model = work_model or calibrated_work_model()
    by_cat = {c: u * model.cost(c) for c, u in units.items()}
    total = sum(by_cat.values())
    shares = {c: v / total for c, v in by_cat.items()} if total > 0 else {}
    return ProfileReport(
        circuit=spec.circuit,
        objectives=spec.objectives,
        iterations=outcome.iterations,
        shares=shares,
        total_model_seconds=total,
    )


def run_profile(spec: ExperimentSpec) -> ParallelOutcome:
    """The ``profile`` pseudo-strategy: a serial run plus gprof-style shares."""
    report = profile_serial_run(spec)
    return ParallelOutcome.for_spec(
        "profile", spec, 1, report.iterations, report.total_model_seconds,
        {"best_mu": 0.0, "best_costs": {}, "history": []},
        {"shares": report.shares, "allocation_share": report.allocation_share,
         "version": report.version_key()},
    )
