"""Operation counting: the reproduction's replacement for gprof.

The paper profiles its serial C implementation with gprof (Section 4) and
builds every parallelization argument on where the time goes (Allocation
~98 %, wirelength ~0.5 %, goodness ~0.3 %, delay ~0.2 %).  Wall-clock
profiling of *this* Python implementation would measure interpreter
overheads, not the algorithm, so we count **work units** at the same
granularity the paper's phases have:

* ``wirelength`` — one unit per net-pin visited during a net-length
  evaluation (cost ∝ net degree);
* ``power`` — per net-power evaluation;
* ``delay`` — per path-net visited during path-delay evaluation;
* ``goodness`` — per cell goodness evaluation;
* ``selection`` — per selection decision;
* ``allocation`` — per candidate-position *trial* in the best-fit search
  (each trial internally re-charges ``wirelength`` for the nets it probes —
  exactly why allocation dominates in the paper).

The :class:`WorkModel` maps unit counts to **model-seconds**; its default
coefficients are calibrated in :mod:`repro.parallel.mpi.calibration` so a
serial run of the s1196 stand-in extrapolates to the paper's runtime scale.
The simulated cluster advances each rank's virtual clock by the
model-seconds its meter accumulates between communication events.

Charges are a *model*, decoupled from wall-clock work: an operation
charges the units the paper's algorithm would spend, even when this
implementation takes a shortcut (the fused probe kernel touches O(nets)
per candidate but charges the full per-pin walk; a cached goodness hit
still charges its evaluation; ``refresh_totals`` charges a full sweep).
That decoupling is what lets the hot paths get faster while model-seconds,
the Section 4 profile and the simulated cluster's virtual clocks stay
bit-identical.  All unit counts are integer-valued floats, so batching
many charges into one (as the kernel does per row scan) is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["WorkModel", "WorkMeter", "CATEGORIES"]

#: Known work categories (others are accepted but cost 0 unless configured).
CATEGORIES: tuple[str, ...] = (
    "wirelength",
    "power",
    "delay",
    "goodness",
    "selection",
    "allocation",
    "merge",
)


@dataclass(frozen=True)
class WorkModel:
    """Seconds-per-unit coefficients for each work category.

    The defaults here are unit-neutral (1 µs per unit everywhere); the
    calibrated model every run uses lives in
    :func:`repro.parallel.mpi.calibration.calibrated_work_model`.
    """

    seconds_per_unit: dict[str, float] = field(
        default_factory=lambda: {c: 1e-6 for c in CATEGORIES}
    )

    def cost(self, category: str) -> float:
        return self.seconds_per_unit.get(category, 0.0)

    def with_cost(self, category: str, seconds: float) -> "WorkModel":
        d = dict(self.seconds_per_unit)
        d[category] = seconds
        return replace(self, seconds_per_unit=d)


class WorkMeter:
    """Accumulates work units per category and converts them to seconds.

    One meter per execution context (the serial engine has one; every
    simulated rank has its own).  ``charge`` is called from the innermost
    loops, so it is deliberately minimal.
    """

    __slots__ = ("model", "units")

    def __init__(self, model: WorkModel | None = None):
        self.model = model or WorkModel()
        self.units: dict[str, float] = {}

    def charge(self, category: str, units: float = 1.0) -> None:
        """Add ``units`` of work in ``category``."""
        self.units[category] = self.units.get(category, 0.0) + units

    def seconds(self) -> float:
        """Total model-seconds across all categories."""
        return sum(u * self.model.cost(c) for c, u in self.units.items())

    def seconds_by_category(self) -> dict[str, float]:
        """Model-seconds per category."""
        return {c: u * self.model.cost(c) for c, u in self.units.items()}

    def shares(self) -> dict[str, float]:
        """Fraction of total model-seconds per category (Section 4 view)."""
        by_cat = self.seconds_by_category()
        total = sum(by_cat.values())
        if total <= 0.0:
            return {}
        return {c: v / total for c, v in by_cat.items()}

    def reset(self) -> None:
        self.units.clear()

    def snapshot(self) -> dict[str, float]:
        """Copy of the raw unit counts."""
        return dict(self.units)

    def merge(self, other: "WorkMeter") -> None:
        """Fold another meter's counts into this one."""
        for c, u in other.units.items():
            self.units[c] = self.units.get(c, 0.0) + u

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkMeter(seconds={self.seconds():.3f}, units={self.units})"
