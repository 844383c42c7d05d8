"""The serial SimE loop (paper Figure 1) with statistics and best tracking.

The serial run and the ESP baseline drive this loop through
:meth:`SimulatedEvolution.run`; Type III searchers call
:meth:`SimulatedEvolution.step` themselves and wrap their exchange
protocol around it.  The other strategies share the operators rather
than the loop:

* Type I keeps the serial operators at the master and only distributes
  Evaluation;
* Type II slaves run their own loop (``parallel/type2.py::_spmd``) over
  the same goodness, selection and :class:`~repro.sime.allocation.Allocator`
  code, restricted to their row partition —

so "parallel vs serial" comparisons compare parallelization, not two
different placers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cost.engine import CostEngine
from repro.layout.placement import Placement
from repro.sime.allocation import Allocator
from repro.sime.config import SimEConfig
from repro.sime.goodness import evaluate_goodness
from repro.sime.selection import select_cells
from repro.utils.rng import RngStream

__all__ = ["SimulatedEvolution", "SimEResult", "IterationRecord"]


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration statistics."""

    iteration: int
    mu: float
    costs: dict[str, float]
    mean_goodness: float
    num_selected: int
    model_seconds: float


@dataclass
class SimEResult:
    """Outcome of a SimE run."""

    best_rows: list[list[int]]
    best_mu: float
    best_costs: dict[str, float]
    iterations: int
    history: list[IterationRecord] = field(default_factory=list)
    model_seconds: float = 0.0
    work_units: dict[str, float] = field(default_factory=dict)

    def best_placement(self, grid) -> Placement:
        """Materialize the best solution as a Placement on ``grid``."""
        return Placement.from_rows(grid, self.best_rows)


class SimulatedEvolution:
    """Serial SimE driver bound to one cost engine.

    Parameters
    ----------
    engine:
        Cost engine (objectives/aggregation already configured).
    config:
        Operator and loop parameters.
    rng:
        The run's random stream (selection is the only consumer, matching
        the paper's "same starting solution but different randomization
        seeds" protocol).
    """

    def __init__(self, engine: CostEngine, config: SimEConfig, rng: RngStream):
        self.engine = engine
        self.config = config
        self.rng = rng
        self.allocator = Allocator(engine, config, rng)
        self.best_rows: list[list[int]] | None = None
        self.best_mu: float = -1.0
        self.best_costs: dict[str, float] = {}
        self.history: list[IterationRecord] = []
        self._iteration = 0
        self._stall = 0

    # ------------------------------------------------------------------
    def step(self) -> IterationRecord:
        """One Evaluation → Selection → Allocation iteration.

        The per-iteration refresh follows ``config.refresh_policy``: the
        default trusts the engine's exact incremental caches and only
        re-derives the solution totals — bit-identical to the ``"full"``
        re-sweep, at none of its per-pin cost.  ``config.verify_every``
        periodically re-asserts that invariant from scratch.
        """
        engine = self.engine
        cfg = self.config
        if cfg.refresh_policy == "full":
            engine.full_refresh()
        else:
            engine.refresh_totals()
        goodness = evaluate_goodness(engine)
        selected = select_cells(
            goodness,
            self.rng,
            bias=cfg.bias,
            adaptive=cfg.adaptive_bias,
            meter=engine.meter,
        )
        self.allocator.allocate(selected, goodness)
        if cfg.verify_every and (self._iteration + 1) % cfg.verify_every == 0:
            engine.assert_consistent()

        mu = engine.mu()
        costs = engine.costs()
        record = IterationRecord(
            iteration=self._iteration,
            mu=mu,
            costs=costs,
            mean_goodness=(
                sum(goodness.values()) / len(goodness) if goodness else 0.0
            ),
            num_selected=len(selected),
            model_seconds=engine.meter.seconds(),
        )
        self.history.append(record)
        self._iteration += 1
        if mu > self.best_mu:
            self.best_mu = mu
            self.best_rows = engine.placement.to_rows()
            self.best_costs = dict(costs)
            self._stall = 0
        else:
            self._stall += 1
        return record

    @property
    def stalled(self) -> bool:
        """Whether the stall-limit stopping condition has triggered."""
        limit = self.config.stall_limit
        return limit is not None and self._stall >= limit

    # ------------------------------------------------------------------
    def run(self, placement: Placement, iterations: int | None = None) -> SimEResult:
        """Attach ``placement`` and iterate to the budget (or stall limit)."""
        engine = self.engine
        engine.attach(placement)
        self.best_mu = engine.mu()
        self.best_rows = placement.to_rows()
        self.best_costs = engine.costs()
        budget = iterations if iterations is not None else self.config.max_iterations
        for _ in range(budget):
            self.step()
            if self.stalled:
                break
        return self.result()

    def result(self) -> SimEResult:
        """Package the current best solution and statistics."""
        return SimEResult(
            best_rows=[list(r) for r in (self.best_rows or [])],
            best_mu=self.best_mu,
            best_costs=dict(self.best_costs),
            iterations=self._iteration,
            history=list(self.history),
            model_seconds=self.engine.meter.seconds(),
            work_units=self.engine.meter.snapshot(),
        )
