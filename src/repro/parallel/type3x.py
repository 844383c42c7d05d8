"""Diversified Type III — the paper's Section 7 proposals, implemented.

The paper closes by observing that plain Type III fails because SimE
threads seeded with the same solution "are not diversified enough", and
proposes two remedies:

1. "Use of a different allocation function at each thread ... whereby the
   searches are directed in different directions" — implemented here by
   giving each searching rank a distinct allocation profile (different
   probe windows and allocation-order direction);
2. "solutions from independent, parallel threads may be combined
   intelligently using crossover operators that take advantage of SimE
   goodness measure" — implemented as a goodness-aware row crossover: when
   a stagnating slave fetches the store's best solution, instead of
   wholesale adoption it builds a child that keeps, per row, the parent
   ordering from whichever parent scores that row's cells better, then
   repairs duplicates/omissions into the lightest rows.

Everything else — the central store, the searcher loop, the SPMD entry
and the driver — is plain Type III's (:mod:`repro.parallel.type3`): this
module adds only the profile, the crossover and the runner.

The experiment (bench A5) asks whether these two mechanisms buy quality
over plain Type III at equal iteration budgets — the paper's conjecture,
here made testable.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cost.engine import CostEngine
from repro.cost.workmeter import WorkModel
from repro.layout.grid import RowGrid
from repro.parallel.faults import FaultPlan
from repro.parallel.mpi.netmodel import NetworkModel
from repro.parallel.runners import ExperimentSpec, ParallelOutcome, make_config
from repro.parallel.type3 import _run_store
from repro.sime.config import SimEConfig
from repro.utils.rng import RngStream

__all__ = ["run_type3_diversified", "goodness_crossover", "allocator_profile"]


def allocator_profile(spec: ExperimentSpec, slave_index: int, iterations: int) -> SimEConfig:
    """A distinct allocation profile per searching thread.

    Cycles through four profiles: (worst-first, tight window),
    (worst-first, wide window), (best-first, tight), (best-first, wide) —
    four genuinely different allocation behaviours, which is the
    diversification lever the paper suggests.
    """
    variant = slave_index % 4
    wide = variant in (1, 3)
    return replace(
        make_config(spec, iterations),
        row_window=spec.row_window + (1 if wide else 0),
        slot_window=spec.slot_window + (2 if wide else 0),
        sort_descending=variant >= 2,
    )


def goodness_crossover(
    grid: RowGrid,
    engine: CostEngine,
    mine_rows: list[list[int]],
    theirs_rows: list[list[int]],
    rng: RngStream,
) -> list[list[int]]:
    """Goodness-aware row crossover of two placements (see module doc).

    For each row index, score both parents' row contents by the mean
    cell goodness *in the currently attached placement* (the requester's
    frame of reference) and keep the better parent's ordering; repair so
    every movable cell appears exactly once.
    """
    if len(mine_rows) != grid.num_rows or len(theirs_rows) != grid.num_rows:
        raise ValueError("parents must have one list per grid row")

    def row_score(row: list[int]) -> float:
        if not row:
            return 0.0
        return sum(engine.cell_goodness(c) for c in row) / len(row)

    child: list[list[int]] = []
    assigned: set[int] = set()
    for r in range(grid.num_rows):
        a, b = mine_rows[r], theirs_rows[r]
        src = a if row_score(a) >= row_score(b) else b
        row = [c for c in src if c not in assigned]
        assigned.update(row)
        child.append(row)
    # Repair: place leftover cells into the lightest rows.
    missing = [
        c.index for c in grid.netlist.movable_cells() if c.index not in assigned
    ]
    rng.shuffle(missing)
    widths = [
        sum(grid.netlist.cells[c].width_sites for c in row) for row in child
    ]
    for c in missing:
        r = min(range(grid.num_rows), key=lambda i: widths[i])
        child[r].append(c)
        widths[r] += grid.netlist.cells[c].width_sites
    return child


def run_type3_diversified(
    spec: ExperimentSpec,
    p: int,
    retry_threshold: int,
    crossover: bool = True,
    network: NetworkModel | None = None,
    work_model: WorkModel | None = None,
    iterations: int | None = None,
    cluster: str = "sim",
    deadline: float | None = None,
    faults: str | FaultPlan | None = None,
    on_rank_failure: str = "abort",
    trace_dir: str | None = None,
) -> ParallelOutcome:
    """Run the diversified Type III variant (Section 7 future work).

    Every other argument behaves as in
    :func:`repro.parallel.type3.run_type3`.
    """
    return _run_store(
        "type3x" if crossover else "type3-diverse",
        "crossover" if crossover else "diverse",
        lambda master, searchers, res: {
            "crossover": crossover,
            "crossovers": sum(s["crossovers"] for s in searchers),
        },
        spec, p, retry_threshold, network=network, work_model=work_model,
        iterations=iterations, cluster=cluster, deadline=deadline,
        faults=faults, on_rank_failure=on_rank_failure, trace_dir=trace_dir,
    )
