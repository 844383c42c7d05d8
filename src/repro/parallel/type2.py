"""Type II parallel SimE: row-wise domain decomposition.

Paper Section 6.2 (Figures 4 and 5): the solution is partitioned row-wise;
every rank runs the *complete* SimE iteration — Evaluation, Selection,
Allocation — on its own row subset, with Allocation confined to its rows so
concurrent relocations never overlap.  After each iteration the master
receives the partial placements, merges them into a new complete solution,
draws a new row allocation and redistributes.  Unlike Type I, the search
trajectory *differs* from the serial algorithm: "each processor only has a
limited freedom of cell movement", and cells outside a rank's partition
are treated as fixed, which is why the paper gives the parallel runs a
larger iteration budget and why quality can fall short of the serial best.

Row patterns (:mod:`repro.parallel.partition`): the fixed alternating
pattern of Kling & Banerjee and the random pattern of [7] — Tables 2 and 3
compare them.

Cost accounting: "No division of wirelength and delay cost calculations
was done because of little potential gain" — every rank performs the full
evaluation sweep on the received solution (duplicated across ranks, as in
the paper), then evaluates goodness only for the cells in its rows.
"""

from __future__ import annotations

from repro.cost.workmeter import WorkModel
from repro.layout.placement import Placement
from repro.parallel.faults import FaultPlan
from repro.parallel.mpi.comm import Communicator
from repro.parallel.mpi.netmodel import NetworkModel
from repro.parallel.partition import check_pattern, pattern_by_name
from repro.parallel.runners import (
    ExperimentSpec,
    ParallelOutcome,
    PATTERN_STREAM,
    build_problem,
    make_config,
    rank_stream_id,
    run_cluster,
    stream_for,
)
from repro.sime.allocation import Allocator
from repro.sime.selection import select_cells

__all__ = ["run_type2", "parallel_iterations", "MIN_P"]

#: Fewest ranks Type II runs on: the merging master plus one slave.
MIN_P = 2


def parallel_iterations(
    serial_iterations: int,
    p: int,
    base_factor: float = 8.0 / 7.0,
    per_proc_frac: float = 1.0 / 7.0,
) -> int:
    """The paper's parallel iteration budget, rescaled to any serial budget.

    Table 2 protocol: serial 3500; "parallel runs were done starting at
    4000 iterations and 500 additional iterations added with every
    additional processor" → base factor 8/7, per-processor fraction 1/7.
    Table 3 protocol: serial 5000, parallel 6000 + 1000/extra processor →
    base factor 6/5, fraction 1/5.

        iters(p) = serial · base_factor + per_proc_frac · serial · (p − 2)
    """
    base = serial_iterations * base_factor
    return int(round(base + per_proc_frac * serial_iterations * max(0, p - 2)))


def _spmd(
    comm: Communicator,
    spec: ExperimentSpec,
    iterations: int,
    pattern: str,
    shared: dict | None = None,
) -> dict | None:
    problem = build_problem(spec, meter=comm.meter)
    engine = problem.engine
    grid = problem.grid
    rng = stream_for(spec.seed, rank_stream_id(comm.rank), "t2-sel")
    allocator = Allocator(engine, make_config(spec), rng)

    if comm.rank == 0:
        pattern_rng = stream_for(spec.seed, PATTERN_STREAM, "t2-pattern")
        placement = problem.initial_placement()
        best_mu = -1.0
        best_rows: list[list[int]] | None = None
        best_costs: dict[str, float] = {}
        history: list[tuple[int, float, float]] = []
    else:
        placement = None

    for it in range(iterations):
        if comm.rank == 0:
            # Publish the outgoing solution's evaluation caches out-of-band
            # for the (memory-sharing) simulated ranks: every rank still
            # *charges* its own full evaluation after the broadcast — the
            # paper's "no division of cost calculations" is preserved in
            # the work model and the virtual clocks — but only one rank
            # pays the wall-clock for it.  Publishing itself charges
            # nothing and the broadcast payload is unchanged, so the
            # modelled communication and every clock are identical.
            # (At it == 0 the caches do not exist yet; every rank
            # evaluates the initial solution itself.)
            if shared is not None and it > 0:
                # A placement snapshot rides along so slaves can copy it
                # instead of re-packing the broadcast rows — the packed
                # coordinates are a deterministic function of the rows, so
                # the copy is bit-identical to a rebuild.  It must be a
                # *copy*: the master keeps mutating its own placement
                # after the broadcast.
                shared["state"] = (engine.share_state(), placement.copy())
            rows_pattern = pattern_by_name(
                pattern, grid.num_rows, comm.size, it, pattern_rng
            )
            payload = (placement.to_rows(), rows_pattern)
        else:
            payload = None
        rows, rows_pattern = comm.bcast(payload, root=0)

        # Every rank evaluates the received solution in the model; the
        # rows came from the master's validated placement, so the
        # invariant scan is skipped on the rebuild.
        if it == 0 or shared is None:
            placement = Placement.from_rows(grid, rows, check=False)
            engine.attach(placement)
        elif comm.rank == 0:
            # The master's caches already hold the (merged) solution it
            # just broadcast, totals included — charge the evaluation the
            # model performs, compute nothing.
            engine.charge_refresh()
        else:
            state, master_placement = shared["state"]
            placement = master_placement.copy()
            engine.attach_shared(placement, state)

        my_rows = rows_pattern[comm.rank]
        my_cells = [c for r in my_rows for c in placement.rows[r]]
        goodness = {c: engine.cell_goodness(c) for c in my_cells}
        selected = select_cells(
            goodness, rng, bias=spec.bias, adaptive=spec.adaptive_bias,
            meter=engine.meter,
        )
        allocator.allocate(selected, goodness, allowed_rows=my_rows)

        gathered = comm.gather({r: placement.rows[r] for r in my_rows}, root=0)

        if comm.rank == 0:
            merged: dict[int, list[int]] = {}
            for part in gathered:
                merged.update(part)
            engine.meter.charge("merge", float(grid.netlist.num_movable))
            # Row patterns partition the rows, so disjoint per-rank row
            # sets merge into a valid placement by construction.
            placement = Placement.from_rows(
                grid, [merged[r] for r in range(grid.num_rows)], check=False
            )
            engine.attach(placement)
            mu = engine.mu()
            if mu > best_mu:
                best_mu = mu
                best_rows = placement.to_rows()
                best_costs = engine.costs()
            history.append((it, mu, comm.elapsed()))

    if comm.rank == 0:
        return {
            "best_mu": best_mu,
            "best_rows": best_rows,
            "best_costs": best_costs,
            "history": history,
        }
    return None


def run_type2(
    spec: ExperimentSpec,
    p: int,
    pattern: str = "fixed",
    network: NetworkModel | None = None,
    work_model: WorkModel | None = None,
    iterations: int | None = None,
    base_factor: float = 8.0 / 7.0,
    per_proc_frac: float = 1.0 / 7.0,
    cluster: str = "sim",
    deadline: float | None = None,
    faults: str | FaultPlan | None = None,
    trace_dir: str | None = None,
) -> ParallelOutcome:
    """Run Type II parallel SimE on a ``p``-rank cluster backend.

    ``pattern`` is ``"fixed"`` or ``"random"`` (Tables 2/3) or
    ``"contiguous"`` (mobility ablation); an unknown one raises before
    any rank starts.  ``iterations`` overrides the paper-scaled budget
    from :func:`parallel_iterations`.  The backend arguments go to
    :func:`~repro.parallel.runners.run_cluster`.  Off ``"sim"`` the
    simulated ranks' shared-memory evaluation adoption does not apply —
    each process evaluates the broadcast solution itself, as the paper's
    real cluster did.  All Type II traffic is rank-addressed, so
    solutions and meters are bit-identical run-to-run on every backend
    at any ``p`` — the socket backend's p ∈ {16, 32, 64} speedup ladder
    relies on this.
    """
    if p < MIN_P:
        raise ValueError("Type II needs at least 2 ranks")
    check_pattern(pattern)
    iters = (
        iterations
        if iterations is not None
        else parallel_iterations(spec.iterations, p, base_factor, per_proc_frac)
    )
    # Out-of-band cache sharing needs a shared address space.
    shared = {} if cluster == "sim" else None
    res, real = run_cluster(
        _spmd, spec, p,
        {"iterations": iters, "pattern": pattern, "shared": shared},
        cluster=cluster, network=network, work_model=work_model,
        deadline=deadline, faults=faults, trace_dir=trace_dir,
    )
    master = res.results[0]
    return ParallelOutcome.for_spec(
        f"type2-{pattern}", spec, p, iters, res.makespan, master,
        {"best_rows": master["best_rows"], "pattern": pattern,
         "rank_clocks": res.clocks, **real},
    )
