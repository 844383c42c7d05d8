"""Type I parallel SimE: low-level distribution of evaluation.

Paper Section 6.1 (Figures 2 and 3): the master broadcasts the current
placement every iteration; all processors — master included — compute the
partial costs and goodness values of *their* cell partition; the master
gathers the goodness values and runs Selection and Allocation serially.
The search trajectory is **identical to the serial algorithm** (Type I by
definition does not change the traversal path) — our implementation
reproduces the serial run bit-for-bit because the master draws from the
same selection stream the serial baseline uses.

Why it loses (and the model shows it):

* goodness of a cell needs the lengths of every net incident to it, so a
  rank evaluates the *union* of nets touching its cells — across ranks
  these unions overlap heavily ("duplicate calculations"), eating the
  distribution gain;
* evaluation is only ~1–2 % of the serial runtime (Section 4) while
  Allocation, ~98 %, stays serial at the master — Amdahl gives ≤ 2 % even
  with perfect distribution;
* the per-iteration broadcast + gather adds a constant communication toll.

As in the paper, Type I is implemented for the wirelength+power objective
pair (delay goodness partitioning "has complex communication requirements"
— Section 6.1 — and was not implemented there either).

Exact cost accounting at the master: per-net partial sums are computed
over a *disjoint* net ownership (a net belongs to the rank owning its
driver, or its first movable sink for pad-driven nets), so the gathered
wirelength/power totals are exact and µ(s) matches the serial run's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cost.engine import CostEngine
from repro.cost.workmeter import WorkModel
from repro.layout.placement import Placement
from repro.parallel.faults import FaultPlan
from repro.parallel.mpi.comm import Communicator
from repro.parallel.mpi.netmodel import NetworkModel
from repro.parallel.runners import (
    ExperimentSpec,
    ParallelOutcome,
    SERIAL_STREAM,
    build_problem,
    make_config,
    run_cluster,
    stream_for,
)
from repro.sime.allocation import Allocator
from repro.sime.selection import select_cells

__all__ = ["run_type1", "partition_cells", "assign_net_owners", "MIN_P"]

#: Fewest ranks Type I runs on: the master plus one slave.
MIN_P = 2


def partition_cells(netlist, size: int) -> list[list[int]]:
    """Contiguous equal-count partition of movable cells among ranks."""
    movable = [c.index for c in netlist.movable_cells()]
    base, extra = divmod(len(movable), size)
    parts: list[list[int]] = []
    start = 0
    for r in range(size):
        count = base + (1 if r < extra else 0)
        parts.append(movable[start : start + count])
        start += count
    return parts


def assign_net_owners(netlist, parts: list[list[int]]) -> list[list[int]]:
    """Disjoint net ownership for exact partial cost sums.

    A net is owned by the rank of its driver; pad-driven nets go to the
    rank of their first movable sink.  Ownership ⊆ each rank's evaluated
    net union, so partial sums need no extra evaluations.
    """
    owner_of_cell: dict[int, int] = {}
    for r, cells in enumerate(parts):
        for c in cells:
            owner_of_cell[c] = r
    owned: list[list[int]] = [[] for _ in parts]
    for net in netlist.nets:
        if net.driver in owner_of_cell:
            owned[owner_of_cell[net.driver]].append(net.index)
            continue
        for s in net.pins[1:]:
            if s in owner_of_cell:
                owned[owner_of_cell[s]].append(net.index)
                break
        else:  # pragma: no cover - a net with only pads is structurally
            raise AssertionError("net with no movable pin")  # impossible
    return owned


def _partial_evaluate(
    engine: CostEngine,
    my_cells: list[int],
    union_nets: list[int],
    owned_nets: list[int],
) -> tuple[dict[int, float], float, float]:
    """One rank's Evaluation step: net lengths, partial sums, goodness.

    Evaluates the union of nets incident to the rank's cells (this is
    where cross-rank duplicate work arises), sums costs over the disjointly
    owned nets, then computes goodness for the rank's cells.
    """
    p = engine.placement
    ev = engine.evaluator
    lengths = engine.net_lengths
    x, y = p.x, p.y
    units = 0.0
    for j in union_nets:
        lengths[j] = ev.eval_net_branch(j, x, y)[0]
        units += engine._degrees[j]
    engine.meter.charge("wirelength", units)
    act = engine._act
    wl = 0.0
    pw = 0.0
    for j in owned_nets:
        wl += lengths[j]
        pw += act[j] * lengths[j]
    engine.meter.charge("power", float(len(owned_nets)))
    goodness = {c: engine.cell_goodness(c) for c in my_cells}
    return goodness, wl, pw


def _spmd(comm: Communicator, spec: ExperimentSpec, iterations: int) -> dict | None:
    problem = build_problem(spec, meter=comm.meter)
    engine = problem.engine
    netlist = problem.netlist
    parts = partition_cells(netlist, comm.size)
    owned = assign_net_owners(netlist, parts)
    my_cells = parts[comm.rank]
    union_nets = sorted({j for c in my_cells for j in engine._cell_nets[c]})

    placement = problem.initial_placement()
    engine.placement = placement
    engine.net_lengths = [0.0] * netlist.num_nets

    if comm.rank == 0:
        rng = stream_for(spec.seed, SERIAL_STREAM, "t1-master-sel")
        allocator = Allocator(engine, make_config(spec), rng)
        best_mu = -1.0
        best_rows: list[list[int]] | None = None
        best_costs: dict[str, float] = {}
        history: list[tuple[int, float, float]] = []
        # One extra evaluation-only round scores the final allocation's
        # solution (the serial loop evaluates after every allocation).
        for it in range(iterations + 1):
            comm.bcast(placement.to_rows(), root=0)
            mine = _partial_evaluate(engine, my_cells, union_nets, owned[0])
            gathered = comm.gather(mine, root=0)
            goodness: dict[int, float] = {}
            wl_total = 0.0
            pw_total = 0.0
            for g, wl, pw in gathered:
                goodness.update(g)
                wl_total += wl
                pw_total += pw
            # Iterate in cell-index order: the serial evaluation order, so
            # the master's selection stream replays the serial trajectory.
            goodness = {c: goodness[c] for c in sorted(goodness)}
            engine.wirelength_total = wl_total
            engine.power_total = pw_total
            mu = engine.mu()
            if mu > best_mu:
                best_mu = mu
                best_rows = placement.to_rows()
                best_costs = engine.costs()
            history.append((it, mu, comm.elapsed()))
            if it == iterations:
                break
            selected = select_cells(goodness, rng, bias=spec.bias,
                                    adaptive=spec.adaptive_bias, meter=engine.meter)
            allocator.allocate(selected, goodness)
        return {
            "best_mu": best_mu,
            "best_rows": best_rows,
            "best_costs": best_costs,
            "history": history,
        }

    # ---- slave ----------------------------------------------------------
    for _it in range(iterations + 1):
        rows = comm.bcast(None, root=0)
        # Broadcast rows mirror the master's validated placement.
        placement = Placement.from_rows(problem.grid, rows, check=False)
        engine.placement = placement
        mine = _partial_evaluate(engine, my_cells, union_nets, owned[comm.rank])
        comm.gather(mine, root=0)
    return None


def run_type1(
    spec: ExperimentSpec,
    p: int,
    network: NetworkModel | None = None,
    work_model: WorkModel | None = None,
    iterations: int | None = None,
    cluster: str = "sim",
    deadline: float | None = None,
    faults: str | FaultPlan | None = None,
    trace_dir: str | None = None,
) -> ParallelOutcome:
    """Run Type I parallel SimE on a ``p``-rank cluster backend.

    ``iterations`` defaults to the spec's serial budget — Type I replays
    the serial search, so the paper compares equal-iteration runs.  The
    backend arguments go to :func:`~repro.parallel.runners.run_cluster`.
    """
    if p < MIN_P:
        raise ValueError("Type I needs at least 2 ranks (master + 1 slave)")
    iters = iterations if iterations is not None else spec.iterations
    res, real = run_cluster(
        _spmd, spec, p, {"iterations": iters}, cluster=cluster,
        network=network, work_model=work_model, deadline=deadline,
        faults=faults, trace_dir=trace_dir,
    )
    master = res.results[0]
    return ParallelOutcome.for_spec(
        "type1", spec, p, iters, res.makespan, master,
        {"best_rows": master["best_rows"], "rank_clocks": res.clocks, **real},
    )
