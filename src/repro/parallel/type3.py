"""Type III parallel SimE: cooperating parallel searches.

Paper Section 6.3 (Figure 6), modelled on asynchronous multiple-Markov-
chain parallel SA (Chandy et al. [1]):

* rank 0 is a **central store** ("one processor is required as a central
  store", which is why the paper's Table 4 starts at p = 3);
* every other rank runs the full serial SimE loop from the *same starting
  solution* with a *different randomization seed*;
* whenever a slave improves its best solution it reports it to the store
  ("each processor always communicates the best solution found recently to
  the master");
* a slave counts consecutive non-improving iterations; past the **retry
  threshold** it asks the store for a better solution — the store "either
  provides a better solution or accepts the solution of the requesting
  processor if it is better".

There is no workload division, so runtimes track the serial algorithm;
the paper's observation — and this implementation reproduces its mechanism
— is that identically-seeded-solution SimE threads explore overlapping
regions, so cooperation buys quality (especially at high retry thresholds)
but no speed.

This module is the one home of the store/searcher protocol.  The
Section 7 diversified variant (:mod:`repro.parallel.type3x`) runs the
same store, searcher loop and driver; only each searcher's allocation
profile and its adoption of a fetched solution differ.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.cost.workmeter import WorkModel
from repro.layout.placement import Placement
from repro.parallel.faults import FaultPlan, as_plan
from repro.parallel.mpi.comm import (
    ANY_SOURCE,
    ClusterRunResult,
    CommError,
    Communicator,
)
from repro.parallel.mpi.netmodel import NetworkModel
from repro.parallel.runners import (
    ExperimentSpec,
    ParallelOutcome,
    build_problem,
    make_config,
    rank_stream_id,
    run_cluster,
    stream_for,
)
from repro.sime.engine import SimulatedEvolution

__all__ = ["run_type3", "MIN_P"]

#: Fewest ranks the Type III family runs on: the store plus two searchers.
MIN_P = 3

_REPORT = "report"
_REQUEST = "request"
_DONE = "done"

#: The single tag of the store<->searcher channel.  The value is the
#: protocol default (so the wire behavior is unchanged), but every call
#: names it explicitly: the store's ANY_SOURCE funnel is then a
#: single-tag channel the protocol rules of `repro lint` can
#: certify, and lint rule C205 holds by construction.
_TAG_STORE = 0


def _master(comm: Communicator, on_rank_failure: str = "abort") -> dict:
    """Central best-solution store (rank 0).

    Under ``on_rank_failure="degrade"`` the store survives searcher
    loss: a reply to a requester that died in flight is dropped, and
    when the receive loop can provably never complete (every remaining
    searcher is gone and nothing matching is stashed — the backend
    broadcast their departures) the store closes out with whatever the
    survivors contributed, reporting the missing ranks as
    ``lost_ranks``.  The cooperating searches are independent
    explorations sharing one store, so "rebalancing" a dead searcher's
    region means exactly this: the store stops waiting for it and the
    survivors' own budgets keep covering the space.  Under the default
    abort policy any loss propagates as :class:`CommError`, unchanged.
    """
    degrade = on_rank_failure == "degrade"
    best_mu = -1.0
    best_rows: list[list[int]] | None = None
    done_ranks: set[int] = set()
    lost_ranks: list[int] = []
    exchanges = 0
    adoptions = 0

    def reply(dest: int, obj) -> None:
        try:
            comm.send(obj, dest, tag=_TAG_STORE)
        except CommError:
            if not degrade:
                raise
            # The requester died between asking and our answer.

    while len(done_ranks) < comm.size - 1:
        try:
            # The store funnel is inherently arrival-order dependent: the
            # asynchronous cooperative search is the paper's Type III
            # semantics, so the ANY_SOURCE race flagged by the dynamic
            # sanitizer is accepted here (and determinized by virtual
            # time on the simulated backend).
            src, msg = comm.recv(source=ANY_SOURCE, tag=_TAG_STORE)  # repro: noqa[P505] -- Type III is an asynchronous cooperative search: store arrival order is the algorithm; sim delivery determinizes it
        except CommError:
            if not degrade:
                raise
            # recv can only fail here with every remaining peer gone:
            # whoever never sent DONE is lost.
            lost_ranks = sorted(set(range(1, comm.size)) - done_ranks)
            break
        kind = msg[0]
        if kind == _REPORT:
            _, mu, rows = msg
            if mu > best_mu:
                best_mu = mu
                best_rows = rows
        elif kind == _REQUEST:
            _, mu, rows = msg
            exchanges += 1
            if mu > best_mu:
                # Accept the requester's solution; nothing better to offer.
                best_mu = mu
                best_rows = rows
                reply(src, None)
            elif best_mu > mu:
                adoptions += 1
                reply(src, (best_mu, best_rows))
            else:
                reply(src, None)
        elif kind == _DONE:
            done_ranks.add(src)
        else:  # pragma: no cover - protocol is closed
            raise RuntimeError(f"unknown message kind {kind!r}")
    return {
        "best_mu": best_mu,
        "best_rows": best_rows,
        "exchanges": exchanges,
        "adoptions": adoptions,
        "lost_ranks": lost_ranks,
    }


def _searcher(
    comm: Communicator,
    spec: ExperimentSpec,
    iterations: int,
    retry_threshold: int,
    variant: str = "plain",
) -> dict:
    """One searching rank: the serial SimE loop plus the store protocol.

    ``variant`` is ``"plain"`` (Type III) or the Section 7 ``"diverse"``
    or ``"crossover"`` searcher.  It picks the RNG stream, the config,
    the adoption of a fetched solution and the history timestamps.
    """
    plain = variant == "plain"
    problem = build_problem(spec, meter=comm.meter)
    engine = problem.engine
    if plain:
        rng = stream_for(spec.seed, rank_stream_id(comm.rank), "t3-sel")
        config = make_config(spec, iterations)
    else:
        from repro.parallel.type3x import allocator_profile, goodness_crossover

        rng = stream_for(spec.seed, rank_stream_id(comm.rank), "t3x-sel")
        config = allocator_profile(spec, comm.rank - 1, iterations)
    sime = SimulatedEvolution(engine, config, rng)

    placement = problem.initial_placement()
    engine.attach(placement)
    sime.best_mu = engine.mu()
    sime.best_rows = placement.to_rows()
    sime.best_costs = engine.costs()

    count = 0
    last_best = sime.best_mu
    crossovers = 0
    history: list[tuple[int, float, float]] = []
    for it in range(iterations):
        rec = sime.step()
        comm.progress()
        history.append((it, rec.mu, comm.elapsed() if plain else 0.0))
        if sime.best_mu > last_best:
            comm.send((_REPORT, sime.best_mu, sime.best_rows), 0,
                      tag=_TAG_STORE)
            last_best = sime.best_mu
            count = 0
        else:
            count += 1
        if count > retry_threshold:
            comm.send((_REQUEST, sime.best_mu, sime.best_rows), 0,
                      tag=_TAG_STORE)
            _src, reply = comm.recv(source=0, tag=_TAG_STORE)
            if reply is not None and plain:
                # Adopt the store's solution only if it is better.
                mu, rows = reply
                if mu > sime.best_mu:
                    placement = Placement.from_rows(problem.grid, rows)
                    engine.attach(placement)
                    sime.best_mu = engine.mu()
                    sime.best_rows = placement.to_rows()
                    sime.best_costs = engine.costs()
                    last_best = sime.best_mu
            elif reply is not None:
                # Continue from the store's solution, or from its
                # goodness crossover with ours.
                their_mu, their_rows = reply
                if variant == "crossover":
                    child_rows = goodness_crossover(
                        problem.grid, engine, sime.best_rows, their_rows, rng
                    )
                    crossovers += 1
                else:
                    child_rows = their_rows
                placement = Placement.from_rows(problem.grid, child_rows)
                engine.attach(placement)
                mu = engine.mu()
                if mu > sime.best_mu:
                    sime.best_mu = mu
                    sime.best_rows = placement.to_rows()
                    sime.best_costs = engine.costs()
                last_best = sime.best_mu
            count = 0
    comm.send((_DONE,), 0, tag=_TAG_STORE)
    result = sime.result()
    return {
        "best_mu": result.best_mu,
        "best_costs": result.best_costs,
        "history": history,
        "elapsed": comm.elapsed(),
        "crossovers": crossovers,
    }


def _spmd(
    comm: Communicator,
    spec: ExperimentSpec,
    iterations: int,
    retry_threshold: int,
    variant: str = "plain",
    on_rank_failure: str = "abort",
) -> dict:
    if comm.rank == 0:
        return _master(comm, on_rank_failure)
    return _searcher(comm, spec, iterations, retry_threshold, variant)


def _run_store(
    strategy: str,
    variant: str,
    own_extras: Callable[[dict, list[dict], ClusterRunResult], dict[str, Any]],
    spec: ExperimentSpec,
    p: int,
    retry_threshold: int,
    network: NetworkModel | None,
    work_model: WorkModel | None,
    iterations: int | None,
    cluster: str,
    deadline: float | None,
    faults: str | FaultPlan | None,
    on_rank_failure: str,
    trace_dir: str | None,
) -> ParallelOutcome:
    """Run the store and ``p - 1`` searchers of ``variant`` to completion.

    Losing the store aborts; a searcher lost under
    ``on_rank_failure="degrade"`` is dropped and recorded under
    ``extras["degraded"]``.  ``own_extras(master, searchers, res)`` adds
    the strategy's own extras.
    """
    if p < MIN_P:
        raise ValueError("Type III needs at least 3 ranks (store + 2 searchers)")
    if retry_threshold < 1:
        raise ValueError("retry_threshold must be >= 1")
    iters = iterations if iterations is not None else spec.iterations
    plan = as_plan(faults, spec.seed)
    res, real = run_cluster(
        _spmd, spec, p,
        {"iterations": iters, "retry_threshold": retry_threshold,
         "variant": variant, "on_rank_failure": on_rank_failure},
        cluster=cluster, network=network, work_model=work_model,
        deadline=deadline, faults=plan, on_rank_failure=on_rank_failure,
        trace_dir=trace_dir,
    )
    if 0 in res.lost:
        raise CommError(
            "Type III central store (rank 0) was lost; a degraded run "
            f"cannot continue without it ({res.lost[0]})"
        )
    master = res.results[0]
    lost_ranks = sorted(set(master["lost_ranks"]) | set(res.lost))
    searchers = [res.results[r] for r in range(1, p) if r not in lost_ranks]
    if not searchers:
        raise CommError(
            f"all searching ranks were lost: {res.lost or lost_ranks}"
        )
    best = max(searchers, key=lambda s: s["best_mu"])
    extras = {
        "retry_threshold": retry_threshold,
        **own_extras(master, searchers, res),
        "slave_mus": [s["best_mu"] for s in searchers],
        **real,
    }
    if plan is not None:
        extras["faults"] = plan.spec()
    if on_rank_failure != "abort":
        extras["on_rank_failure"] = on_rank_failure
    if lost_ranks:
        extras["degraded"] = {
            "lost_ranks": lost_ranks,
            "p_effective": p - len(lost_ranks),
            "reasons": {
                str(r): res.lost.get(r, "no DONE received")
                for r in lost_ranks
            },
        }
    # The runtime is the searchers' makespan (the store idles by design).
    return ParallelOutcome.for_spec(
        strategy, spec, p, iters, max(s["elapsed"] for s in searchers),
        {**best, "best_mu": max(master["best_mu"], best["best_mu"])}, extras,
    )


def run_type3(
    spec: ExperimentSpec,
    p: int,
    retry_threshold: int,
    network: NetworkModel | None = None,
    work_model: WorkModel | None = None,
    iterations: int | None = None,
    cluster: str = "sim",
    deadline: float | None = None,
    faults: str | FaultPlan | None = None,
    on_rank_failure: str = "abort",
    trace_dir: str | None = None,
) -> ParallelOutcome:
    """Run Type III parallel SimE on a ``p``-rank cluster backend.

    ``p`` counts the central store: Table 4's "p = 3" is one store plus
    two searching slaves.  Serial and parallel runs use the same iteration
    budget per processor (paper: "Both the serial and parallel algorithms
    were run for 2500 iterations at each processor").  The backend
    arguments go to :func:`~repro.parallel.runners.run_cluster`.  On
    ``"socket"`` message arrival order (and hence the cooperative search
    result) varies run to run, exactly as it did on the paper's cluster;
    ``"sim"`` stays deterministic.  ``on_rank_failure="degrade"`` lets
    the run survive mid-run searcher loss on the real backend: the store
    and the backend stop waiting for the dead rank, the outcome is built
    from the survivors, and ``extras["degraded"]`` records what was lost
    (losing the store itself still aborts).  The default ``"abort"``
    matches the historical fail-fast behavior exactly.
    """
    return _run_store(
        "type3", "plain",
        lambda master, searchers, res: {
            "exchanges": master["exchanges"],
            "adoptions": master["adoptions"],
            "rank_clocks": res.clocks,
        },
        spec, p, retry_threshold, network=network, work_model=work_model,
        iterations=iterations, cluster=cluster, deadline=deadline,
        faults=faults, on_rank_failure=on_rank_failure, trace_dir=trace_dir,
    )
