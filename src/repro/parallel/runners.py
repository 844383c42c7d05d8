"""Shared experiment plumbing: specs, problem building, the cluster driver,
the serial baseline.

Every experiment in the paper is "one circuit, one objective set, one
iteration budget, one seed" — captured here as :class:`ExperimentSpec`.
The parallel strategy modules and the serial baseline all build their
problem instances through :func:`build_problem`, which guarantees that
serial and parallel runs of the same spec share the netlist stand-in, the
grid, the cost-model parameters **and the initial placement** (the paper
runs "the same starting solution but with different randomization seeds").

Every cluster run — each parallel strategy's, and the serial baseline's
on a real backend — goes through one driver, :func:`run_cluster`; the
strategy runners keep their own validation, SPMD body and outcome fields.

RNG discipline
--------------
All randomness derives from ``spec.seed`` through named child streams:

* child 0 — initial placement;
* child 1 — serial selection (also the Type I master, which is why Type I
  reproduces the serial trajectory exactly);
* child 2 — the Type II row-pattern stream;
* child 3+k — rank ``k``'s selection stream in Type II / Type III.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable

import numpy as np

from repro.cost.engine import CostEngine
from repro.cost.fuzzy import FuzzyAggregator, GoalVector
from repro.cost.workmeter import WorkMeter, WorkModel
from repro.layout.grid import RowGrid
from repro.layout.initial import random_placement
from repro.layout.placement import Placement
from repro.netlist.core import Netlist
from repro.netlist.suite import paper_circuit
from repro.parallel.faults import FaultPlan, as_plan
from repro.parallel.mpi.backend import make_cluster
from repro.parallel.mpi.calibration import calibrated_work_model
from repro.parallel.mpi.comm import ClusterRunResult
from repro.parallel.mpi.netmodel import NetworkModel
from repro.sime.config import SimEConfig
from repro.sime.engine import SimulatedEvolution
from repro.utils.rng import RngStream

__all__ = [
    "ExperimentSpec",
    "Problem",
    "ParallelOutcome",
    "build_problem",
    "make_config",
    "stream_for",
    "run_cluster",
    "run_serial",
    "serial_spmd",
    "INIT_STREAM",
    "SERIAL_STREAM",
    "PATTERN_STREAM",
    "rank_stream_id",
]

#: Named child-stream indices (see module docstring).
INIT_STREAM = 0
SERIAL_STREAM = 1
PATTERN_STREAM = 2


def rank_stream_id(rank: int) -> int:
    """Child-stream index for rank ``rank``'s selection RNG."""
    return 3 + rank


def stream_for(seed: int, child: int, name: str = "stream") -> RngStream:
    """Deterministic named child stream of the experiment seed."""
    seq = np.random.SeedSequence(seed)
    children = seq.spawn(child + 1)
    return RngStream(children[child], name=f"{name}[{child}]")


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment instance (circuit × objectives × budget × seed).

    ``iterations`` is the *serial* budget; parallel strategies derive their
    own budgets from it per the paper's protocol (see the strategy
    modules).  SimE operator knobs are embedded so serial and parallel runs
    cannot drift apart.
    """

    circuit: str
    objectives: tuple[str, ...] = ("wirelength", "power")
    iterations: int = 100
    seed: int = 1
    bias: float = 0.0
    adaptive_bias: bool = False
    row_window: int = 2
    slot_window: int = 2
    sort_descending: bool = False
    num_rows: int | None = None
    critical_paths: int = 64
    #: OWA and-ness β of the fuzzy aggregation (see :mod:`repro.cost.fuzzy`);
    #: the default matches the engine's historical ``FuzzyAggregator()``.
    beta: float = 0.7
    #: Goal multiples ``g_j`` per objective, ``(wirelength, power, delay)``
    #: order; the default matches the engine's historical ``GoalVector()``.
    goals: tuple[float, float, float] = (3.0, 3.0, 3.0)
    #: Allocation evaluation path (``"scalar"`` | ``"batch"`` | ``"check"``,
    #: see :class:`repro.sime.config.SimEConfig`); part of the spec because
    #: batch-mode trajectories may diverge within the ulp budget, so the
    #: mode is provenance a cached result must be keyed on.
    eval_mode: str = "scalar"

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (tuples become lists) for artifacts and dispatch."""
        d = asdict(self)
        d["objectives"] = list(self.objectives)
        d["goals"] = list(self.goals)
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict`; ignores unknown keys."""
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in d.items() if k in known}
        if "objectives" in kwargs:
            kwargs["objectives"] = tuple(kwargs["objectives"])
        if "goals" in kwargs:
            kwargs["goals"] = tuple(kwargs["goals"])
        return cls(**kwargs)


#: Identity manifest for :class:`ExperimentSpec` — the declaration the
#: K301 lint rule cross-references against the dataclass fields.  Every
#: field here reaches the cell cache key via ``stable_hash`` over
#: ``spec.to_dict()``; adding a spec field without listing it (and
#: without thinking about cache identity) is a lint error.
IDENTITY_FIELDS = (
    "circuit",
    "objectives",
    "iterations",
    "seed",
    "bias",
    "adaptive_bias",
    "row_window",
    "slot_window",
    "sort_descending",
    "num_rows",
    "critical_paths",
    "beta",
    "goals",
    "eval_mode",
)


@dataclass
class Problem:
    """A built problem instance bound to one work meter."""

    netlist: Netlist
    grid: RowGrid
    engine: CostEngine
    initial_rows: list[list[int]]

    def initial_placement(self) -> Placement:
        return Placement.from_rows(self.grid, self.initial_rows)


@dataclass
class ParallelOutcome:
    """Uniform result record for serial and parallel runs.

    ``history`` holds ``(iteration, mu, model_seconds)`` triples sampled at
    the master each iteration — the quality-vs-time curve the paper's
    bracket notation ("time for the percentage of serial quality") is
    derived from.
    """

    strategy: str
    circuit: str
    objectives: tuple[str, ...]
    p: int
    iterations: int
    runtime: float
    best_mu: float
    best_costs: dict[str, float] = field(default_factory=dict)
    history: list[tuple[int, float, float]] = field(default_factory=list)
    extras: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def for_spec(
        cls, strategy: str, spec: "ExperimentSpec", p: int, iterations: int,
        runtime: float, best: dict[str, Any], extras: dict[str, Any],
    ) -> "ParallelOutcome":
        """A run's outcome; ``best`` carries its best µ, costs and history."""
        return cls(
            strategy=strategy, circuit=spec.circuit,
            objectives=spec.objectives, p=p, iterations=iterations,
            runtime=runtime, best_mu=best["best_mu"],
            best_costs=best["best_costs"], history=best["history"],
            extras=extras,
        )

    def time_to_quality(self, target_mu: float) -> float | None:
        """Model-time when quality first reached ``target_mu`` (None if never)."""
        for _it, mu, t in self.history:
            if mu >= target_mu:
                return t
        return None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready record of this outcome.

        ``extras`` values that do not survive a JSON round trip (numpy
        scalars, tuples) are coerced; non-serialisable extras are dropped
        rather than poisoning the artifact.
        """
        return {
            "strategy": self.strategy,
            "circuit": self.circuit,
            "objectives": list(self.objectives),
            "p": int(self.p),
            "iterations": int(self.iterations),
            "runtime": float(self.runtime),
            "best_mu": float(self.best_mu),
            "best_costs": {k: float(v) for k, v in self.best_costs.items()},
            "history": [
                [int(it), float(mu), float(t)] for it, mu, t in self.history
            ],
            "extras": _jsonable(self.extras),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ParallelOutcome":
        """Rebuild an outcome from :meth:`to_dict` output."""
        return cls(
            strategy=d["strategy"],
            circuit=d["circuit"],
            objectives=tuple(d["objectives"]),
            p=int(d["p"]),
            iterations=int(d["iterations"]),
            runtime=float(d["runtime"]),
            best_mu=float(d["best_mu"]),
            best_costs=dict(d.get("best_costs", {})),
            history=[(int(it), float(mu), float(t)) for it, mu, t in d.get("history", [])],
            extras=dict(d.get("extras", {})),
        )


def _jsonable(value: Any) -> Any:
    """Best-effort coercion to JSON-compatible types (drops what can't go)."""
    if isinstance(value, dict):
        coerced = {str(k): _jsonable(v) for k, v in value.items()}
        return {k: v for k, v in coerced.items() if v is not _DROP}
    if isinstance(value, (list, tuple)):
        return [c for c in (_jsonable(v) for v in value) if c is not _DROP]
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, (int, float, np.integer, np.floating)):
        return float(value) if isinstance(value, (float, np.floating)) else int(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    return _DROP


class _Drop:
    """Sentinel for values that cannot be serialised."""


_DROP = _Drop()


def make_config(spec: ExperimentSpec, max_iterations: int | None = None) -> SimEConfig:
    """SimE configuration derived from the spec."""
    return SimEConfig(
        max_iterations=max_iterations or spec.iterations,
        bias=spec.bias,
        adaptive_bias=spec.adaptive_bias,
        row_window=spec.row_window,
        slot_window=spec.slot_window,
        sort_descending=spec.sort_descending,
        eval_mode=spec.eval_mode,
    )


_problem_lock = threading.Lock()
_grid_cache: dict[tuple, RowGrid] = {}
_rows_cache: dict[tuple, list[list[int]]] = {}
#: The caches exist to dedupe the p concurrent ranks of one cluster run,
#: not to memoize whole sweeps — cap them (FIFO) so a long many-seed sweep
#: doesn't retain an initial row assignment per seed for the process life.
_PROBLEM_CACHE_CAP = 32


def _cache_put(cache: dict, key, value) -> None:
    cache[key] = value
    while len(cache) > _PROBLEM_CACHE_CAP:
        cache.pop(next(iter(cache)))


def build_problem(spec: ExperimentSpec, meter: WorkMeter | None = None) -> Problem:
    """Build netlist, grid, engine and the shared initial placement.

    ``meter`` binds the engine's work charging to the caller's clock (a
    simulated rank passes its own meter) — which is why every rank gets
    its own engine.  The rank-independent derived objects — the immutable
    grid and the deterministic initial row assignment — are cached
    single-flight: every rank of a simulated cluster builds the identical
    problem concurrently, and only one should pay for it.  (Keys contain
    the netlist object itself — hashed by identity and kept alive by the
    key — so a re-registered circuit name with a fresh netlist can never
    alias a stale entry.)
    """
    netlist = paper_circuit(spec.circuit)
    gkey = (spec.circuit, netlist, spec.num_rows)
    with _problem_lock:
        grid = _grid_cache.get(gkey)
        if grid is None:
            grid = RowGrid.for_netlist(netlist, num_rows=spec.num_rows)
            _cache_put(_grid_cache, gkey, grid)
        rkey = (spec.circuit, netlist, spec.num_rows, spec.seed)
        rows = _rows_cache.get(rkey)
        if rows is None:
            init_rng = stream_for(spec.seed, INIT_STREAM, "init")
            rows = random_placement(grid, init_rng).to_rows()
            _cache_put(_rows_cache, rkey, rows)
    engine = CostEngine(
        netlist,
        grid,
        objectives=spec.objectives,
        meter=meter,
        critical_paths=spec.critical_paths,
        aggregator=FuzzyAggregator(beta=spec.beta),
        goals=GoalVector(*spec.goals),
    )
    return Problem(
        netlist=netlist,
        grid=grid,
        engine=engine,
        initial_rows=[list(r) for r in rows],
    )


def _serial_run(spec: ExperimentSpec, meter: WorkMeter) -> dict[str, Any]:
    """The serial SimE loop on ``meter``'s clock, as a plain record."""
    problem = build_problem(spec, meter)
    rng = stream_for(spec.seed, SERIAL_STREAM, "serial-sel")
    sime = SimulatedEvolution(problem.engine, make_config(spec), rng)
    result = sime.run(problem.initial_placement())
    return {
        "best_mu": result.best_mu,
        "best_costs": result.best_costs,
        "iterations": result.iterations,
        "model_seconds": result.model_seconds,
        "work_units": result.work_units,
        "history": [(r.iteration, r.mu, r.model_seconds) for r in result.history],
    }


def serial_spmd(comm: Any, spec: ExperimentSpec) -> dict[str, Any]:
    """The serial SimE loop as a one-rank SPMD body (module-level, so the
    spawn start method can ship it); on a real-process cluster its
    ``elapsed`` is the wall-clock baseline of the socket speed-ups."""
    return {**_serial_run(spec, comm.meter), "elapsed": comm.elapsed()}


def run_cluster(
    fn: Callable[..., Any],
    spec: ExperimentSpec,
    p: int,
    kwargs: dict[str, Any],
    cluster: str = "sim",
    network: NetworkModel | None = None,
    work_model: WorkModel | None = None,
    deadline: float | None = None,
    faults: str | FaultPlan | None = None,
    on_rank_failure: str = "abort",
    trace_dir: str | None = None,
) -> tuple[ClusterRunResult, dict[str, Any]]:
    """Run ``fn(comm, spec=spec, **kwargs)`` on a ``p``-rank cluster.

    The one place a run's cluster is built, by
    :func:`~repro.parallel.mpi.backend.make_cluster`: ``deadline`` is its
    ``timeout`` and ``faults`` is seeded with ``spec.seed``.  Returns the
    run result and the extras of a real-backend record (none on sim).
    """
    res = make_cluster(
        cluster, p, network=network, work_model=work_model, timeout=deadline,
        faults=as_plan(faults, spec.seed), on_rank_failure=on_rank_failure,
        trace_dir=trace_dir,
    ).run(fn, kwargs={"spec": spec, **kwargs})
    if cluster == "sim":
        return res, {}
    return res, {
        "cluster": cluster,
        "model_seconds": [m.seconds() for m in res.meters],
        "wall_seconds": res.makespan,
    }


def run_serial(
    spec: ExperimentSpec,
    work_model: WorkModel | None = None,
    cluster: str = "sim",
    deadline: float | None = None,
) -> ParallelOutcome:
    """The serial SimE baseline every parallel strategy is compared to.

    ``cluster="sim"`` (default) runs in-process; any other backend runs
    the same loop as a one-rank :func:`run_cluster` and reports its
    wall-clock — the baseline of the socket speed-ups (model-seconds
    ride along in ``extras``).
    """
    if cluster == "sim":
        r = _serial_run(spec, WorkMeter(work_model or calibrated_work_model()))
        runtime, real = r["model_seconds"], {}
    else:
        res, real = run_cluster(
            serial_spmd, spec, 1, {}, cluster=cluster, work_model=work_model,
            deadline=deadline,
        )
        r = res.results[0]
        # The serial record keeps its one rank's scalar model-seconds.
        runtime, real = r["elapsed"], {**real, "model_seconds": r["model_seconds"]}
    return ParallelOutcome.for_spec(
        "serial", spec, 1, r["iterations"], runtime, r,
        {"work_units": r["work_units"], **real},
    )
