"""Scenario registry: the paper's experiments declared as data.

Every experiment family in the paper — Table 1 (Type I), Tables 2/3
(Type II with the w/p and w/p/d objective sets), Table 4 (Type III) and the
Section 4 runtime profile — is registered here as a :class:`Scenario`: a
circuit set, an objective set, a paper iteration budget and a grid of
strategy configurations.  :func:`resolve` expands a scenario into concrete
:class:`SweepCell`\\ s (one :class:`~repro.parallel.runners.ExperimentSpec`
plus runner parameters per cell) that :mod:`repro.experiments.sweeps` can
execute serially or across a process pool, and that the benches, the CLI
and the examples all share — no more hand-written driver scripts.

Scaling
-------
The paper runs 2 500–5 000 SimE iterations per configuration; a pure-Python
reproduction divides budgets by ``scale`` (default 100, like the benches'
``REPRO_SCALE``) while preserving the serial/parallel budget *ratios*.
``smoke=True`` shrinks a scenario further (one cheap circuit, a handful of
iterations) for CI and quick sanity runs.

Seeding
-------
Cells within one scenario share ``seed`` per replicate so that serial and
parallel runs of the same circuit start from the same initial placement
(the paper's protocol).  Replicates are an explicit axis: a scenario's
``seeds`` tuple (or the ``seeds=`` override of :func:`resolve`) lists the
spec seeds to run verbatim.  :func:`derive_seeds` is the recommended way
to *build* such a list — independent integers spawned from one root seed
via ``numpy.random.SeedSequence``, the same discipline as
:mod:`repro.utils.rng` — e.g.
``resolve("table2", seeds=derive_seeds(1, 5))``.

Run-time knobs
--------------
:data:`KNOBS` is the one table of what the CLI can force onto resolved
cells (``--cluster``, ``--eval-mode``, ``--deadline``,
``--inject-faults``, ``--on-rank-failure``); :func:`override` applies it
and the CLI's flags, checks and artifact suffixes derive from it.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro.analysis.profiling import run_profile
from repro.experiments.artifacts import NON_IDENTITY_PARAMS
from repro.netlist.suite import list_all_circuits, list_paper_circuits
from repro.parallel import type1, type2, type3, type3x
from repro.parallel.faults import format_faults, parse_faults
from repro.parallel.mpi.backend import (
    CLUSTERS,
    RANK_FAILURE_POLICIES,
    validate_cluster,
)
from repro.parallel.partition import check_pattern
from repro.parallel.runners import ExperimentSpec, ParallelOutcome, run_serial
from repro.sime.config import EVAL_MODES

__all__ = [
    "Scenario",
    "StrategyGrid",
    "SweepCell",
    "SCENARIOS",
    "Strategy",
    "STRATEGIES",
    "get_strategy",
    "CLUSTERS",
    "PAPER_ITERS_T2_WP",
    "PAPER_ITERS_T3_WPD",
    "PAPER_ITERS_T4",
    "list_scenarios",
    "get_scenario",
    "resolve",
    "custom_sweep",
    "Knob",
    "KNOBS",
    "override",
    "override_cluster",
    "override_eval_mode",
    "base_spec",
    "scaled_iterations",
    "derive_seeds",
]


@dataclass(frozen=True)
class Strategy:
    """One strategy, declared once: its runner (``run(spec, **params)``),
    its minimum rank count (the strategy module's own ``MIN_P``), the
    runner params a cell may set and the :data:`KNOBS` that apply."""

    run: Callable[..., ParallelOutcome]
    min_p: int = 1
    params: tuple[str, ...] = ()
    knobs: tuple[str, ...] = ()


_SERIAL_KNOBS = ("cluster", "eval_mode", "deadline")
_RANK_KNOBS = _SERIAL_KNOBS + ("faults",)
_STORE_KNOBS = _RANK_KNOBS + ("on_rank_failure",)

#: Every strategy, by name (``profile`` wraps a serial run and reports
#: work-category shares: the paper's gprof study).
STRATEGIES: dict[str, Strategy] = {
    "serial": Strategy(run_serial, knobs=_SERIAL_KNOBS),
    "type1": Strategy(type1.run_type1, type1.MIN_P, ("p",), _RANK_KNOBS),
    "type2": Strategy(type2.run_type2, type2.MIN_P,
                      ("p", "pattern", "base_factor", "per_proc_frac"),
                      _RANK_KNOBS),
    "type3": Strategy(type3.run_type3, type3.MIN_P, ("p", "retry_threshold"),
                      _STORE_KNOBS),
    "type3x": Strategy(type3x.run_type3_diversified, type3.MIN_P,
                       ("p", "retry_threshold", "crossover"), _STORE_KNOBS),
    "profile": Strategy(run_profile, knobs=("eval_mode",)),
}


def get_strategy(name: str) -> Strategy:
    try:
        return STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; expected one of {tuple(STRATEGIES)}"
        ) from None


#: Paper serial iteration budgets per experiment family.
PAPER_ITERS_T2_WP = 3500  # Tables 1 and 2 (wirelength + power program)
PAPER_ITERS_T3_WPD = 5000  # Table 3 (wirelength + power + delay)
PAPER_ITERS_T4 = 2500  # Table 4 (Type III, per processor)

#: Iteration budget used when a scenario is resolved with ``smoke=True``.
SMOKE_ITERATIONS = 8


@dataclass(frozen=True)
class StrategyGrid:
    """One strategy plus a cartesian grid of parameter options.

    ``axes`` is an ordered tuple of ``(param, options)`` pairs; resolution
    takes the cross product.  Parameters that name
    :class:`~repro.parallel.runners.ExperimentSpec` fields (``objectives``,
    ``bias``, ...) are folded into the cell's spec; the rest (``p``,
    ``pattern``, ``retry_frac``, ...) are passed to the strategy runner.

    ``smoke=False`` excludes the grid from smoke resolution — for grids
    that are inherently expensive regardless of iteration budget (e.g.
    the socket backend's p ∈ {16, 32, 64} ladder spawns that many OS
    processes per cell, which no smoke run should do).
    """

    strategy: str
    axes: tuple[tuple[str, tuple], ...] = ()
    smoke: bool = True

    def __post_init__(self) -> None:
        get_strategy(self.strategy)

    def combinations(self) -> Iterable[dict[str, Any]]:
        """Yield one params dict per grid point."""
        if not self.axes:
            yield {}
            return
        names = [a[0] for a in self.axes]
        for values in itertools.product(*(a[1] for a in self.axes)):
            yield dict(zip(names, values))


@dataclass(frozen=True)
class Scenario:
    """A named experiment family, declared as data.

    ``paper_iterations`` is the paper's *serial* budget; parallel budgets
    derive from it inside the strategy runners.  ``table`` links back to
    the paper table the scenario reproduces (``None`` for non-table
    scenarios like ``profile`` and ``smoke``).
    """

    name: str
    title: str
    description: str
    objectives: tuple[str, ...]
    paper_iterations: int
    circuits: tuple[str, ...]
    grids: tuple[StrategyGrid, ...]
    seeds: tuple[int, ...] = (1,)
    min_iterations: int = 20
    smoke_circuits: tuple[str, ...] = ("s1196",)
    table: int | None = None
    #: Cells the scenario builder excluded, as ``(cell, reason)`` pairs —
    #: e.g. ``("type3[p=2]", "type3 needs p >= 3")``.  Recorded
    #: structurally (instead of a warning that leaks into test output) so
    #: the CLI can surface the drops next to the scenario.
    dropped_cells: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class SweepCell:
    """One concrete runnable experiment: a spec plus runner parameters."""

    scenario: str
    cell_id: str
    strategy: str
    spec: ExperimentSpec
    params: tuple[tuple[str, Any], ...] = ()

    def params_dict(self) -> dict[str, Any]:
        return dict(self.params)

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "cell_id": self.cell_id,
            "strategy": self.strategy,
            "spec": self.spec.to_dict(),
            "params": {k: list(v) if isinstance(v, tuple) else v
                       for k, v in self.params},
        }


def scaled_iterations(paper_iters: int, scale: int = 100, minimum: int = 20) -> int:
    """Paper budget divided by ``scale`` (>= 1), floored to stay meaningful."""
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    return max(minimum, paper_iters // scale)


def derive_seeds(root_seed: int, n: int) -> list[int]:
    """``n`` independent 32-bit replicate seeds spawned from ``root_seed``."""
    children = np.random.SeedSequence(root_seed).spawn(n)
    return [int(c.generate_state(1)[0]) for c in children]


def base_spec(
    circuit: str,
    objectives: tuple[str, ...] = ("wirelength", "power"),
    iterations: int = 100,
    seed: int = 1,
    **knobs: Any,
) -> ExperimentSpec:
    """The one spec constructor everything (benches, CLI, registry) shares."""
    return ExperimentSpec(
        circuit=circuit,
        objectives=tuple(objectives),
        iterations=iterations,
        seed=seed,
        **knobs,
    )


# ---------------------------------------------------------------------------
# The registry proper
# ---------------------------------------------------------------------------

_P_RANGE = (2, 3, 4, 5)
_PATTERNS = ("fixed", "random")
#: Table 4's retry thresholds as fractions of the iteration budget
#: (50/100/150/200 against 2 500 iterations).
_RETRY_FRACS = (0.02, 0.04, 0.06, 0.08)

SCENARIOS: dict[str, Scenario] = {}


def _register(scenario: Scenario) -> Scenario:
    if scenario.name in SCENARIOS:
        raise ValueError(f"duplicate scenario {scenario.name!r}")
    SCENARIOS[scenario.name] = scenario
    return scenario


_register(Scenario(
    name="table1",
    title="Table 1 — Type I (low-level parallel) runtimes",
    description=(
        "Serial baseline vs Type I parallel SimE at p=2..5, wirelength+power; "
        "Type I replays the serial search so quality is identical and the "
        "interest is the (negative) speed-up."
    ),
    objectives=("wirelength", "power"),
    paper_iterations=PAPER_ITERS_T2_WP,
    circuits=tuple(list_paper_circuits()),
    grids=(
        StrategyGrid("serial"),
        StrategyGrid("type1", (("p", _P_RANGE),)),
    ),
    table=1,
))

_register(Scenario(
    name="table2",
    title="Table 2 — Type II (domain decomposition), wirelength+power",
    description=(
        "Serial vs Type II with fixed and random row allocation at p=2..5; "
        "times carry the paper's quality bracket when serial quality is "
        "not reached."
    ),
    objectives=("wirelength", "power"),
    paper_iterations=PAPER_ITERS_T2_WP,
    circuits=tuple(list_paper_circuits()),
    grids=(
        StrategyGrid("serial"),
        StrategyGrid("type2", (("pattern", _PATTERNS), ("p", _P_RANGE))),
    ),
    table=2,
))

_register(Scenario(
    name="table3",
    title="Table 3 — Type II, wirelength+power+delay",
    description=(
        "Table 2's protocol with the delay objective added (serial 5000 "
        "iterations; parallel 6000 + 1000 per extra processor, scaled)."
    ),
    objectives=("wirelength", "power", "delay"),
    paper_iterations=PAPER_ITERS_T3_WPD,
    circuits=tuple(list_paper_circuits()),
    grids=(
        StrategyGrid("serial"),
        StrategyGrid("type2", (
            ("base_factor", (6.0 / 5.0,)),
            ("per_proc_frac", (1.0 / 5.0,)),
            ("pattern", _PATTERNS),
            ("p", _P_RANGE),
        )),
    ),
    table=3,
))

_register(Scenario(
    name="table4",
    title="Table 4 — Type III (parallel search) vs retry threshold",
    description=(
        "Serial vs Type III at p=3..5 for retry thresholds 50/100/150/200 "
        "(expressed as fractions of the iteration budget so they scale)."
    ),
    objectives=("wirelength", "power"),
    paper_iterations=PAPER_ITERS_T4,
    circuits=("s1494", "s1238"),
    grids=(
        StrategyGrid("serial"),
        StrategyGrid("type3", (("retry_frac", _RETRY_FRACS), ("p", (3, 4, 5)))),
    ),
    smoke_circuits=("s1238",),
    table=4,
))

_register(Scenario(
    name="profile",
    title="Section 4 — serial runtime profile (gprof reproduction)",
    description=(
        "Work-category shares of a serial run for both program versions "
        "(w/p and w/p/d); the paper reports allocation at ~98%."
    ),
    objectives=("wirelength", "power"),
    paper_iterations=PAPER_ITERS_T2_WP,
    circuits=("s1196", "s1238"),
    grids=(
        StrategyGrid("profile", (
            ("objectives", (("wirelength", "power"),
                            ("wirelength", "power", "delay"))),
        )),
    ),
))

# --- beyond the paper's tables: diversity families -------------------------

#: β (OWA and-ness) grid of the ``knobs`` scenario.
_BETA_GRID = (0.3, 0.7, 1.0)
#: Fixed selection biases of the ``knobs`` scenario (0.0 = the paper's
#: biasless scheme; ±0.1 brackets it).
_BIAS_GRID = (-0.1, 0.0, 0.1)
#: The ``retry`` scenario's densified Table-4 axis (Table 4 itself uses
#: 0.02–0.08): halving below and doubling above the paper's range.
_RETRY_STUDY_FRACS = (0.01, 0.02, 0.04, 0.08, 0.16)

_register(Scenario(
    name="scaling",
    title="Scaling ladder — model-time and quality vs circuit size",
    description=(
        "Serial vs Type II (random, p=4) across synthetic circuits of "
        "doubling size (250 to 2000 movable cells, spanning beyond the "
        "paper's 540-1561 range); charts how model-time and converged "
        "quality scale with the netlist."
    ),
    objectives=("wirelength", "power"),
    paper_iterations=PAPER_ITERS_T2_WP,
    circuits=("synth250", "synth500", "synth1000", "synth2000"),
    grids=(
        StrategyGrid("serial"),
        StrategyGrid("type2", (("pattern", ("random",)), ("p", (4,)))),
    ),
    smoke_circuits=("synth250",),
))

_register(Scenario(
    name="scanbound",
    title="Scan-bound ladder — exhaustive probe windows, all objectives",
    description=(
        "The scaling ladder's big rungs with probe windows widened to "
        "cover every row and slot and the delay objective on: candidate "
        "scans dominate the wall clock (the paper's ~98% allocation "
        "profile, pushed to its limit), which is the regime the batched "
        "SoA evaluation kernel targets — BENCH_PR6 runs this family "
        "under both eval modes to record the batch speedup."
    ),
    objectives=("wirelength", "power", "delay"),
    paper_iterations=PAPER_ITERS_T3_WPD,
    circuits=("synth500", "synth1000", "synth2000"),
    grids=(
        # row_window 17 spans the widest ladder grid (35 rows); slot_window
        # 80 exceeds every row's occupancy, so each probe scans every slot
        # of every row (smaller rungs clamp — same exhaustive coverage).
        # Most probe rounds here reach the exact-fold threshold, so scalar
        # mode vectorizes them too: batch's median cell wall is within
        # 1.03-1.10x of scalar's on every rung (2-vCPU host, README).
        StrategyGrid("serial", (
            ("row_window", (17,)),
            ("slot_window", (80,)),
        )),
    ),
    smoke_circuits=("synth500",),
))

_register(Scenario(
    name="knobs",
    title="Knob grid — fuzzy β × selection bias (config-space study)",
    description=(
        "Serial SimE on s1196 over the OWA and-ness β and the selection "
        "bias B, plus the adaptive-bias scheme at each β — an SMAC3-style "
        "configuration space locating the paper's (β=0.7, biasless) "
        "choice inside its neighbourhood."
    ),
    objectives=("wirelength", "power"),
    paper_iterations=PAPER_ITERS_T2_WP,
    circuits=("s1196",),
    grids=(
        StrategyGrid("serial", (("beta", _BETA_GRID), ("bias", _BIAS_GRID))),
        StrategyGrid("serial", (("beta", _BETA_GRID),
                                ("adaptive_bias", (True,)))),
    ),
))

_register(Scenario(
    name="retry",
    title="Retry-threshold study — Type III and diversified Type III",
    description=(
        "Table 4's retry-threshold axis at double resolution (1-16% of "
        "the budget) with the diversified type3x variant alongside plain "
        "type3, both at p=4; where does extra retry patience stop paying?"
    ),
    objectives=("wirelength", "power"),
    paper_iterations=PAPER_ITERS_T4,
    circuits=("s1494", "s1238"),
    grids=(
        StrategyGrid("serial"),
        StrategyGrid("type3", (("retry_frac", _RETRY_STUDY_FRACS), ("p", (4,)))),
        StrategyGrid("type3x", (("retry_frac", _RETRY_STUDY_FRACS), ("p", (4,)))),
    ),
    smoke_circuits=("s1238",),
))

_register(Scenario(
    name="shootout",
    title="Cross-strategy shootout — every strategy head-to-head at p=4",
    description=(
        "Serial, Type I, Type II (both patterns), Type III and "
        "diversified Type III on the same circuits at a fixed processor "
        "count: quality-vs-model-time per strategy, the one-table answer "
        "to 'which parallelization should I use?'."
    ),
    objectives=("wirelength", "power"),
    paper_iterations=PAPER_ITERS_T2_WP,
    circuits=("s1196", "s1238"),
    grids=(
        StrategyGrid("serial"),
        StrategyGrid("type1", (("p", (4,)),)),
        StrategyGrid("type2", (("pattern", _PATTERNS), ("p", (4,)))),
        StrategyGrid("type3", (("retry_frac", (0.04,)), ("p", (4,)))),
        StrategyGrid("type3x", (("retry_frac", (0.04,)), ("p", (4,)))),
    ),
))

#: Processor axis of the ``speedup`` scenario (the paper's cluster had 8
#: nodes; p = 1 is the serial row).  Type III needs a rank for the
#: central store, so its axis starts at 4.
_SPEEDUP_P = (2, 4, 8)
_SPEEDUP_P_T3 = (4, 8)
#: Extended ladder on the socket router backend: past the paper's 8
#: nodes, into the cluster-scale regime the paper is actually about.
#: Type II only — its traffic is all rank-addressed, so results stay
#: bit-reproducible run-to-run at any p on a real backend (Type III's
#: ANY_SOURCE arrival order would not).  The ladder runs on
#: ``synth8000`` (71 placement rows): row decomposition needs at least
#: one row per rank and the paper circuits top out at 32 rows, so p = 64
#: is only reachable on the cluster-scale rung.
_SPEEDUP_P_SOCKET = (16, 32, 64)
_LADDER_CIRCUIT = ("synth8000",)
#: Serial iteration budget pinned on the ladder cells.  The ladder
#: measures router *scaling*, not solution quality, and the paper's
#: budget rule (`parallel_iterations`) multiplies the serial budget by
#: ~p/7 — at p = 64 the scenario's default 35 serial iterations would
#: become 350 parallel ones, hours of wall-clock on a small host.  A
#: compact serial budget keeps the whole ladder in minutes while the
#: per-processor budget growth (the thing Tables 2/3 actually model)
#: still applies on top of it.
_LADDER_ITERS = (4,)

_register(Scenario(
    name="speedup",
    title="Speedup — sim/socket backends, p up to 64 on the router",
    description=(
        "The paper's Tables 2/3 speed-up protocol run on every execution "
        "backend: each strategy at p up to the paper's 8 nodes on the "
        "deterministic simulated cluster (virtual model-seconds) and the "
        "socket router backend (host wall-clock), with the serial "
        "baseline measured both ways; type2/random additionally climbs "
        "the router-only ladder p ∈ {16, 32, 64} on the synth8000 rung "
        "(71 rows — the paper circuits cannot row-decompose past "
        "p = 32) with its own socket serial baseline (excluded from "
        "smoke runs).  The report shows virtual and real speed-ups "
        "side by side."
    ),
    objectives=("wirelength", "power"),
    paper_iterations=PAPER_ITERS_T2_WP,
    circuits=("s1196",),
    grids=(
        StrategyGrid("serial", (("cluster", CLUSTERS),)),
        StrategyGrid("type1", (("cluster", CLUSTERS), ("p", _SPEEDUP_P))),
        StrategyGrid("type2", (
            ("pattern", ("random",)),
            ("cluster", CLUSTERS),
            ("p", _SPEEDUP_P),
        )),
        # The router-only ladder lives on the cluster-scale rung, with
        # its own socket serial baseline so the report can anchor the
        # ladder's speed-ups to the same circuit.
        StrategyGrid("serial", (
            ("circuit", _LADDER_CIRCUIT),
            ("iterations", _LADDER_ITERS),
            ("cluster", ("socket",)),
        ), smoke=False),
        StrategyGrid("type2", (
            ("circuit", _LADDER_CIRCUIT),
            ("iterations", _LADDER_ITERS),
            ("pattern", ("random",)),
            ("cluster", ("socket",)),
            ("p", _SPEEDUP_P_SOCKET),
        ), smoke=False),
        StrategyGrid("type3", (
            ("retry_frac", (0.04,)),
            ("cluster", CLUSTERS),
            ("p", _SPEEDUP_P_T3),
        )),
        StrategyGrid("type3x", (
            ("retry_frac", (0.04,)),
            ("cluster", CLUSTERS),
            ("p", _SPEEDUP_P_T3),
        )),
    ),
    dropped_cells=(
        ("type3[p=2]", "type3 needs p >= 3 (one rank is the central store)"),
        ("type3x[p=2]", "type3x needs p >= 3 (one rank is the central store)"),
    ),
))

_register(Scenario(
    name="smoke",
    title="Smoke — one cheap cell per strategy",
    description=(
        "A minutes-scale end-to-end pass exercising every strategy on the "
        "smallest circuit; used by CI (`repro sweep --smoke`)."
    ),
    objectives=("wirelength", "power"),
    paper_iterations=SMOKE_ITERATIONS,
    circuits=("s1196",),
    grids=(
        StrategyGrid("serial"),
        StrategyGrid("type1", (("p", (2,)),)),
        StrategyGrid("type2", (("pattern", ("random",)), ("p", (2,)))),
        StrategyGrid("type3", (("retry_frac", (0.25,)), ("p", (3,)))),
        StrategyGrid("type3x", (("retry_frac", (0.25,)), ("p", (3,)))),
    ),
    min_iterations=SMOKE_ITERATIONS,
))


def list_scenarios() -> list[Scenario]:
    """All registered scenarios, in registration (paper) order."""
    return list(SCENARIOS.values())


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(SCENARIOS)
        raise KeyError(f"unknown scenario {name!r}; known: {known}") from None


def custom_sweep(
    circuits: Iterable[str],
    strategies: Iterable[str],
    p_values: Iterable[int] = (2, 4),
    patterns: Iterable[str] = ("random",),
    objectives: tuple[str, ...] = ("wirelength", "power"),
    paper_iterations: int = PAPER_ITERS_T2_WP,
    retry_fracs: Iterable[float] = (0.04,),
    seeds: Iterable[int] = (1,),
    name: str = "sweep",
) -> Scenario:
    """Build an open-ended ``circuit × strategy × p × pattern`` scenario.

    This is the CLI's ``repro sweep --circuits ... --strategies ...`` path:
    anything the registry's named tables don't cover.  Requested grid
    points a strategy cannot run (e.g. type3 at p=2) are excluded and
    recorded on ``Scenario.dropped_cells`` with their reasons — the CLI
    surfaces them; nothing is silently lost and nothing warns.
    """
    grids = []
    dropped_cells: list[tuple[str, str]] = []
    for strategy in strategies:
        record = get_strategy(strategy)
        axes: list[tuple[str, tuple]] = []
        if "p" in record.params:
            min_p = record.min_p
            ps = tuple(p for p in p_values if p >= min_p)
            if not ps:
                raise ValueError(
                    f"{strategy} needs p >= {min_p}; got {tuple(p_values)}"
                )
            dropped_cells.extend(
                (f"{strategy}[p={p}]", f"{strategy} needs p >= {min_p}")
                for p in p_values
                if p < min_p
            )
            axes.append(("p", ps))
        if "pattern" in record.params:
            axes.insert(0, ("pattern", tuple(patterns)))
        if "retry_threshold" in record.params:
            axes.insert(0, ("retry_frac", tuple(retry_fracs)))
        grids.append(StrategyGrid(strategy, tuple(axes)))
    return Scenario(
        name=name,
        title=f"Custom sweep over {len(grids)} strategies",
        description="Open-ended sweep built from CLI arguments.",
        objectives=tuple(objectives),
        paper_iterations=paper_iterations,
        circuits=tuple(circuits),
        grids=tuple(grids),
        seeds=tuple(seeds),
        dropped_cells=tuple(dropped_cells),
    )


_SPEC_FIELDS = {f.name for f in fields(ExperimentSpec)}


def _fmt_param(v: Any) -> str:
    if isinstance(v, (tuple, list)):
        return "+".join(str(x) for x in v)
    return str(v)


def _cell_id(circuit: str, seed: int, strategy: str, params: Mapping[str, Any]) -> str:
    parts = [f"{k}={_fmt_param(v)}" for k, v in params.items()]
    tail = f"[{','.join(parts)}]" if parts else ""
    return f"{circuit}/seed{seed}/{strategy}{tail}"


def resolve(
    scenario: Scenario | str,
    scale: int = 100,
    circuits: Iterable[str] | None = None,
    seeds: Iterable[int] | None = None,
    smoke: bool = False,
) -> list[SweepCell]:
    """Expand a scenario into concrete, validated sweep cells.

    ``scale`` divides the paper iteration budget (``REPRO_SCALE``
    convention); ``circuits``/``seeds`` override the scenario's own;
    ``smoke`` shrinks to the scenario's smoke circuits and
    :data:`SMOKE_ITERATIONS`.  Resolution is deterministic: the same
    arguments always produce the same cells in the same order.  Cells that
    collapse to duplicates under scaling (e.g. Table 4's retry fractions
    all rounding to 1) are deduplicated.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if smoke:
        iters = SMOKE_ITERATIONS
        circ_list = list(circuits) if circuits is not None else list(scenario.smoke_circuits)
    else:
        iters = scaled_iterations(
            scenario.paper_iterations, scale, scenario.min_iterations
        )
        circ_list = list(circuits) if circuits is not None else list(scenario.circuits)
    known = set(list_all_circuits())
    for c in circ_list:
        if c not in known:
            raise KeyError(f"unknown circuit {c!r}; known: {sorted(known)}")
    seed_list = list(seeds) if seeds is not None else list(scenario.seeds)

    cells: list[SweepCell] = []
    seen: set[str] = set()
    for circuit in circ_list:
        for seed in seed_list:
            for grid in scenario.grids:
                if smoke and not grid.smoke:
                    continue
                for combo in grid.combinations():
                    spec_over = {k: v for k, v in combo.items() if k in _SPEC_FIELDS}
                    params = {k: v for k, v in combo.items() if k not in _SPEC_FIELDS}
                    if "retry_frac" in params:
                        frac = params.pop("retry_frac")
                        params["retry_threshold"] = max(1, int(round(frac * iters)))
                    spec = base_spec(
                        circuit, scenario.objectives, iters, seed
                    )
                    if spec_over:
                        spec = replace(spec, **spec_over)
                    # Spec overrides are part of the identity too — the
                    # profile scenario's two objective versions must not
                    # collapse into one cell.
                    cid = _cell_id(
                        circuit, seed, grid.strategy, {**spec_over, **params}
                    )
                    if cid in seen:
                        continue
                    seen.add(cid)
                    _validate(grid.strategy, params)
                    cells.append(SweepCell(
                        scenario=scenario.name,
                        cell_id=cid,
                        strategy=grid.strategy,
                        spec=spec,
                        params=tuple(sorted(params.items())),
                    ))
    return cells


def _validate(name: str, params: Mapping[str, Any]) -> None:
    strategy = get_strategy(name)
    for param in params:
        if param not in strategy.params and param not in KNOBS:
            raise ValueError(f"{name} takes no {param} parameter")
    p = params.get("p", 1)
    if p < strategy.min_p:
        raise ValueError(f"{name} needs p >= {strategy.min_p}, got {p}")
    if params.get("retry_threshold", 1) < 1:
        raise ValueError("retry_threshold must be >= 1")
    if "pattern" in params:
        check_pattern(params["pattern"])
    for knob in KNOBS.values():
        if not knob.on_spec and knob.name in params:
            knob.check(params[knob.name])
            if not knob.applies(name, params):
                raise ValueError(
                    f"{knob.name} does not apply to a {name} cell: {knob.why}"
                )


# ---------------------------------------------------------------------------
# Run-time knobs: forced onto resolved cells by the CLI
# ---------------------------------------------------------------------------


def _positive_seconds(value: Any) -> float:
    seconds = float(value)
    if not seconds > 0:
        raise ValueError(f"deadline must be positive, got {seconds}")
    return seconds


@dataclass(frozen=True)
class Knob:
    """One run-time knob the CLI can force onto every cell of a grid.

    ``parse`` (or else membership in ``choices``) validates a value and
    returns its canonical form; the knob applies to the strategies whose
    :class:`Strategy` lists it, in cells whose params pass ``when``, and
    ``why`` explains a refusal; ``tag`` is the artifact-name suffix a
    forced value adds.  The value lives on the spec (``on_spec``) or in
    the runner params, and is part of the cell id unless listed in
    ``artifacts.NON_IDENTITY_PARAMS``.
    """

    name: str
    default: Any
    why: str
    tag: Callable[[Any], str]
    choices: tuple[str, ...] = ()
    parse: Callable[[Any], Any] | None = None
    on_spec: bool = False
    when: Callable[[Mapping[str, Any]], bool] | None = None

    def applies(self, strategy: str, params: Mapping[str, Any]) -> bool:
        """Does this knob mean anything to a ``strategy`` cell with ``params``?"""
        return self.name in get_strategy(strategy).knobs and (
            self.when is None or self.when(params)
        )

    def check(self, value: Any) -> Any:
        if self.parse is not None:
            return self.parse(value)
        if value not in self.choices:
            raise ValueError(
                f"{self.name} must be one of {self.choices}, got {value!r}"
            )
        return value

    def current(self, cell: SweepCell) -> Any:
        """The value ``cell`` runs with."""
        if self.on_spec:
            return getattr(cell.spec, self.name)
        return cell.params_dict().get(self.name, self.default)


#: Every knob :func:`override` can force, in the order it applies them.
KNOBS: dict[str, Knob] = {k.name: k for k in (
    Knob("cluster", "sim",
         why="the profile pseudo-strategy runs in-process only",
         tag=lambda v: f"-{v}", choices=CLUSTERS, parse=validate_cluster),
    Knob("eval_mode", "scalar", why="",
         tag=lambda v: "" if v == "scalar" else f"-{v}",
         choices=EVAL_MODES, on_spec=True),
    Knob("deadline", None,
         why="only real-process cells (cluster=socket) run under a deadline",
         tag=lambda v: "", parse=_positive_seconds,
         when=lambda params: params.get("cluster", "sim") != "sim"),
    Knob("faults", None,
         why="only the parallel strategies have ranks to fault",
         tag=lambda v: "-faults",
         parse=lambda v: format_faults(parse_faults(v))),
    Knob("on_rank_failure", "abort",
         why="only type3/type3x can close out on the surviving ranks",
         tag=lambda v: "" if v == "abort" else f"-{v}",
         choices=RANK_FAILURE_POLICIES),
)}


def _with_param(cell_id: str, name: str, value: Any) -> str:
    """``cell_id`` with its ``name=`` segment set to ``value``."""
    segment = f"{name}={_fmt_param(value)}"
    cid, n = re.subn(rf"(?<=[\[,]){name}=[^,\]]+", lambda m: segment, cell_id)
    if n:
        return cid
    return f"{cid[:-1]},{segment}]" if cid.endswith("]") else f"{cid}[{segment}]"


def override(cells: Iterable[SweepCell], **knobs: Any) -> list[SweepCell]:
    """Force run-time knobs (see :data:`KNOBS`) onto every cell.

    A ``None`` value forces nothing.  Per knob, a cell passes through
    unchanged when the knob does not apply to it or it already runs with
    the forced value (so forcing a default never moves ids or cache
    keys); otherwise the value is written to its spec or params and, for
    identity knobs, into its cell id, so runs with different values never
    collide in artifacts or the resume cache.  Cells that collapse onto
    the same id (e.g. ``speedup``'s per-backend twins under one forced
    cluster) are deduplicated, first one kept.
    """
    unknown = sorted(set(knobs) - set(KNOBS))
    if unknown:
        raise TypeError(f"override() got unknown knob(s) {unknown}")
    out = list(cells)
    for knob in KNOBS.values():
        if knobs.get(knob.name) is None:
            continue
        value = knob.check(knobs[knob.name])
        forced, seen = [], set()
        for cell in out:
            params = cell.params_dict()
            if knob.applies(cell.strategy, params) and knob.current(cell) != value:
                if knob.on_spec:
                    spec = replace(cell.spec, **{knob.name: value})
                    cell = replace(cell, spec=spec)
                else:
                    params[knob.name] = value
                    cell = replace(cell, params=tuple(sorted(params.items())))
                if knob.name not in NON_IDENTITY_PARAMS:
                    cid = _with_param(cell.cell_id, knob.name, value)
                    cell = replace(cell, cell_id=cid)
            if cell.cell_id not in seen:
                seen.add(cell.cell_id)
                forced.append(cell)
        out = forced
    return out


# Single-knob spellings (the perf harness imports these two).
def override_cluster(cells: Iterable[SweepCell], cluster: str) -> list[SweepCell]:
    return override(cells, cluster=cluster)


def override_eval_mode(cells: Iterable[SweepCell], mode: str) -> list[SweepCell]:
    return override(cells, eval_mode=mode)
