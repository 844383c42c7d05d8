"""repro — reproduction of Sait, Ali & Zaidi (IPPS 2006):
"Evaluating Parallel Simulated Evolution Strategies for VLSI Cell
Placement".

A multiobjective (wirelength / power / delay) standard-cell placer driven
by the Simulated Evolution metaheuristic, three parallelization strategies
(low-level, domain decomposition, parallel search) over an MPI-like
message-passing substrate with a deterministic simulated cluster, and the
scenario registry whose sweeps regenerate the paper's tables.

Quickstart
----------
>>> from repro import ExperimentSpec, run_serial, run_type2
>>> spec = ExperimentSpec(circuit="s1196", iterations=40)
>>> serial = run_serial(spec)
>>> parallel = run_type2(spec, p=4, pattern="random")
>>> parallel.runtime < serial.runtime
True

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.
"""

from repro.netlist import (
    Netlist,
    GateKind,
    parse_bench,
    parse_bench_text,
    generate_circuit,
    CircuitSpec,
    paper_circuit,
    list_paper_circuits,
)
from repro.layout import RowGrid, Placement, random_placement
from repro.cost import CostEngine, FuzzyAggregator, WorkMeter, WorkModel
from repro.sime import SimulatedEvolution, SimEConfig
from repro.parallel import (
    run_serial,
    run_type1,
    run_type2,
    run_type3,
)
from repro.parallel.runners import ExperimentSpec, ParallelOutcome
from repro.parallel.type3x import run_type3_diversified
from repro.baselines import run_esp, run_sa, SAConfig
from repro.experiments import (
    ArtifactStore,
    RunRecord,
    Scenario,
    SweepCell,
    custom_sweep,
    get_scenario,
    list_scenarios,
    resolve,
    run_sweep,
)

__version__ = "1.1.0"

__all__ = [
    "Netlist",
    "GateKind",
    "parse_bench",
    "parse_bench_text",
    "generate_circuit",
    "CircuitSpec",
    "paper_circuit",
    "list_paper_circuits",
    "RowGrid",
    "Placement",
    "random_placement",
    "CostEngine",
    "FuzzyAggregator",
    "WorkMeter",
    "WorkModel",
    "SimulatedEvolution",
    "SimEConfig",
    "ExperimentSpec",
    "ParallelOutcome",
    "run_serial",
    "run_type1",
    "run_type2",
    "run_type3",
    "run_type3_diversified",
    "run_esp",
    "run_sa",
    "SAConfig",
    "ArtifactStore",
    "RunRecord",
    "Scenario",
    "SweepCell",
    "custom_sweep",
    "get_scenario",
    "list_scenarios",
    "resolve",
    "run_sweep",
    "__version__",
]
