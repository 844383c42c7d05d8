"""Traced smoke runs: execute each strategy on the sim backend, recording.

``repro commcheck --trace`` needs real traces to sanitize.  This driver
runs every strategy once on the deterministic sim backend with a tiny
generated circuit (fast — the point is protocol coverage, not search
quality), with tracing armed, and hands the per-rank event lists plus
the matching static protocol name to the replay checker.

The sim backend is used deliberately: it is deterministic, so CI traced
runs are reproducible, and the recorder is already proven bit-identical
(the strategies' results do not change when tracing is on — see
``tests/check/test_trace.py``).
"""

from __future__ import annotations

import tempfile
from typing import Any, Callable, Iterator

from repro.netlist.generator import CircuitSpec
from repro.netlist.suite import PAPER_CIRCUITS, paper_circuit
from repro.parallel.runners import ExperimentSpec
from repro.parallel.trace import load_trace

__all__ = ["traced_smoke_runs", "SMOKE_CIRCUIT"]

#: Registry key for the throwaway smoke circuit.
SMOKE_CIRCUIT = "_commcheck120"


def _smoke_spec() -> ExperimentSpec:
    return ExperimentSpec(
        circuit=SMOKE_CIRCUIT, objectives=("wirelength", "power"),
        iterations=6, seed=3,
    )


def _runs(p: int) -> list[
    tuple[str, str, Callable[[ExperimentSpec, str], Any]]
]:
    from repro.experiments.registry import STRATEGIES

    def run(name: str, **params: Any) -> Callable[[ExperimentSpec, str], Any]:
        return lambda spec, td: STRATEGIES[name].run(
            spec, p=p, trace_dir=td, **params)

    # retry_threshold=1 provokes the REQUEST/reply path of the store
    # protocol, so the funnel race and the reply send are both exercised.
    # type3x runs type3's store and searcher, so its trace is admitted
    # against the type3 protocol.
    return [
        ("type1", "type1", run("type1")),
        ("type2", "type2", run("type2")),
        ("type3", "type3", run("type3", retry_threshold=1)),
        ("type3x", "type3", run("type3x", retry_threshold=1)),
    ]


def traced_smoke_runs(
    p: int = 3,
) -> Iterator[tuple[str, str, dict[int, list[dict[str, Any]]]]]:
    """Yield ``(run_name, protocol_name, traces)`` per strategy."""
    spec = _smoke_spec()
    PAPER_CIRCUITS[SMOKE_CIRCUIT] = (
        CircuitSpec(SMOKE_CIRCUIT, n_gates=120, n_inputs=6, n_outputs=6,
                    frac_dff=0.05, depth=8),
        999,
    )
    try:
        for name, proto_name, run in _runs(p):
            with tempfile.TemporaryDirectory(prefix="commcheck-") as td:
                run(spec, td)
                yield name, proto_name, load_trace(td)
    finally:
        PAPER_CIRCUITS.pop(SMOKE_CIRCUIT, None)
        paper_circuit.cache_clear()
