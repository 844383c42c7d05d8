"""Traced runs for the P505/P506 rules: record, or read, then replay.

``repro lint --trace`` needs real traces to sanitize.  This driver runs
every strategy once on the deterministic sim backend with a tiny
generated circuit (fast — the point is protocol coverage, not search
quality), with tracing armed, and replays each run's per-rank event
lists against the matching static protocol.  ``--trace-dir`` replays a
directory of recorded traces instead.

The sim backend is used deliberately: it is deterministic, so CI traced
runs are reproducible, and the recorder is already proven bit-identical
(the strategies' results do not change when tracing is on — see
``tests/check/test_trace.py``).
"""

from __future__ import annotations

import tempfile
from typing import Any, Callable, Sequence

from repro.check.analysis import finding
from repro.check.events import Protocol
from repro.check.replay import check_traces
from repro.lint.findings import Finding
from repro.netlist.generator import CircuitSpec
from repro.netlist.suite import PAPER_CIRCUITS, paper_circuit
from repro.parallel.runners import ExperimentSpec
from repro.parallel.trace import TraceError, load_trace

__all__ = ["replay_dir", "replay_smoke_runs", "SMOKE_CIRCUIT"]

#: Registry key for the throwaway smoke circuit.
SMOKE_CIRCUIT = "_trace120"


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


def replay_smoke_runs(
    protocols: Sequence[Protocol], p: int = 3,
) -> list[Finding]:
    """Run every strategy traced and replay each run's traces against
    its static protocol."""
    by_name = {proto.name: proto for proto in protocols}
    spec = ExperimentSpec(
        circuit=SMOKE_CIRCUIT, objectives=("wirelength", "power"),
        iterations=6, seed=3,
    )
    PAPER_CIRCUITS[SMOKE_CIRCUIT] = (
        CircuitSpec(SMOKE_CIRCUIT, n_gates=120, n_inputs=6, n_outputs=6,
                    frac_dff=0.05, depth=8),
        999,
    )
    out: list[Finding] = []
    try:
        for _name, proto_name, run in _runs(p):
            with tempfile.TemporaryDirectory(prefix="trace-") as td:
                run(spec, td)
                out.extend(check_traces(
                    load_trace(td), protocol=by_name.get(proto_name)
                ))
    finally:
        PAPER_CIRCUITS.pop(SMOKE_CIRCUIT, None)
        paper_circuit.cache_clear()
    return out


def replay_dir(trace_dir: str) -> list[Finding]:
    """Replay the ``rank-N.jsonl`` traces recorded in ``trace_dir``; a
    line that is not one JSON record is a P506 finding."""
    try:
        traces = load_trace(trace_dir)
    except TraceError as exc:
        return [finding(
            "P506", exc.path, exc.line,
            f"trace line is not one JSON record ({exc.reason}): the "
            "trace is torn or edited and cannot be replayed",
        )]
    return check_traces(traces, protocol=None)
