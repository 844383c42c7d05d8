"""E7/E8: message traces of the strategies match the paper's pseudocode.

Figures 2–6 of the paper are pseudocode listings; these tests verify the
*communication shape* of our implementations against them by recording
which primitives each rank invokes per iteration.
"""

import pytest

from repro.netlist.generator import CircuitSpec
from repro.netlist.suite import PAPER_CIRCUITS, paper_circuit
from repro.parallel.mpi.simcluster import SimCluster
from repro.parallel.runners import ExperimentSpec
from repro.parallel import type1, type2, type3
from repro.parallel.trace import load_trace


@pytest.fixture(scope="module", autouse=True)
def tiny_suite_entry():
    PAPER_CIRCUITS["_trace"] = (
        CircuitSpec("_trace", n_gates=80, n_inputs=5, n_outputs=5,
                    frac_dff=0.05, depth=7),
        77,
    )
    yield
    PAPER_CIRCUITS.pop("_trace")
    paper_circuit.cache_clear()


def _trace(spmd, p, trace_dir, **kwargs):
    """Per-rank op names, as the comm-event recorder saw them."""
    SimCluster(p, trace_dir=str(trace_dir)).run(spmd, kwargs=kwargs)
    traces = load_trace(trace_dir)
    assert sorted(traces) == list(range(p))
    return {rank: [ev["op"] for ev in events] for rank, events in traces.items()}


SPEC = ExperimentSpec(circuit="_trace", iterations=3, seed=1)


def test_type1_trace_matches_figures_2_and_3(tmp_path):
    """Figure 2/3: per iteration, one placement broadcast and one goodness
    gather; no other traffic.  (+1 closing evaluation-only round.)"""
    logs = _trace(type1._spmd, 3, tmp_path, spec=SPEC, iterations=3)
    for rank, log in logs.items():
        assert log == ["bcast", "gather"] * 4, (rank, log)


def test_type2_trace_matches_figures_4_and_5(tmp_path):
    """Figure 4/5: per iteration, broadcast of (placement, row indices) and
    gather of partial placement rows."""
    logs = _trace(type2._spmd, 3, tmp_path, spec=SPEC, iterations=3, pattern="fixed")
    for rank, log in logs.items():
        assert log == ["bcast", "gather"] * 3, (rank, log)


def test_type3_trace_matches_figure_6(tmp_path):
    """Figure 6: slaves send reports/requests and a final done; the master
    only receives and replies (no collectives anywhere)."""
    logs = _trace(type3._spmd, 3, tmp_path, spec=SPEC, iterations=4, retry_threshold=1)
    master = logs[0]
    assert set(master) <= {"recv", "send"}
    assert master.count("recv") >= 2  # at least the two DONEs
    for rank in (1, 2):
        log = logs[rank]
        assert set(log) <= {"send", "recv"}
        assert log[-1] == "send"  # the final DONE
        # A request is always followed by a blocking reply receive.
        for i, op in enumerate(log):
            if op == "recv":
                assert log[i - 1] == "send"
