"""Fault injection and trace recording armed together on one run.

Both act at the comm boundary: the fault plan fires before an op, the
recorder logs the op once it happened.  These tests pin how the two
compose — a dropped or killed op never reaches the trace, collectives
stay one event, call sites point past both layers — and that a run with
neither armed runs the caller's rank function untouched.
"""

import sys

import pytest

from repro.netlist.generator import CircuitSpec
from repro.netlist.suite import PAPER_CIRCUITS, paper_circuit
from repro.parallel import type3
from repro.parallel.faults import FaultPlan, InjectedFault
from repro.parallel.mpi import simcluster, socket_backend
from repro.parallel.mpi.comm import DeadlockError
from repro.parallel.mpi.simcluster import SimCluster
from repro.parallel.mpi.socket_backend import SocketCluster
from repro.parallel.runners import ExperimentSpec
from repro.parallel.trace import load_trace


@pytest.fixture(scope="module", autouse=True)
def tiny_suite_entry():
    PAPER_CIRCUITS["_faulttrace"] = (
        CircuitSpec("_faulttrace", n_gates=80, n_inputs=5, n_outputs=5,
                    frac_dff=0.05, depth=7),
        78,
    )
    yield
    PAPER_CIRCUITS.pop("_faulttrace")
    paper_circuit.cache_clear()


def _stream(comm):
    """Rank 1 sends three labelled messages; rank 0 takes three."""
    if comm.rank == 1:
        for k in (1, 2, 3):
            comm.send((f"m{k}", k), 0)
        return None
    return [comm.recv(1)[1] for _ in range(3)]


def _every_op(comm):
    """Each public op once or more, all rank-addressed (no ANY_SOURCE)."""
    peer = 1 - comm.rank
    if comm.rank == 0:
        comm.send(("ping", 1), peer, tag=4)
        reply = comm.recv(peer, tag=5)[1]
    else:
        reply = comm.recv(peer, tag=4)[1]
        comm.send(("pong", 2), peer, tag=5)
    comm.barrier()
    rows = comm.bcast(("rows", 3) if comm.rank == 0 else None, root=0)
    part = comm.scatter([("part", r) for r in range(comm.size)]
                        if comm.rank == 0 else None, root=0)
    gathered = comm.gather(("done", comm.rank), root=0)
    return reply, rows, part, gathered


def _shape(events):
    """The op/peer/tag/label sequence of one rank's trace."""
    return [
        (ev["op"], ev.get("dst", ev.get("src", ev.get("root"))),
         ev.get("req"), ev.get("tag"), ev.get("label"))
        for ev in events
    ]


# ------------------------------------------------------------------- sim


def test_dropped_send_is_never_recorded(tmp_path):
    plan = FaultPlan.parse("drop:rank=1:at=2", seed=0)
    with pytest.raises(DeadlockError):
        SimCluster(2, faults=plan, trace_dir=str(tmp_path)).run(_stream)
    traces = load_trace(tmp_path)
    sent = [ev["label"] for ev in traces[1] if ev["op"] == "send"]
    assert sent == ["m1", "m3"]
    got = [ev["label"] for ev in traces[0] if ev["op"] == "recv"]
    assert got == ["m1", "m3"]


@pytest.mark.parametrize("at", [1, 2, 4, 6])
def test_killed_rank_records_exactly_the_ops_before_the_kill(tmp_path, at):
    plan = FaultPlan.parse(f"kill:rank=1:at={at}", seed=0)
    with pytest.raises(InjectedFault, match=f"at comm op {at}"):
        SimCluster(2, faults=plan, trace_dir=str(tmp_path)).run(_every_op)
    assert len(load_trace(tmp_path)[1]) == at - 1


def test_traced_bcast_on_a_sim_comm_is_one_event(tmp_path):
    def bcasts(comm):
        assert isinstance(comm, simcluster._SimComm)
        return [comm.bcast(("b", k) if comm.rank == 0 else None, root=0)
                for k in range(3)]

    plan = FaultPlan.parse("delay:rank=1:at=1:seconds=0", seed=0)
    SimCluster(2, faults=plan, trace_dir=str(tmp_path)).run(bcasts)
    for rank, events in load_trace(tmp_path).items():
        assert [ev["op"] for ev in events] == ["bcast"] * 3, rank
        assert [ev["i"] for ev in events] == [0, 1, 2]


def test_call_sites_point_past_the_fault_and_trace_layers(tmp_path):
    plan = FaultPlan.parse("delay:rank=1:at=1:seconds=0", seed=0)
    SimCluster(2, faults=plan, trace_dir=str(tmp_path / "own")).run(_every_op)
    for events in load_trace(tmp_path / "own").values():
        assert events
        assert {ev["file"] for ev in events} == {__file__}

    spec = ExperimentSpec(circuit="_faulttrace", iterations=3, seed=1)
    plan = FaultPlan.parse("delay:rank=2:at=2:seconds=0", seed=0)
    SimCluster(3, faults=plan, trace_dir=str(tmp_path / "t3")).run(
        type3._spmd, kwargs=dict(spec=spec, iterations=3, retry_threshold=1),
    )
    for events in load_trace(tmp_path / "t3").values():
        assert events
        assert {ev["file"] for ev in events} == {type3.__file__}


def _caller(comm):
    """Where the rank function was called from, and whether any op is
    shadowed on the communicator instance."""
    shadowed = sorted(
        op for op in ("send", "recv", "bcast", "scatter", "gather", "barrier")
        if op in vars(comm)
    )
    return sys._getframe(1).f_code.co_filename, shadowed


def test_unarmed_sim_cluster_runs_the_callers_fn():
    results = SimCluster(2).run(_caller).results
    assert results == [(simcluster.__file__, [])] * 2


# ---------------------------------------------------------------- socket


def test_unarmed_socket_cluster_runs_the_callers_fn():
    results = SocketCluster(2, timeout=60).run(_caller).results
    assert results == [(socket_backend.__file__, [])] * 2


def test_socket_delay_keeps_the_traced_sequence(tmp_path):
    clean = SocketCluster(2, timeout=60, trace_dir=str(tmp_path / "clean"))
    want = clean.run(_every_op).results
    plan = FaultPlan.parse("delay:rank=1:at=1;delay:rank=0:at=1", seed=0)
    delayed = SocketCluster(
        2, timeout=60, faults=plan, trace_dir=str(tmp_path / "delayed"),
    )
    assert delayed.run(_every_op).results == want
    base = load_trace(tmp_path / "clean")
    got = load_trace(tmp_path / "delayed")
    assert sorted(got) == sorted(base) == [0, 1]
    for rank in base:
        assert _shape(got[rank]) == _shape(base[rank]), rank
        # One event per public op: the socket backend's collectives are
        # built over its own send/recv, and none of those leak in.
        assert [ev["op"] for ev in got[rank]] == [
            *(("send", "recv") if rank == 0 else ("recv", "send")),
            "barrier", "bcast", "scatter", "gather",
        ]

