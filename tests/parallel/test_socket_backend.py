"""Socket router backend: fault injection, fd budget, determinism.

The conformance suite (``test_backend_conformance.py``) pins the shared
communicator semantics; this file pins what only the router can do —
surviving a killed rank without leaking descriptors, catching a *wedged*
(SIGSTOPped) rank through heartbeats, re-admitting a disconnected rank,
honoring the run deadline, TCP addressing, the p <= 256 bound — and the
determinism contract: a rank-addressed strategy on the socket backend is
bit-identical run to run and to the sim backend.

Failures are injected with seeded :class:`FaultPlan`s rather than ad-hoc
``os.kill`` helpers, so every failing run here is replayable bit-for-bit
— the same plan kills the same rank at the same comm op every time.
"""

import os
import time

import pytest

from repro.netlist.generator import CircuitSpec
from repro.netlist.suite import PAPER_CIRCUITS
from repro.parallel.faults import KILL_EXIT, FaultPlan
from repro.parallel.mpi.comm import ANY_SOURCE, CommError
from repro.parallel.mpi.socket_backend import (
    MAX_SOCKET_RANKS,
    SocketCluster,
    pick_start_method,
)
from repro.parallel.runners import ExperimentSpec
from repro.parallel.type2 import run_type2


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _echo(comm):
    return comm.gather(comm.rank, root=0)


# --------------------------------------------------------- fault injection


def _block(comm):
    # Every rank blocks on traffic that can never arrive; the armed fault
    # plan decides who fails first, and only the router's liveness
    # machinery (EOF, heartbeats, deadline) can end the run.
    comm.recv(ANY_SOURCE, tag=11)


def test_sigkill_rank_raises_within_deadline_and_leaks_nothing():
    plan = FaultPlan.parse("kill:rank=2:at=1", seed=0)
    cluster = SocketCluster(4, timeout=60, faults=plan)
    clean = SocketCluster(4, timeout=60)
    clean.run(_echo)  # warm-up: amortize lazy imports before counting fds
    before = _open_fds()
    t0 = time.perf_counter()
    with pytest.raises(
        CommError,
        match=rf"died without result: rank 2 \(exitcode {KILL_EXIT}\)",
    ):
        cluster.run(_block)
    # Detection is EOF-driven — far faster than the 60 s deadline.
    assert time.perf_counter() - t0 < 20
    # Survivors were reaped and every socket/selector/pipe was closed.
    import multiprocessing as mp

    assert not [c for c in mp.active_children() if "sockrank" in c.name]
    assert _open_fds() == before


def test_seeded_plan_reproduces_the_same_sigkill_failure():
    """A (seed, plan) pair is a replayable failure: the hashed victim and
    the error text are identical across runs."""
    plan = FaultPlan.parse("kill:at=1", seed=7)  # victim hashed from seed
    errors = []
    for _ in range(2):
        with pytest.raises(CommError) as exc_info:
            SocketCluster(4, timeout=60, faults=plan).run(_block)
        errors.append(str(exc_info.value))
    assert errors[0] == errors[1]
    assert f"exitcode {KILL_EXIT}" in errors[0]


def test_heartbeat_catches_wedged_rank_before_deadline():
    """SIGSTOP produces no EOF — only heartbeat staleness can see it."""
    cluster = SocketCluster(
        3, timeout=120, heartbeat=0.2, heartbeat_timeout=1.5,
        faults=FaultPlan.parse("wedge:rank=1:at=1", seed=0),
    )
    t0 = time.perf_counter()
    with pytest.raises(CommError, match="went silent: no heartbeat"):
        cluster.run(_block)
    # ~1.5 s staleness + a bounded kill-grace for the stopped process;
    # nowhere near the 120 s deadline.
    assert time.perf_counter() - t0 < 30


def _pingpong(comm, rounds=4):
    out = []
    for i in range(rounds):
        if comm.rank == 0:
            for r in range(1, comm.size):
                comm.send(i, r, tag=1)
            for r in range(1, comm.size):
                out.append(comm.recv(r, tag=2)[1])
        else:
            _src, v = comm.recv(0, tag=1)
            comm.send(v * 10 + comm.rank, 0, tag=2)
    return out


def test_disconnected_rank_reconnects_and_run_completes():
    """A dropped connection with a living process is not a failure: the
    rank re-HELLOs with its session token, the router re-admits it, and
    the results match a fault-free run exactly."""
    clean = SocketCluster(3, timeout=60).run(_pingpong)
    faulted = SocketCluster(
        3, timeout=60,
        faults=FaultPlan.parse("disconnect:rank=1:at=3", seed=0),
    ).run(_pingpong)
    assert faulted.results == clean.results


def _sleep_forever(comm):
    time.sleep(600)
    return comm.rank


def test_deadline_terminates_hung_run():
    t0 = time.perf_counter()
    with pytest.raises(CommError, match="deadline"):
        SocketCluster(2, timeout=1.0).run(_sleep_forever)
    assert time.perf_counter() - t0 < 20  # terminated, not slept out


# ------------------------------------------------------ topology and bounds


def test_tcp_address_round_trips():
    res = SocketCluster(2, address=("127.0.0.1", 0)).run(_echo)
    assert res.results[0] == [0, 1]


def test_start_method_is_available():
    import multiprocessing as mp

    assert pick_start_method() in mp.get_all_start_methods()
    # Explicit override is honoured.
    assert SocketCluster(2, start_method="spawn").start_method == "spawn"


def test_spawn_start_method_runs():
    res = SocketCluster(2, start_method="spawn").run(_echo)
    assert res.results[0] == [0, 1]


def test_size_validated_against_router_bound():
    with pytest.raises(ValueError, match=">= 1"):
        SocketCluster(0)
    with pytest.raises(ValueError, match="p <= 256"):
        SocketCluster(MAX_SOCKET_RANKS + 1)
    # The bound itself is constructible (no sockets until run()).
    assert SocketCluster(MAX_SOCKET_RANKS).size == MAX_SOCKET_RANKS
    assert MAX_SOCKET_RANKS == 256


# ------------------------------------------------------------- determinism


@pytest.fixture(scope="module", autouse=True)
def tiny_suite_entry():
    PAPER_CIRCUITS["_testsk"] = (
        CircuitSpec("_testsk", n_gates=100, n_inputs=5, n_outputs=5,
                    frac_dff=0.05, depth=7),
        987,
    )
    yield
    PAPER_CIRCUITS.pop("_testsk")
    from repro.netlist.suite import paper_circuit

    paper_circuit.cache_clear()


SPEC = ExperimentSpec(circuit="_testsk", objectives=("wirelength", "power"),
                      iterations=4, seed=7)


def test_type2_on_socket_is_bit_identical_run_to_run():
    """Rank-addressed traffic makes Type II reproducible on real
    processes: two socket runs land on identical solutions and meters."""
    a = run_type2(SPEC, p=4, pattern="random", cluster="socket")
    b = run_type2(SPEC, p=4, pattern="random", cluster="socket")
    assert a.best_mu == b.best_mu
    assert a.best_costs == b.best_costs
    assert a.extras["model_seconds"] == b.extras["model_seconds"]


def test_type2_on_socket_matches_sim_quality():
    sim = run_type2(SPEC, p=4, pattern="random", cluster="sim")
    sock = run_type2(SPEC, p=4, pattern="random", cluster="socket")
    assert sock.best_mu == sim.best_mu
    assert sock.best_costs == sim.best_costs
    assert sock.extras["cluster"] == "socket"
    assert sock.extras["wall_seconds"] > 0.0
