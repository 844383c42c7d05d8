"""Socket router backend: fault injection, fd budget, determinism.

The conformance suite (``test_backend_conformance.py``) pins the shared
communicator semantics; this file pins what only the router can do —
surviving a killed rank without leaking descriptors, catching a *wedged*
(SIGSTOPped) rank through heartbeats, re-admitting a disconnected rank,
admitting every rank — first connect or reconnect — through one
token-checked HELLO, honoring the run deadline, TCP addressing, the
p <= 256 bound — and the
determinism contract: a rank-addressed strategy on the socket backend is
bit-identical run to run and to the sim backend.

Failures are injected with seeded :class:`FaultPlan`s rather than ad-hoc
``os.kill`` helpers, so every failing run here is replayable bit-for-bit
— the same plan kills the same rank at the same comm op every time.
"""

import multiprocessing as mp
import os
import pickle
import socket
import time

import pytest

from repro.netlist.generator import CircuitSpec
from repro.netlist.suite import PAPER_CIRCUITS
from repro.parallel.faults import KILL_EXIT, FaultPlan
from repro.parallel.mpi import socket_backend
from repro.parallel.mpi.comm import ANY_SOURCE, CommError
from repro.parallel.mpi.message import FRAME_HELLO, send_frame
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


# ---------------------------------------------------------------- admission


def _rank_of(comm):
    return comm.rank


#: The dial-patching tests rely on forked ranks inheriting the patch.
needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="needs fork"
)


def test_fast_exiting_ranks_are_admitted_not_reported_dead():
    """A rank can connect, send HELLO and RESULT and exit before the
    router accepts it: its queued connection must be admitted and its
    result read, never mistaken for a death."""
    for _ in range(20):
        res = SocketCluster(8, timeout=60).run(_rank_of)
        assert res.results == list(range(8))
        assert res.lost == {}


#: Stray connections a rank holds open until it exits, so the router
#: cannot see them close before it judges their HELLO.
_STRAYS: list[socket.socket] = []


def _dial_stray(family, address, claimed, token):
    sock = socket.socket(family, socket.SOCK_STREAM)
    sock.connect(address)
    send_frame(sock, FRAME_HELLO, claimed, -1, 0, token)
    _STRAYS.append(sock)


def _pingpong_with_strays(comm):
    # Mid-run, rank 1 dials the router with wrong-token HELLOs claiming
    # every rank; the router must close them without disturbing the run.
    if comm.rank == 1:
        for claimed in range(comm.size):
            _dial_stray(comm._family, comm._address, claimed,
                        pickle.dumps("not-the-session-token"))
    return _pingpong(comm)


def test_wrong_token_hello_mid_run_is_ignored():
    clean = SocketCluster(3, timeout=60).run(_pingpong)
    strayed = SocketCluster(3, timeout=60).run(_pingpong_with_strays)
    assert strayed.results == clean.results


@needs_fork
@pytest.mark.parametrize(
    "bad_token", [pickle.dumps("wrong"), b""], ids=["wrong", "missing"]
)
def test_bad_token_first_connect_is_ignored(monkeypatch, bad_token):
    """Before its real dial, rank 1 presents a bad (or no) token for
    itself — an away rank — and keeps that connection open: the router
    closes it and admits only the real HELLO."""
    dial = socket_backend._dial

    def dial_after_stray(family, address, rank, token):
        if rank == 1:
            _dial_stray(family, address, rank, bad_token)
        return dial(family, address, rank, token)

    clean = SocketCluster(3, timeout=60).run(_pingpong)
    monkeypatch.setattr(socket_backend, "_dial", dial_after_stray)
    strayed = SocketCluster(3, timeout=60, start_method="fork").run(_pingpong)
    assert strayed.results == clean.results


def _exit_before_hello(monkeypatch):
    """Rank 2's process exits inside its first dial (fork inherits the
    patched module)."""
    dial = socket_backend._dial

    def dial_or_exit(family, address, rank, token):
        if rank == 2:
            os._exit(KILL_EXIT)
        return dial(family, address, rank, token)

    monkeypatch.setattr(socket_backend, "_dial", dial_or_exit)


@needs_fork
def test_rank_exiting_before_hello_aborts_the_run(monkeypatch):
    _exit_before_hello(monkeypatch)
    with pytest.raises(
        CommError,
        match=rf"died without result: rank 2 \(exitcode {KILL_EXIT}\)",
    ):
        SocketCluster(4, timeout=60, start_method="fork").run(_rank_of)


@needs_fork
def test_rank_exiting_before_hello_is_lost_under_degrade(monkeypatch):
    _exit_before_hello(monkeypatch)
    res = SocketCluster(
        4, timeout=60, start_method="fork", on_rank_failure="degrade",
    ).run(_rank_of)
    assert list(res.lost) == [2]
    assert f"rank 2 (exitcode {KILL_EXIT})" in res.lost[2]
    assert res.results == [0, 1, None, 3]


@pytest.mark.parametrize("at", [1, 2])
def test_disconnect_around_admission_reconnects(at):
    """A drop at a rank's first ops races admission and routing: the
    frames for the rank queue until its re-HELLO, nothing is lost and no
    living peer is reported down."""
    clean = SocketCluster(3, timeout=60).run(_pingpong)
    for _ in range(5):
        faulted = SocketCluster(
            3, timeout=60,
            faults=FaultPlan.parse(f"disconnect:rank=1:at={at}", seed=0),
        ).run(_pingpong)
        assert faulted.results == clean.results


# ------------------------------------------------------ topology and bounds


def test_tcp_address_round_trips():
    res = SocketCluster(2, address=("127.0.0.1", 0)).run(_echo)
    assert res.results[0] == [0, 1]


def test_start_method_is_available():
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
