"""Simulated cluster: determinism, clocks, collectives, failure modes."""

import pytest

from repro.cost.workmeter import WorkModel
from repro.parallel.mpi.comm import ANY_SOURCE, CommError, DeadlockError
from repro.parallel.mpi.netmodel import NetworkModel
from repro.parallel.mpi.simcluster import SimCluster

NET = NetworkModel(latency=1e-3, bandwidth=1e7)


def test_collectives_roundtrip():
    def prog(comm):
        data = comm.bcast({"v": 1} if comm.rank == 0 else None, root=0)
        assert data == {"v": 1}
        part = comm.scatter(
            [i * 10 for i in range(comm.size)] if comm.rank == 0 else None, root=0
        )
        assert part == comm.rank * 10
        g = comm.gather(part + 1, root=0)
        if comm.rank == 0:
            assert g == [1, 11, 21, 31]
        else:
            assert g is None
        comm.barrier()
        return comm.rank

    res = SimCluster(4, network=NET).run(prog)
    assert res.results == [0, 1, 2, 3]


def test_bcast_isolates_mutable_state():
    """Non-root ranks must get copies, not aliases (MPI semantics)."""

    def prog(comm):
        obj = comm.bcast([1, 2] if comm.rank == 0 else None, root=0)
        obj.append(comm.rank)
        comm.barrier()
        return obj

    res = SimCluster(3, network=NET).run(prog)
    assert res.results[1] == [1, 2, 1]
    assert res.results[2] == [1, 2, 2]


def test_p2p_ring():
    def prog(comm):
        comm.send(comm.rank, (comm.rank + 1) % comm.size, tag=3)
        src, v = comm.recv(source=(comm.rank - 1) % comm.size, tag=3)
        assert v == src == (comm.rank - 1) % comm.size
        return v

    res = SimCluster(5, network=NET).run(prog)
    assert res.results == [4, 0, 1, 2, 3]


def test_clocks_advance_with_compute():
    def prog(comm):
        comm.meter.charge("allocation", 1000.0 * (comm.rank + 1))
        comm.barrier()
        return comm.elapsed()

    model = WorkModel({"allocation": 1e-3})
    res = SimCluster(3, network=NET, work_model=model).run(prog)
    # Barrier synchronizes: everyone ends at the slowest rank's entry +
    # barrier cost; rank 2 charged 3 model-seconds.
    assert res.makespan >= 3.0
    assert max(res.clocks) - min(res.clocks) < 1e-6


def test_message_transfer_costs_time():
    def prog(comm):
        if comm.rank == 0:
            comm.send(b"x" * 10_000, 1)
            return comm.elapsed()
        src, _ = comm.recv(source=0)
        return comm.elapsed()

    res = SimCluster(2, network=NET).run(prog)
    # Receiver completes no earlier than transfer time (latency + bytes/bw).
    assert res.results[1] >= NET.latency + 10_000 / NET.bandwidth - 1e-9
    # Sender only pays the serialization, not the latency.
    assert res.results[0] < res.results[1]


def test_determinism_with_any_source():
    def prog(comm):
        if comm.rank == 0:
            log = []
            done = 0
            while done < comm.size - 1:
                src, msg = comm.recv(source=ANY_SOURCE)
                if msg == "done":
                    done += 1
                else:
                    log.append((src, msg))
            return tuple(log)
        comm.meter.charge("allocation", 100.0 * comm.rank)
        for k in range(3):
            comm.meter.charge("allocation", 50.0)
            comm.send(k, 0)
        comm.send("done", 0)
        return None

    model = WorkModel({"allocation": 1e-4})
    runs = [
        SimCluster(4, network=NET, work_model=model).run(prog).results[0]
        for _ in range(3)
    ]
    assert runs[0] == runs[1] == runs[2]
    assert len(runs[0]) == 9


def test_fifo_per_channel():
    def prog(comm):
        if comm.rank == 0:
            for k in range(20):
                comm.send(k, 1)
            return None
        got = [comm.recv(source=0)[1] for _ in range(20)]
        return got

    res = SimCluster(2, network=NET).run(prog)
    assert res.results[1] == list(range(20))


def test_tags_demultiplex():
    def prog(comm):
        if comm.rank == 0:
            comm.send("a", 1, tag=1)
            comm.send("b", 1, tag=2)
            return None
        # Receive tag 2 first even though tag 1 arrived earlier.
        _, b = comm.recv(source=0, tag=2)
        _, a = comm.recv(source=0, tag=1)
        return (a, b)

    res = SimCluster(2, network=NET).run(prog)
    assert res.results[1] == ("a", "b")


def test_deadlock_detected():
    def prog(comm):
        comm.recv(source=(comm.rank + 1) % comm.size)  # everyone waits

    with pytest.raises(CommError):
        SimCluster(2, network=NET).run(prog)


def test_p2p_right_after_a_collective_is_not_a_deadlock():
    """A rank released from a collective is running, not blocked, even
    before its thread wakes: a peer that races ahead into a recv it
    will answer must not see a deadlock."""

    def prog(comm):
        comm.scatter(list(range(comm.size)) if comm.rank == 0 else None)
        if comm.rank == 0:
            comm.send("ping", 1)
            return comm.recv(1)[1]
        comm.recv(0)
        comm.send("pong", 0)
        return None

    for _ in range(10):
        assert SimCluster(2, network=NET).run(prog).results == ["pong", None]


def test_collective_mismatch_detected():
    def prog(comm):
        if comm.rank == 0:
            comm.bcast(1, root=0)
        else:
            comm.gather(1, root=0)

    with pytest.raises(CommError):
        SimCluster(2, network=NET).run(prog)


def test_rank_exception_propagates():
    def prog(comm):
        if comm.rank == 1:
            raise ValueError("boom")
        comm.barrier()

    with pytest.raises((ValueError, CommError)):
        SimCluster(2, network=NET).run(prog)


def test_bad_rank_rejected():
    def prog(comm):
        comm.send(1, 99)

    with pytest.raises(CommError):
        SimCluster(2, network=NET).run(prog)


def test_scatter_length_checked():
    def prog(comm):
        comm.scatter([1] if comm.rank == 0 else None, root=0)

    with pytest.raises(CommError):
        SimCluster(2, network=NET).run(prog)


def test_size_one_cluster():
    def prog(comm):
        assert comm.bcast("x", root=0) == "x"
        assert comm.gather(5, root=0) == [5]
        comm.barrier()
        return comm.rank

    assert SimCluster(1, network=NET).run(prog).results == [0]


def test_progress_is_safe():
    def prog(comm):
        comm.meter.charge("allocation", 10)
        comm.progress()
        comm.barrier()
        return True

    assert all(SimCluster(3, network=NET).run(prog).results)
