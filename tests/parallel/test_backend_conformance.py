"""One communicator contract, two executions.

Parametrized conformance suite pinning sim (threads + virtual clock) and
socket (OS processes over a hub-and-spoke router) to the same observable
semantics: tag matching, out-of-order stashing, ANY_SOURCE behavior over
finished peers, dead-peer receives raising :class:`CommError`,
root-sequenced collectives, self-sends, rank failures, and per-rank
meter/clock shipping.  Anything a strategy can observe through a
``Communicator`` must be indistinguishable across backends (up to the
clock domain: model-seconds on sim, wall-seconds on socket).

Workers are module-level so the process backend can pickle them under
any start method.
"""

import os
import time

import pytest

from repro.parallel.mpi.backend import CLUSTERS, make_cluster
from repro.parallel.mpi.comm import ANY_SOURCE, CommError

BACKENDS = ("sim", "socket")


def test_suite_covers_every_registered_backend():
    assert set(BACKENDS) == set(CLUSTERS)


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


# ----------------------------------------------------------- tag matching


def _w_tags_out_of_order(comm):
    """Receive in the reverse of send order: forces the stash path."""
    if comm.rank == 0:
        comm.send("first", 1, tag=5)
        comm.send("second", 1, tag=6)
        return None
    got_6 = comm.recv(0, tag=6)
    got_5 = comm.recv(0, tag=5)
    return (got_6, got_5)


def test_tag_matching_stashes_out_of_order_messages(backend):
    res = make_cluster(backend, 2).run(_w_tags_out_of_order)
    assert res.results[1] == ((0, "second"), (0, "first"))


def _w_interleaved_sources(comm):
    """Cross-source *and* cross-tag reordering at one receiver."""
    if comm.rank != 0:
        comm.send((comm.rank, 0), 0, tag=0)
        comm.send((comm.rank, 1), 0, tag=1)
        return None
    return [
        comm.recv(2, tag=1),
        comm.recv(1, tag=1),
        comm.recv(2, tag=0),
        comm.recv(1, tag=0),
    ]


def test_interleaved_sources_and_tags_deliver_exactly(backend):
    res = make_cluster(backend, 3).run(_w_interleaved_sources)
    assert res.results[0] == [
        (2, (2, 1)),
        (1, (1, 1)),
        (2, (2, 0)),
        (1, (1, 0)),
    ]


def _w_self_send(comm):
    comm.send(("loopback", comm.rank), comm.rank, tag=2)
    return comm.recv(comm.rank, tag=2)


def test_self_send_is_local_and_ordered(backend):
    res = make_cluster(backend, 2).run(_w_self_send)
    for rank, got in enumerate(res.results):
        assert got == (rank, ("loopback", rank))


def _w_self_send_any_source(comm):
    comm.send("other-tag", comm.rank, tag=8)
    return comm.recv(ANY_SOURCE, tag=8)


def test_any_source_matches_a_stashed_self_send(backend):
    res = make_cluster(backend, 2).run(_w_self_send_any_source)
    assert res.results == [(0, "other-tag"), (1, "other-tag")]


# ------------------------------------------------------------- ANY_SOURCE


def _w_any_source_collects_all(comm):
    if comm.rank == 0:
        return sorted(
            comm.recv(ANY_SOURCE, tag=3) for _ in range(comm.size - 1)
        )
    comm.send(comm.rank * 10, 0, tag=3)
    return None


def test_any_source_collects_every_peer(backend):
    res = make_cluster(backend, 4).run(_w_any_source_collects_all)
    assert res.results[0] == [(1, 10), (2, 20), (3, 30)]


def _w_any_source_over_finished_peer(comm):
    """A finished peer must not wedge a wildcard receive on the rest."""
    if comm.rank == 0:
        return comm.recv(ANY_SOURCE, tag=9)
    if comm.rank == 1:
        time.sleep(0.2)  # let rank 2's exit land at rank 0 first
        comm.send("survivor", 0, tag=9)
    return None  # rank 2 finishes immediately, sending nothing


def _w_any_source_filters_by_tag(comm):
    if comm.rank != 0:
        # The decoy tag goes first: a wildcard recv on tag 2 must skip it.
        comm.send(f"decoy-{comm.rank}", 0, tag=1)
        comm.send(f"want-{comm.rank}", 0, tag=2)
        return None
    wanted = sorted(
        comm.recv(ANY_SOURCE, tag=2)[1] for _ in range(comm.size - 1)
    )
    decoys = sorted(
        comm.recv(ANY_SOURCE, tag=1)[1] for _ in range(comm.size - 1)
    )
    return wanted, decoys


def test_any_source_recv_filters_by_tag(backend):
    res = make_cluster(backend, 3).run(_w_any_source_filters_by_tag)
    assert res.results[0] == (["want-1", "want-2"], ["decoy-1", "decoy-2"])


def test_any_source_skips_finished_peers(backend):
    res = make_cluster(backend, 3).run(_w_any_source_over_finished_peer)
    assert res.results[0] == (1, "survivor")


# ---------------------------------------------------------- dead receives


def _w_recv_from_finished_peer(comm):
    if comm.rank == 0:
        comm.recv(1, tag=4)  # rank 1 exits without ever sending
    return None


def test_targeted_recv_from_finished_peer_raises(backend):
    """Blocking on a peer that exited cleanly is an error everywhere.

    sim raises :class:`DeadlockError` (a :class:`CommError`); socket sees
    the router's PEERDOWN broadcast.  Both surface as ``CommError`` from
    ``run()``.
    """
    with pytest.raises(CommError):
        make_cluster(backend, 2).run(_w_recv_from_finished_peer)


def _w_all_peers_finished(comm):
    if comm.rank == 0:
        comm.recv(ANY_SOURCE, tag=8)  # nobody left to send anything
    return None


def test_any_source_with_no_live_peers_raises(backend):
    with pytest.raises(CommError):
        make_cluster(backend, 3).run(_w_all_peers_finished)


# ------------------------------------------------------------ collectives


def _w_collectives(comm):
    val = comm.bcast("token" if comm.rank == 0 else None, root=0)
    part = comm.scatter(
        [i * i for i in range(comm.size)] if comm.rank == 0 else None,
        root=0,
    )
    total = comm.gather(part, root=0)
    comm.barrier()
    return (val, part, total)


def test_collectives_match_across_backends(backend):
    p = 4
    res = make_cluster(backend, p).run(_w_collectives)
    for rank, (val, part, total) in enumerate(res.results):
        assert val == "token"
        assert part == rank * rank
        if rank == 0:
            assert total == [i * i for i in range(p)]
        else:
            assert total is None


def _w_nonzero_root(comm):
    val = comm.bcast(comm.rank if comm.rank == 2 else None, root=2)
    return comm.gather(val, root=1)


def test_collectives_honor_nonzero_roots(backend):
    res = make_cluster(backend, 3).run(_w_nonzero_root)
    assert res.results[1] == [2, 2, 2]
    assert res.results[0] is None and res.results[2] is None


def test_one_rank_run_of_the_collectives(backend):
    res = make_cluster(backend, 1).run(_w_collectives)
    assert res.results == [("token", 0, [0])]


# ---------------------------------------------------------- rank failures


def _w_rank_raises(comm):
    if comm.rank == 1:
        raise RuntimeError("rank down")
    return comm.rank


def test_raising_rank_fails_the_run_with_its_message(backend):
    """sim re-raises the rank's own exception; socket ships its repr to
    the parent as a ``CommError``.  Either way the message survives."""
    expected = RuntimeError if backend == "sim" else CommError
    with pytest.raises(expected, match="rank down"):
        make_cluster(backend, 2).run(_w_rank_raises)


def _w_peer_exits_abruptly(comm):
    if comm.rank == 0:
        os._exit(3)  # no result, no cleanup
    try:
        comm.recv(source=0, tag=5)
    except CommError as exc:
        return f"survivor saw: {exc}"
    return "no error"


def test_survivor_blocked_on_a_vanished_peer_gets_commerror():
    """A survivor blocked on a dead peer gets ``CommError``, not a hang.

    Real processes only (``os._exit`` would take the whole sim host
    down).  The router may report either failure shape depending on
    which connection it drains first — both carry rank 0's death — and
    detection is EOF-driven, far inside the 30 s deadline.
    """
    t0 = time.perf_counter()
    with pytest.raises(CommError, match="rank 0|survivor saw"):
        make_cluster("socket", 2, timeout=30).run(_w_peer_exits_abruptly)
    assert time.perf_counter() - t0 < 15


def _w_p2p_before_collective(comm):
    # Every non-root ships a p2p message to the root *before* the
    # collectives: the root must stash the p2p traffic it reads while
    # waiting for collective messages, and recv() must find it later.
    if comm.rank != 0:
        comm.send(f"p2p-{comm.rank}", 0, tag=3)
    token = comm.bcast("token" if comm.rank == 0 else None, root=0)
    gathered = comm.gather(comm.rank * 10, root=0)
    if comm.rank == 0:
        p2p = sorted(
            comm.recv(ANY_SOURCE, tag=3)[1] for _ in range(comm.size - 1)
        )
        return token, gathered, p2p
    return token


def test_collectives_interleave_with_pending_p2p(backend):
    res = make_cluster(backend, 3).run(_w_p2p_before_collective)
    assert res.results[0] == ("token", [0, 10, 20], ["p2p-1", "p2p-2"])
    assert res.results[1:] == ["token", "token"]


# ------------------------------------------------- meters, clocks, shapes


def _w_elapsed(comm):
    comm.barrier()
    return comm.elapsed()


def test_elapsed_is_nonnegative_and_makespan_positive(backend):
    res = make_cluster(backend, 2).run(_w_elapsed)
    assert all(t >= 0.0 for t in res.results)
    assert res.makespan > 0.0


def _w_charge_per_rank(comm):
    comm.meter.charge("allocation", float(comm.rank + 1))
    comm.meter.charge("evaluation", 2.0)
    comm.barrier()
    return comm.rank


def test_meters_and_clocks_ship_per_rank(backend):
    p = 3
    cl = make_cluster(backend, p)
    res = cl.run(_w_charge_per_rank)
    assert res.results == list(range(p))
    assert len(res.clocks) == p and len(res.meters) == p
    # makespan is max(clock) on sim but parent wall-clock on socket
    # (it includes spawn/teardown), so pin only the ordering invariant.
    assert res.makespan >= max(res.clocks) >= 0.0
    for rank, meter in enumerate(res.meters):
        assert meter.units["allocation"] == pytest.approx(rank + 1.0)
        assert meter.units["evaluation"] == pytest.approx(2.0)


def _w_per_rank_kwargs(comm, base, bonus=0):
    return base + bonus + comm.rank


def test_per_rank_kwargs_reach_each_rank(backend):
    res = make_cluster(backend, 3).run(
        _w_per_rank_kwargs,
        args=(100,),
        per_rank_kwargs=[{"bonus": 10 * r} for r in range(3)],
    )
    assert res.results == [100, 111, 122]
    with pytest.raises(ValueError, match="one entry per rank"):
        make_cluster(backend, 2).run(
            _w_per_rank_kwargs, args=(1,), per_rank_kwargs=[{}]
        )


# ------------------------------------------- traced ANY_SOURCE fairness


_FAN_IN_MSGS = 3


def _w_traced_fan_in(comm):
    """p-1 senders race into one wildcard funnel; the trace records who won."""
    if comm.rank == 0:
        got = [
            comm.recv(ANY_SOURCE, tag=7)
            for _ in range((comm.size - 1) * _FAN_IN_MSGS)
        ]
        return got
    for seq in range(_FAN_IN_MSGS):
        comm.send(("msg", comm.rank, seq), 0, tag=7)
    return None


def test_traced_any_source_fan_in_is_fifo_per_sender(backend, tmp_path):
    """At p=5, wildcard arrival order is arbitrary across senders but
    must stay FIFO per sender — on every backend — and the trace must
    agree with what the strategy observed."""
    from repro.parallel.trace import load_trace

    p = 5
    td = tmp_path / backend
    res = make_cluster(backend, p, trace_dir=str(td)).run(_w_traced_fan_in)
    got = res.results[0]
    assert len(got) == (p - 1) * _FAN_IN_MSGS
    per_sender: dict = {}
    for src, (_kind, rank, seq) in got:
        assert src == rank
        per_sender.setdefault(src, []).append(seq)
    assert sorted(per_sender) == list(range(1, p))
    for src, seqs in per_sender.items():
        assert seqs == sorted(seqs), f"non-FIFO delivery from rank {src}"

    traces = load_trace(td)
    assert sorted(traces) == list(range(p))
    recvs = [ev for ev in traces[0] if ev["op"] == "recv"]
    assert [(ev["src"]) for ev in recvs] == [src for src, _ in got]
    assert all(ev["req"] == ANY_SOURCE and ev["tag"] == 7 for ev in recvs)
    for r in range(1, p):
        sends = [ev for ev in traces[r] if ev["op"] == "send"]
        assert [ev["dst"] for ev in sends] == [0] * _FAN_IN_MSGS


def test_traced_fan_in_replay_flags_the_funnel_race(backend, tmp_path):
    """The vector-clock sanitizer must call the p=5 funnel what it is:
    an ANY_SOURCE race (senders are mutually concurrent), with every
    recv still pairable to a send (no P506)."""
    from repro.check.replay import check_traces
    from repro.parallel.trace import load_trace

    td = tmp_path / backend
    make_cluster(backend, 5, trace_dir=str(td)).run(_w_traced_fan_in)
    findings = check_traces(load_trace(td))
    assert {f.rule for f in findings} == {"P505"}
    assert all("ANY_SOURCE message race" in f.message for f in findings)
