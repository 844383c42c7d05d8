"""Per-rank selection streams: ``stream_for(seed, rank_stream_id(rank))``.

Type II and Type III ranks draw their selection RNG from this one
scheme.  Property tests: a rank's stream is a pure function of
``(seed, rank)`` — identical across backends, start methods and
processes — and no two child streams of a seed (the named ones and the
ranks') share a draw over 10^5 samples.
"""

import numpy as np
import pytest

from repro.parallel.mpi.backend import make_cluster
from repro.parallel.runners import (
    INIT_STREAM,
    PATTERN_STREAM,
    SERIAL_STREAM,
    rank_stream_id,
    stream_for,
)
from repro.utils.rng import RngStream

SEED = 42
DRAWS = 100_000


def _rank_stream(seed, rank):
    return stream_for(seed, rank_stream_id(rank), "sel")


def test_rank_stream_is_a_pure_function_of_seed_and_rank():
    a = _rank_stream(SEED, 3).random_vector(64)
    b = _rank_stream(SEED, 3).random_vector(64)
    assert np.array_equal(a, b)
    assert _rank_stream(SEED, 3).name == f"sel[{rank_stream_id(3)}]"


def test_child_streams_pairwise_disjoint_over_1e5_draws():
    """No two child streams of one seed — the named ones and eight
    ranks' — share a single draw in their first 10^5 samples (53-bit
    uniforms: any overlap would mean correlated children)."""
    children = [INIT_STREAM, SERIAL_STREAM, PATTERN_STREAM]
    children += [rank_stream_id(r) for r in range(8)]
    assert len(set(children)) == len(children)
    draws = {
        c: np.sort(stream_for(SEED, c).random_vector(DRAWS)) for c in children
    }
    for a in children:
        for b in children:
            if a < b:
                assert np.intersect1d(draws[a], draws[b]).size == 0


def test_distinct_seeds_give_distinct_rank_streams():
    assert not np.array_equal(
        _rank_stream(1, 0).random_vector(16),
        _rank_stream(2, 0).random_vector(16),
    )


def test_rank_stream_is_an_rngstream_with_usual_draws():
    rs = _rank_stream(SEED, 0)
    assert isinstance(rs, RngStream)
    assert 0.0 <= rs.random() < 1.0
    assert 0 <= rs.randint(0, 10) < 10
    assert sorted(rs.permutation(5).tolist()) == [0, 1, 2, 3, 4]


# ------------------------------------------------- cross-backend identity


def _w_draws(comm, seed):
    return _rank_stream(seed, comm.rank).random_vector(8).tolist()


def _expected(p):
    return [_rank_stream(SEED, r).random_vector(8).tolist() for r in range(p)]


@pytest.mark.parametrize("backend", ["sim", "socket"])
def test_rank_streams_identical_on_every_backend(backend):
    """Rank k's stream is reconstructible from (seed, k) alone — the
    draws a real process makes equal a local in-process reconstruction."""
    p = 3
    res = make_cluster(backend, p).run(_w_draws, kwargs={"seed": SEED})
    assert res.results == _expected(p)


def test_rank_streams_stable_across_fork_and_spawn():
    """No process state leaks into the stream: fork and spawn children
    of the socket backend draw identical streams."""
    from repro.parallel.mpi.socket_backend import SocketCluster

    p = 2
    by_method = {
        method: SocketCluster(p, start_method=method)
        .run(_w_draws, kwargs={"seed": SEED})
        .results
        for method in ("fork", "spawn")
    }
    assert by_method["fork"] == by_method["spawn"] == _expected(p)
