"""Counter-based per-rank RNG substreams (``rank_substream``).

Property tests for the cluster-scale seeding scheme: substreams are a
pure function of ``(seed, rank)`` — identical across backends, start
methods and processes — and pairwise non-overlapping at the draw level
over 10^5 samples.
"""

import numpy as np
import pytest

from repro.parallel.mpi.backend import make_cluster
from repro.utils.rng import RngStream, rank_substream

SEED = 42
DRAWS = 100_000


def test_substream_is_a_pure_function_of_seed_and_rank():
    a = rank_substream(SEED, 3).random_vector(64)
    b = rank_substream(SEED, 3).random_vector(64)
    assert np.array_equal(a, b)
    assert rank_substream(SEED, 3).name == "rank3"


def test_substreams_pairwise_disjoint_over_1e5_draws():
    """No two ranks' streams share a single draw in their first 10^5
    samples (53-bit uniforms: any overlap would mean correlated keys)."""
    ranks = range(8)
    draws = {
        r: np.sort(rank_substream(SEED, r).random_vector(DRAWS))
        for r in ranks
    }
    for a in ranks:
        for b in ranks:
            if a < b:
                assert np.intersect1d(
                    draws[a], draws[b], assume_unique=False
                ).size == 0


def test_distinct_seeds_give_distinct_streams():
    assert not np.array_equal(
        rank_substream(1, 0).random_vector(16),
        rank_substream(2, 0).random_vector(16),
    )


def test_substream_is_an_rngstream_with_usual_draws():
    rs = rank_substream(SEED, 0)
    assert isinstance(rs, RngStream)
    assert 0.0 <= rs.random() < 1.0
    assert 0 <= rs.randint(0, 10) < 10
    assert sorted(rs.permutation(5).tolist()) == [0, 1, 2, 3, 4]


# ------------------------------------------------- cross-backend identity


def _w_draws(comm, seed):
    return rank_substream(seed, comm.rank).random_vector(8).tolist()


def _expected(p):
    return [rank_substream(SEED, r).random_vector(8).tolist() for r in range(p)]


@pytest.mark.parametrize("backend", ["sim", "socket"])
def test_substreams_identical_on_every_backend(backend):
    """Rank k's stream is reconstructible from (seed, k) alone — the
    draws a real process makes equal a local in-process reconstruction."""
    p = 3
    res = make_cluster(backend, p).run(_w_draws, kwargs={"seed": SEED})
    assert res.results == _expected(p)


def test_substreams_stable_across_fork_and_spawn():
    """No process state leaks into the key: fork and spawn children of
    the socket backend draw identical streams."""
    from repro.parallel.mpi.socket_backend import SocketCluster

    p = 2
    by_method = {
        method: SocketCluster(p, start_method=method)
        .run(_w_draws, kwargs={"seed": SEED})
        .results
        for method in ("fork", "spawn")
    }
    assert by_method["fork"] == by_method["spawn"] == _expected(p)
