"""Network model costs and row-partition patterns."""

import pytest

from repro.parallel.mpi.netmodel import NetworkModel
from repro.parallel.partition import (
    contiguous_row_pattern,
    fixed_row_pattern,
    pattern_by_name,
    random_row_pattern,
    strided_row_pattern,
)
from repro.utils.rng import RngStream


# ---------------------------------------------------------------- netmodel
def test_p2p_time_structure():
    net = NetworkModel(latency=1e-3, bandwidth=1e7)
    assert net.p2p_time(0) == pytest.approx(1e-3 + 64 / 1e7)  # floor applies
    assert net.p2p_time(10_000) == pytest.approx(1e-3 + 1e-3)


def test_collectives_monotone_in_size():
    net = NetworkModel()
    assert net.bcast_time(100, 4) < net.bcast_time(100_000, 4)
    assert net.gather_time(100, 4) < net.gather_time(100_000, 4)


def test_collectives_nearly_flat_in_p():
    """The paper's Table 1 is flat in p; the model must grow sub-linearly."""
    net = NetworkModel()
    t2 = net.bcast_time(5000, 2)
    t8 = net.bcast_time(5000, 8)
    assert t8 < 4 * t2


def test_single_rank_collectives_free():
    net = NetworkModel()
    assert net.bcast_time(1000, 1) == 0.0
    assert net.barrier_time(1) == 0.0


def test_model_validation():
    with pytest.raises(ValueError):
        NetworkModel(latency=0)
    with pytest.raises(ValueError):
        NetworkModel(bandwidth=-1)


# ---------------------------------------------------------------- patterns
def assert_partition(parts, num_rows, m):
    assert len(parts) == m
    flat = sorted(r for part in parts for r in part)
    assert flat == list(range(num_rows))
    assert all(part for part in parts)  # nobody empty


@pytest.mark.parametrize("num_rows,m", [(10, 2), (11, 3), (18, 5), (7, 7)])
def test_contiguous_partitions(num_rows, m):
    parts = contiguous_row_pattern(num_rows, m)
    assert_partition(parts, num_rows, m)
    for part in parts:
        assert part == list(range(part[0], part[0] + len(part)))


@pytest.mark.parametrize("num_rows,m", [(10, 2), (11, 3), (18, 5)])
def test_strided_partitions(num_rows, m):
    parts = strided_row_pattern(num_rows, m)
    assert_partition(parts, num_rows, m)
    for j, part in enumerate(parts):
        assert all(r % m == j for r in part)


def test_fixed_alternates():
    even = fixed_row_pattern(12, 3, iteration=0)
    odd = fixed_row_pattern(12, 3, iteration=1)
    assert even == contiguous_row_pattern(12, 3)
    assert odd == strided_row_pattern(12, 3)
    assert fixed_row_pattern(12, 3, iteration=2) == even


def test_fixed_mobility_two_steps():
    """Paper claim: with the alternating pattern 'each cell can move to any
    position on the grid in at most two steps'.

    Formally: stride step (odd iteration) then slice step (even iteration)
    reaches every row from every row.  The claim needs slices at least as
    long as the stride (num_rows >= m²) — true for [5]'s grids; we verify
    it at 25 rows × 5 processors and 9 × 3.
    """
    for num_rows, m in [(25, 5), (9, 3), (12, 3)]:
        slices = fixed_row_pattern(num_rows, m, 0)
        strides = fixed_row_pattern(num_rows, m, 1)
        slice_of = {r: set(part) for part in slices for r in part}
        stride_of = {r: set(part) for part in strides for r in part}
        for a in range(num_rows):
            reach = set()
            for mid in stride_of[a]:
                reach |= slice_of[mid]
            assert reach == set(range(num_rows)), (num_rows, m, a)


def reach_iterations(pattern, num_rows, m, max_steps=12):
    """Iterations until a cell starting in row 0 can have reached every
    row (``max_steps + 1`` if it never does)."""
    rng = RngStream(0)
    reachable = {0}
    for step in range(1, max_steps + 1):
        parts = pattern_by_name(pattern, num_rows, m, step - 1, rng)
        part_of = {r: set(part) for part in parts for r in part}
        reachable = set().union(*(part_of[r] for r in reachable))
        if len(reachable) == num_rows:
            return step
    return max_steps + 1


def test_pattern_mobility():
    """The alternation argument ``parallel/partition.py`` cites: on an
    18-row grid at m=5 the paper's fixed and random patterns let a cell
    reach every row within a few iterations, and the contiguous-only
    pattern never does."""
    assert reach_iterations("fixed", 18, 5) <= 3
    assert reach_iterations("random", 18, 5) <= 6
    assert reach_iterations("contiguous", 18, 5) > 12


def test_random_pattern_partitions():
    parts = random_row_pattern(13, 4, RngStream(0))
    assert_partition(parts, 13, 4)


def test_random_pattern_varies():
    rng = RngStream(0)
    a = random_row_pattern(12, 3, rng)
    b = random_row_pattern(12, 3, rng)
    assert a != b  # fresh permutation each draw


def test_random_pattern_seeded():
    a = random_row_pattern(12, 3, RngStream(5))
    b = random_row_pattern(12, 3, RngStream(5))
    assert a == b


def test_pattern_by_name_dispatch():
    rng = RngStream(1)
    assert pattern_by_name("fixed", 10, 2, 0, rng) == fixed_row_pattern(10, 2, 0)
    assert pattern_by_name("contiguous", 10, 2, 3, rng) == contiguous_row_pattern(10, 2)
    assert_partition(pattern_by_name("random", 10, 2, 0, rng), 10, 2)
    with pytest.raises(ValueError, match="unknown row pattern"):
        pattern_by_name("zigzag", 10, 2, 0, rng)


def test_too_few_rows_rejected():
    with pytest.raises(ValueError, match="cannot split"):
        contiguous_row_pattern(3, 5)
