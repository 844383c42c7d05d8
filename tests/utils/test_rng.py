"""Seeded RNG streams."""

import numpy as np
import pytest

from repro.utils.rng import RngStream


def test_same_seed_same_draws():
    a, b = RngStream(42), RngStream(42)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_seeds_differ():
    assert RngStream(1).random() != RngStream(2).random()


def test_randint_range():
    rng = RngStream(0)
    draws = [rng.randint(3, 7) for _ in range(200)]
    assert set(draws) <= {3, 4, 5, 6}
    assert len(set(draws)) == 4


def test_uniform_range():
    rng = RngStream(0)
    for _ in range(100):
        v = rng.uniform(-2.0, 3.0)
        assert -2.0 <= v < 3.0


def test_permutation_is_permutation():
    rng = RngStream(5)
    p = rng.permutation(20)
    assert sorted(p.tolist()) == list(range(20))


def test_shuffle_preserves_elements():
    rng = RngStream(5)
    items = list(range(30))
    rng.shuffle(items)
    assert sorted(items) == list(range(30))


def test_shuffle_deterministic():
    a, b = list(range(30)), list(range(30))
    RngStream(9).shuffle(a)
    RngStream(9).shuffle(b)
    assert a == b


def test_choice_single_and_multi():
    rng = RngStream(1)
    seq = ["x", "y", "z"]
    assert rng.choice(seq) in seq
    picks = rng.choice(seq, size=5)
    assert len(picks) == 5 and set(picks) <= set(seq)


def test_random_vector_shape():
    v = RngStream(0).random_vector(17)
    assert v.shape == (17,)
    assert ((v >= 0) & (v < 1)).all()
