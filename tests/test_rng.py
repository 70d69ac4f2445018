"""`ringsync.rng.Rng` against numpy's `default_rng`, draw for draw: the
simulator's emission phases and rand switches, the CLI's `--fail` set and
the random layouts must not change when numpy is not loaded."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsync.rng import Rng

# One and several 32-bit seed words, and more words than SeedSequence's pool.
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 5]


def assert_same_stream(seed: int, rounds: int, n: int, scalars: int) -> None:
    """The simulator's order of draws: a C-order (rounds, n) block of
    emission phases, then one scalar per rand switch decision."""
    ours, theirs = Rng(seed), np.random.default_rng(seed)
    block = [ours.random() for _ in range(rounds * n)]
    assert block == theirs.random((rounds, n)).ravel().tolist()
    assert [ours.random() for _ in range(scalars)] == [theirs.random() for _ in range(scalars)]


@pytest.mark.parametrize("seed", SEEDS)
def test_random_matches_numpy(seed):
    assert_same_stream(seed, rounds=7, n=5, scalars=9)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**80), rounds=st.integers(0, 4), n=st.integers(0, 5))
def test_random_matches_numpy_on_any_seed(seed, rounds, n):
    assert_same_stream(seed, rounds, n, scalars=3)


# (n, k): Floyd's algorithm below n = 10,001 or for k <= n // 50, numpy's
# partial tail shuffle above both; (2**32, 5) draws a full 32-bit word.
CHOICES = [(400, 80), (10, 10), (10001, 200), (10001, 201), (20000, 401),
           (50000, 100), (1, 1), (7, 0), (2**32, 5)]


@pytest.mark.parametrize("n,k", CHOICES)
@pytest.mark.parametrize("seed", [0, 7, 2**64 + 3])
def test_choice_matches_numpy(seed, n, k):
    expected = np.random.default_rng(seed).choice(n, size=k, replace=False)
    assert Rng(seed).choice(n, k) == sorted(expected.tolist())


@pytest.mark.parametrize("n,k", [(3, 4), (3, -1), (2**32 + 1, 1)])
def test_choice_rejects_impossible_sizes(n, k):
    with pytest.raises(ValueError):
        Rng(0).choice(n, k)


# k = 2**32 - 1 and 2**32 take numpy's two full-word branches.
INTEGER_BOUNDS = [1, 2, 7, 2**32 - 1, 2**32]


def assert_same_integers(seed: int, ks: list) -> None:
    """integers(k) for each k, each followed by a random() and, on every
    other k, a second integers(k) that takes the buffered 32-bit half."""
    ours, theirs = Rng(seed), np.random.default_rng(seed)
    for step, k in enumerate(ks):
        draws = 2 if step % 2 else 1
        assert [ours.integers(k) for _ in range(draws)] == \
            [int(theirs.integers(k)) for _ in range(draws)]
        assert ours.random() == theirs.random()


@pytest.mark.parametrize("k", INTEGER_BOUNDS)
@pytest.mark.parametrize("seed", [0, 7, 2**64 + 3])
def test_integers_matches_numpy(seed, k):
    assert_same_integers(seed, [k] * 40)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**80),
       ks=st.lists(st.one_of(st.integers(1, 2**32), st.sampled_from(INTEGER_BOUNDS)),
                   max_size=12))
def test_integers_matches_numpy_on_any_seed(seed, ks):
    assert_same_integers(seed, ks)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**80), r=st.floats(0.0, 1e300))
def test_placement_draws_match_numpy(seed, r):
    # random_connected's order of draws: an anchor, a ray angle, a distance
    ours, theirs = Rng(seed), np.random.default_rng(seed)
    for k in range(1, 30):
        assert ours.integers(k) == int(theirs.integers(k))
        assert ours.uniform(0.0, 2.0 * math.pi) == theirs.uniform(0.0, 2.0 * math.pi)
        assert ours.uniform(2.0, 2.0 + r) == theirs.uniform(2.0, 2.0 + r)


@pytest.mark.parametrize("k", [0, -1, 2**32 + 1])
def test_integers_rejects_bounds_past_one_word(k):
    with pytest.raises(ValueError):
        Rng(0).integers(k)
