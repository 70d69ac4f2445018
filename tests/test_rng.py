"""`ringsync.rng.Rng` against numpy's `default_rng`, draw for draw: the
simulator's emission phases and rand switches and the CLI's `--fail` set
must not change when numpy is not loaded."""

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
