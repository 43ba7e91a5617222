"""themecoder's PCG64 stream draws what ``numpy.random.default_rng(seed)``
draws, for every draw kind that exemplar selection and sampling use."""

from __future__ import annotations

import numpy as np
import pytest

from themecoder.draws import Stream

SEEDS = [*range(200), 2**32, 2**64 + 1, 2**130 + 3]  # the last two have entropy past the 4-word pool

# (low, high) ranges: below 2**32; exactly 2**32 (one 32-bit draw); 2**31 + 1, whose
# Lemire draw rejects about half the time; above 2**32 (64-bit draws)
RANGES = [(0, 1), (0, 7), (3, 1000), (0, 2**32), (0, 2**31 + 1), (5, 2**40), (0, 2**63 - 1), (-(2**63), 2**63 - 1)]


@pytest.mark.parametrize("seed", SEEDS)
def test_integers_and_choice_interleaved_match_numpy(seed):
    """32-bit and 64-bit draws interleave on one stream, so a kept half-output
    must carry across draws of either width, as numpy's does."""
    rng, stream = np.random.default_rng(seed), Stream(seed)
    for low, high in RANGES:
        assert stream.integers(low, high) == int(rng.integers(low, high)), (low, high)
        assert stream.choice(9, 4) == rng.choice(9, size=4, replace=False).tolist()
    assert stream.integers(0, 2**64) == int(rng.integers(0, 2**64, dtype=np.uint64))  # one 64-bit draw
    assert stream.integers(0, 3) == int(rng.integers(0, 3))


@pytest.mark.parametrize("seed", [0, 1, 17, 2**64 + 1])
def test_choice_matches_numpy_for_small_populations(seed):
    rng, stream = np.random.default_rng(seed), Stream(seed)
    for n in range(1, 61):
        for k in sorted({0, 1, 2, n // 3, n // 2, n - 1, n} & set(range(n + 1))):
            assert stream.choice(n, k) == rng.choice(n, size=k, replace=False).tolist(), (n, k)


@pytest.mark.parametrize(
    "n, k",
    [(20000, 401), (20000, 400), (10001, 5000), (10000, 5000)],
    ids=["tail-shuffle", "floyd-at-the-boundary", "tail-shuffle-just-over-10000", "floyd-at-10000"],
)
def test_choice_matches_numpy_on_both_branches(n, k):
    for seed in (3, 4):
        assert Stream(seed).choice(n, k) == np.random.default_rng(seed).choice(n, size=k, replace=False).tolist()


def test_partial_fisher_yates_matches_numpy():
    """The draw sequence ``sample_random`` makes: 10 000 of 12 000."""
    rng, stream = np.random.default_rng(7), Stream(7)
    assert [stream.integers(i, 12000) for i in range(10000)] == [int(rng.integers(i, 12000)) for i in range(10000)]


def test_negative_seed_raises_value_error():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        Stream(-1)


@pytest.mark.parametrize("n, k", [(3, 4), (3, -1)])
def test_choice_refuses_more_values_than_the_population(n, k):
    with pytest.raises(ValueError, match=f"cannot take {k} distinct values of range\\({n}\\)"):
        Stream(0).choice(n, k)


def test_integers_refuses_an_empty_range():
    with pytest.raises(ValueError, match="high <= low"):
        Stream(0).integers(5, 5)
