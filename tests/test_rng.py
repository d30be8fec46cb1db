"""Batched per-record picks against numpy's per-record generator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logblend._rng import record_picks

MASK64 = 2**64 - 1


def numpy_picks(seed: int, line_id: int, n: int, k: int) -> list[int]:
    """The oracle: one numpy generator per (seed, line id)."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed & MASK64, spawn_key=(line_id,))
    )
    return rng.integers(0, n, size=k).tolist()


seeds = st.one_of(
    st.sampled_from([-1, -(2**63), 0, 1, 2**32, 2**63, MASK64]),
    st.integers(-(2**64), 2**64),
)
line_ids = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1]),
    st.integers(0, 2**32 - 1),
)
# 2**31 + 1 and 3 * 2**30 reject about half and a quarter of 32-bit draws.
pool_sizes = st.one_of(
    st.sampled_from([1, 2, 3, 2**31, 2**31 + 1, 3 * 2**30, 2**32 - 1]),
    st.integers(1, 2**32 - 1),
)


@given(
    seed=seeds,
    n=pool_sizes,
    records=st.lists(st.tuples(line_ids, st.integers(0, 8)), min_size=1, max_size=6),
)
@settings(max_examples=300, deadline=None)
def test_record_picks_match_numpy_generator(seed, n, records):
    ids = [line_id for line_id, _ in records]
    counts = [k for _, k in records]
    expected = [numpy_picks(seed, line_id, n, k) for line_id, k in records]
    assert record_picks(seed, ids, n, counts) == expected


def test_record_picks_golden_values():
    # Pinned literally so the contract holds even if numpy's stream drifts.
    cases = [
        ((0, [1], 10, [8]), [[6, 6, 3, 2, 0, 6, 0, 4]]),
        (
            (-1, [2**32 - 1], 2**32 - 1, [4]),
            [[3946205059, 2945503201, 3749608837, 391217729]],
        ),
        (
            (7, [5], 2**31 + 1, [6]),
            [[1029472635, 1606065939, 1815271131, 2087895875, 692322579, 740213703]],
        ),
        ((MASK64, [0], 2, [8]), [[0, 0, 1, 0, 1, 1, 1, 1]]),
        ((42, [123, 1], 1, [3, 0]), [[0, 0, 0], []]),
    ]
    for args, expected in cases:
        assert record_picks(*args) == expected, args


def test_record_picks_are_independent_of_batch_and_order():
    ids = [9, 3, 2**32 - 1, 3, 1]
    counts = [2, 1, 4, 3, 0]
    batched = record_picks(11, ids, 77, counts)
    assert batched == [record_picks(11, [i], 77, [k])[0] for i, k in zip(ids, counts)]
    assert record_picks(11, ids[::-1], 77, counts[::-1]) == batched[::-1]
    # A repeated line id draws the same stream; only the count differs.
    assert batched[1] == batched[3][:1]


def test_record_picks_empty_batch():
    assert record_picks(0, [], 5, []) == []


def test_negative_line_id_raises_like_numpy():
    with pytest.raises(ValueError):
        np.random.SeedSequence(0, spawn_key=(-1,))
    with pytest.raises(ValueError, match="non-negative"):
        record_picks(0, [1, -1], 5, [1, 1])


@pytest.mark.parametrize("n", [0, 2**32, 2**40])
def test_pool_size_outside_32_bits_raises(n):
    with pytest.raises(ValueError, match=r"2\*\*32 - 1"):
        record_picks(0, [1], n, [1])


@pytest.mark.parametrize("line_id", [2**32, 2**70 + 1])
def test_line_id_outside_32_bits_raises(line_id):
    with pytest.raises(ValueError, match=r"below 2\*\*32"):
        record_picks(2**63, [line_id], 1000, [3])
