"""Tests for the top-k / threshold selection kernels."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.utils.topk_ops import (
    select_magnitude,
    threshold_indices,
    topk_indices,
    topk_threshold,
    topk_values,
    union_indices,
)


class TestTopkIndices:
    def test_selects_largest_magnitudes(self):
        values = np.array([0.1, -5.0, 3.0, 0.0, -2.0])
        idx = topk_indices(values, 2)
        assert set(idx.tolist()) == {1, 2}

    def test_sorted_by_decreasing_magnitude(self):
        values = np.array([1.0, -4.0, 3.0, -2.0])
        idx = topk_indices(values, 3)
        mags = np.abs(values[idx])
        assert list(mags) == sorted(mags, reverse=True)

    def test_k_zero_returns_empty(self):
        assert topk_indices(np.arange(5.0), 0).size == 0

    def test_k_negative_returns_empty(self):
        assert topk_indices(np.arange(5.0), -3).size == 0

    def test_k_larger_than_n_returns_all(self):
        values = np.array([1.0, -2.0, 0.5])
        idx = topk_indices(values, 10)
        assert sorted(idx.tolist()) == [0, 1, 2]

    def test_empty_input(self):
        assert topk_indices(np.empty(0), 3).size == 0

    def test_flattens_multidimensional_input(self):
        values = np.array([[1.0, -9.0], [2.0, 0.0]])
        idx = topk_indices(values, 1)
        assert idx.tolist() == [1]

    def test_dtype_is_int64(self):
        assert topk_indices(np.arange(10.0), 3).dtype == np.int64

    def test_unsorted_still_correct_set(self):
        values = np.array([5.0, 1.0, 4.0, 3.0, 2.0])
        idx = topk_indices(values, 2, sort=False)
        assert set(idx.tolist()) == {0, 2}


class TestTopkValues:
    def test_returns_indices_and_values(self):
        values = np.array([1.0, -7.0, 3.0])
        idx, vals = topk_values(values, 2)
        np.testing.assert_array_equal(vals, values[idx])
        assert set(idx.tolist()) == {1, 2}


class TestTopkThreshold:
    def test_threshold_is_kth_largest_magnitude(self):
        values = np.array([1.0, -4.0, 3.0, -2.0])
        assert topk_threshold(values, 2) == 3.0

    def test_threshold_inf_for_k_zero(self):
        assert topk_threshold(np.arange(4.0), 0) == float("inf")

    def test_threshold_zero_for_k_ge_n(self):
        assert topk_threshold(np.arange(4.0), 10) == 0.0

    def test_threshold_selects_at_least_k(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(100)
        k = 17
        threshold = topk_threshold(values, k)
        assert threshold_indices(values, threshold).size >= k


class TestThresholdIndices:
    def test_inclusive_comparison(self):
        values = np.array([1.0, 2.0, 3.0])
        idx = threshold_indices(values, 2.0)
        assert set(idx.tolist()) == {1, 2}

    def test_uses_magnitude(self):
        values = np.array([-5.0, 0.1, 4.0])
        idx = threshold_indices(values, 3.0)
        assert set(idx.tolist()) == {0, 2}

    def test_infinite_threshold_selects_nothing(self):
        assert threshold_indices(np.arange(5.0), float("inf")).size == 0

    def test_minus_infinite_threshold_selects_all(self):
        assert threshold_indices(np.arange(5.0), float("-inf")).size == 5


class TestSelectMagnitude:
    def test_gathers_values(self):
        values = np.array([10.0, 20.0, 30.0])
        np.testing.assert_array_equal(select_magnitude(values, np.array([2, 0])), [30.0, 10.0])


# --------------------------------------------------------------------------- #
# property-based tests
# --------------------------------------------------------------------------- #
finite_vectors = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(1, 200),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@given(values=finite_vectors, k=st.integers(0, 250))
@settings(max_examples=60, deadline=None)
def test_topk_count_property(values, k):
    """topk returns exactly min(k, n) indices, all unique and in range."""
    idx = topk_indices(values, k)
    expected = min(max(k, 0), values.size)
    assert idx.size == expected
    assert np.unique(idx).size == idx.size
    if idx.size:
        assert idx.min() >= 0 and idx.max() < values.size


@given(values=finite_vectors, k=st.integers(1, 50))
@settings(max_examples=60, deadline=None)
def test_topk_dominates_unselected(values, k):
    """Every selected magnitude >= every unselected magnitude."""
    idx = topk_indices(values, k)
    mask = np.zeros(values.size, dtype=bool)
    mask[idx] = True
    if mask.all():
        return
    selected_min = np.abs(values[mask]).min()
    unselected_max = np.abs(values[~mask]).max()
    assert selected_min >= unselected_max


@given(values=finite_vectors, k=st.integers(1, 50))
@settings(max_examples=60, deadline=None)
def test_threshold_consistency_with_topk(values, k):
    """Selecting by the Top-k threshold returns a superset of size >= min(k, n)."""
    k = min(k, values.size)
    threshold = topk_threshold(values, k)
    idx = threshold_indices(values, threshold)
    assert idx.size >= k


def _assert_same_as_unique(indices):
    before = indices.copy()
    got = union_indices(indices)
    expected = np.unique(indices)
    assert got.dtype == expected.dtype == np.int64
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(indices, before)  # the input is not sorted in place


@given(
    indices=hnp.arrays(
        dtype=np.int64,
        shape=st.integers(0, 300),
        # Wide values, and a narrow range that forces many duplicates.
        elements=st.one_of(st.integers(-(2**62), 2**62), st.integers(0, 20)),
    )
)
@example(indices=np.empty(0, dtype=np.int64))
@example(indices=np.array([7], dtype=np.int64))
@example(indices=np.full(9, 3, dtype=np.int64))
@settings(max_examples=150, deadline=None)
def test_union_matches_unique_on_random_indices(indices):
    _assert_same_as_unique(indices)


@given(
    sizes=st.lists(st.integers(0, 40), min_size=1, max_size=8),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_union_matches_unique_on_disjoint_per_rank_sets(sizes, seed):
    """DEFT-style input: per-rank sets that are disjoint and unsorted,
    concatenated in rank order."""
    rng = np.random.default_rng(seed)
    pool = rng.permutation(10 * sum(sizes) + 1)
    pieces = np.split(pool[: sum(sizes)], np.cumsum(sizes)[:-1])
    _assert_same_as_unique(np.concatenate(pieces).astype(np.int64))
