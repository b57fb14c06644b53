"""Tests for the top-k / threshold selection kernels."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.utils.topk_ops import (
    _SAMPLED_MIN_N,
    _sampled_topk,
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


# --------------------------------------------------------------------------- #
# The unsorted kernel returns exactly the set a plain argpartition returns.
# --------------------------------------------------------------------------- #
def _kernel_input(kind, seed, n):
    """A length-``n`` vector of one of the shapes the kernel must survive."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    if kind == "rounded":  # ties everywhere, the k-th value included
        x = np.round(x, 1)
    elif kind == "sparse":  # mostly (signed) zeros
        x[rng.random(n) < 0.9] = 0.0
        x[rng.random(n) < 0.3] *= -1.0
    elif kind == "special":  # a few of every special value at random places
        for value, count in ((0.0, n // 8), (-0.0, n // 8), (np.inf, 3), (-np.inf, 3), (np.nan, 3)):
            x[rng.integers(0, n, size=count)] = value
    elif kind == "nan_heavy":  # more NaNs than k, fewer than the sample needs
        x[rng.permutation(n)[: n // 12]] = np.nan
    elif kind == "inf_heavy":  # enough infinities to fill a strided sample's top ranks
        x[rng.permutation(n)[: n // 4]] = -np.inf
    elif kind == "strided":  # every 32nd entry towers over the rest
        x[::32] += 1e3
    return x


def _argpartition_set(x, k):
    mag = np.abs(x)
    n = mag.shape[0]
    return set(np.argpartition(mag, n - k)[n - k:].tolist())


@given(
    kind=st.sampled_from(["normal", "rounded", "sparse", "special", "nan_heavy", "inf_heavy", "strided"]),
    seed=st.integers(0, 2**16),
    n=st.integers(_SAMPLED_MIN_N - 2000, _SAMPLED_MIN_N + 8000),
    divisor=st.one_of(st.integers(12, 20), st.integers(200, 4000)),
    path=st.just(None),
)
# One example per outcome of the sampled-threshold path; ``path`` names it.
@example(kind="normal", seed=0, n=_SAMPLED_MIN_N, divisor=100, path="sampled")
@example(kind="sparse", seed=0, n=_SAMPLED_MIN_N, divisor=16, path="fallback: t == 0")
@example(kind="inf_heavy", seed=0, n=_SAMPLED_MIN_N, divisor=16, path="fallback: t not finite")
@example(kind="strided", seed=0, n=_SAMPLED_MIN_N, divisor=16, path="fallback: fewer than k candidates")
@example(kind="nan_heavy", seed=0, n=_SAMPLED_MIN_N, divisor=16, path="fallback: k-th value not finite")
@example(kind="rounded", seed=0, n=_SAMPLED_MIN_N, divisor=16, path="fallback: tie at the k-th value")
@settings(max_examples=60, deadline=None)
def test_unsorted_topk_set_equals_argpartition_set(kind, seed, n, divisor, path):
    """``sort=False`` may reorder the top-k set but never change it."""
    x = _kernel_input(kind, seed, n)
    k = max(1, n // divisor)
    got = topk_indices(x, k, sort=False)
    assert got.dtype == np.int64 and got.shape[0] == k
    assert set(got.tolist()) == _argpartition_set(x, k)
    if path is not None:
        assert (_sampled_topk(x, k) is None) == path.startswith("fallback")
