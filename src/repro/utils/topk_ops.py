"""Top-k and threshold selection kernels.

These are the computational primitives that every sparsifier in
:mod:`repro.sparsifiers` is built from.  All kernels operate on the absolute
magnitude of the input (the paper's sparsifiers select gradients by
magnitude) and return **indices** into the flat input vector, matching the
interface of Algorithm 1 in the paper (the sparsifier returns ``idx``, the
values are gathered later from the error-feedback accumulator).

Implementation notes
--------------------
``numpy.argpartition`` gives an O(n) selection of the k largest entries, with
an additional O(k log k) sort when deterministic ordering is requested.  This
mirrors the O(n log k) cost model the paper uses for Top-k selection closely
enough for relative comparisons, and the analytic cost model in
:mod:`repro.analysis.cost_model` is used when exact paper-model numbers are
needed.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "topk_indices",
    "topk_values",
    "topk_threshold",
    "threshold_indices",
    "select_magnitude",
    "union_indices",
]


def _validate_vector(values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    return arr


def topk_indices(values: np.ndarray, k: int, *, sort: bool = True) -> np.ndarray:
    """Return indices of the ``k`` largest-magnitude entries of ``values``.

    Parameters
    ----------
    values:
        1-D array (higher-dimensional input is flattened).
    k:
        Number of entries to select.  ``k <= 0`` returns an empty index
        array; ``k >= len(values)`` returns all indices.
    sort:
        When true (default) the returned indices are ordered by decreasing
        magnitude, which makes the selection deterministic given the input.

    Returns
    -------
    numpy.ndarray
        ``int64`` indices into the flattened input.
    """
    arr = _validate_vector(values)
    n = arr.shape[0]
    k = int(k)
    if k <= 0 or n == 0:
        return np.empty(0, dtype=np.int64)
    if k >= n:
        idx = np.arange(n, dtype=np.int64)
        if sort:
            order = np.argsort(-np.abs(arr[idx]), kind="stable")
            idx = idx[order]
        return idx
    mag = np.abs(arr)
    part = np.argpartition(mag, n - k)[n - k:]
    if sort:
        order = np.argsort(-mag[part], kind="stable")
        part = part[order]
    return part.astype(np.int64, copy=False)


def topk_values(values: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(indices, values[indices])`` for the top-k selection."""
    arr = _validate_vector(values)
    idx = topk_indices(arr, k)
    return idx, arr[idx]


def topk_threshold(values: np.ndarray, k: int) -> float:
    """Return the magnitude of the k-th largest entry (the Top-k threshold).

    For ``k <= 0`` the threshold is ``+inf`` (nothing selected); for
    ``k >= len(values)`` it is ``0.0`` (everything selected).
    """
    arr = _validate_vector(values)
    n = arr.shape[0]
    k = int(k)
    if n == 0 or k <= 0:
        return float("inf")
    if k >= n:
        return 0.0
    mag = np.abs(arr)
    return float(np.partition(mag, n - k)[n - k])


def threshold_indices(values: np.ndarray, threshold: float) -> np.ndarray:
    """Return indices whose magnitude is **at least** ``threshold``.

    This is the O(n) selection primitive of hard-threshold sparsifiers and
    SIDCo.  The comparison is inclusive so that ``threshold_indices(v,
    topk_threshold(v, k))`` selects at least ``k`` elements (ties included).
    """
    arr = _validate_vector(values)
    if not np.isfinite(threshold):
        if threshold > 0:
            return np.empty(0, dtype=np.int64)
        return np.arange(arr.shape[0], dtype=np.int64)
    return np.flatnonzero(np.abs(arr) >= threshold).astype(np.int64, copy=False)


def select_magnitude(values: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Gather ``values`` at ``indices`` (flat), returning a dense 1-D array."""
    arr = _validate_vector(values)
    idx = np.asarray(indices, dtype=np.int64)
    return arr[idx]


def union_indices(indices: np.ndarray) -> np.ndarray:
    """Sorted, duplicate-free ``int64`` copy of ``indices``.

    Equal to ``np.unique`` on index arrays, element for element, but
    computed as one sort plus an adjacent-duplicate mask: NumPy 2.4's
    ``np.unique`` hashes integer input, which costs ~20x more on the
    ~10^5-index unions the exchange forms every step.
    """
    ordered = np.sort(np.asarray(indices, dtype=np.int64).reshape(-1))
    if ordered.shape[0] < 2:
        return ordered
    keep = np.empty(ordered.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]
