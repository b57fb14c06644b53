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
:mod:`repro.analysis.cost` is used when exact paper-model numbers are
needed.

Unsorted selection of a small ``k`` from a long floating-point vector
(``n >= 32768`` and ``16 k <= n``) first tries an exact sampled threshold:
DGC's sampling idea, made exact.  The ``(2 k m / n + 8)``-th largest of the ``m`` magnitudes in the
strided sample ``|x|[::32]`` is a lower threshold ``t``; the entries with
``not |x| < t`` (NaN included, as ``argpartition`` ranks it) are the
candidates, and ``argpartition`` runs on those alone.  When there are at
least ``k`` candidates the top-k all lie among them, so the candidates'
k-th largest value is the vector's; when no other entry ties with it, the
top-k set is ``{|x| >= kth}``, the one set any ``argpartition`` returns.
The result is that set in a different order.  The kernel falls back to the
full ``argpartition`` when the sample gives ``t == 0`` or a non-finite ``t``
(before the candidate pass), and when there are fewer than ``k``
candidates, the k-th value is not finite, or it ties with an entry left out
(after it).
"""

from __future__ import annotations

from typing import Optional, Tuple

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
    if not sort and arr.dtype.kind == "f" and n >= _SAMPLED_MIN_N and _SAMPLED_MAX_K_SHARE * k <= n:
        picked = _sampled_topk(arr, k)
        if picked is not None:
            return picked.astype(np.int64, copy=False)
    mag = np.abs(arr)
    part = np.argpartition(mag, n - k)[n - k:]
    if sort:
        order = np.argsort(-mag[part], kind="stable")
        part = part[order]
    return part.astype(np.int64, copy=False)


#: The sampled-threshold path runs only on vectors at least this long (below
#: it a full argpartition runs in cache and the path's fixed cost of a dozen
#: NumPy calls does not pay) ...
_SAMPLED_MIN_N = 32768
#: ... when ``k`` is at most this share of them (``16 k <= n``) ...
_SAMPLED_MAX_K_SHARE = 16
#: ... with one sample every this many entries.
_SAMPLE_STRIDE = 32


def _sampled_topk(arr: np.ndarray, k: int) -> Optional[np.ndarray]:
    """The top-k set of ``|arr|`` through a sampled threshold, or ``None``.

    ``None`` means the set could not be proved equal to ``argpartition``'s
    (see the module notes) and the caller must run the full kernel.
    """
    n = arr.shape[0]
    sample = np.abs(arr[::_SAMPLE_STRIDE])
    m = sample.shape[0]
    rank = 2 * k * m // n + 8
    sample.partition(m - rank)
    t = sample[m - rank]
    if not 0 < t < np.inf:
        return None
    # ~(|x| < t) as two comparisons: no |x| temporary, and NaN stays in.
    inside = np.less(arr, t)
    inside &= np.greater(arr, -t)
    candidates = np.flatnonzero(~inside)
    c = candidates.shape[0]
    if c < k:
        return None
    cand_mag = np.abs(arr[candidates])
    part = np.argpartition(cand_mag, c - k)
    kth = cand_mag[part[c - k]]
    if not kth < np.inf:
        return None
    chosen = part[c - k:]
    if np.count_nonzero(cand_mag == kth) != np.count_nonzero(cand_mag[chosen] == kth):
        return None
    return candidates[chosen]


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
