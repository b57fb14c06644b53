"""Algorithm 3: gradient-norm based local ``k`` assignment.

The global budget ``k = d * n_g`` is spread over the partitioned layers in
proportion to each layer's gradient L2 norm, visiting layers in decreasing
norm order (highest priority first).  A layer can never be assigned more
than its size, and any layer visited while budget remains gets at least one
slot, so the layers with the largest norms keep the densest selection --
the paper's central heuristic.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sparsifiers.deft.partitioning import LayerPartition

__all__ = ["assign_local_k", "layer_norms", "norm_statistic"]


def layer_norms(acc_flat: np.ndarray, partitions: Sequence[LayerPartition]) -> np.ndarray:
    """Per-partition L2 norms of a flat accumulator vector.

    Bit-equal to ``np.linalg.norm(segment, ord=2)`` per partition: that call's
    1-D path is ``sqrt(segment.dot(segment))``, taken here without its
    per-call wrapper cost (DEFT runs this over all of ``n_g`` once per rank
    and iteration).
    """
    flat = np.asarray(acc_flat).reshape(-1)
    covered = partitions[-1].end if len(partitions) else 0
    if flat.shape[0] != covered:
        raise ValueError(f"vector has {flat.shape[0]} elements, the partitions cover {covered}")
    if flat.dtype.kind != "f":
        flat = flat.astype(np.float64)
    squares = []
    for p in partitions:
        segment = flat[p.start : p.end]
        squares.append(segment.dot(segment))
    return np.sqrt(np.array(squares)).astype(np.float64, copy=False)


def norm_statistic(rows: Sequence[np.ndarray], statistic: str = "median") -> np.ndarray:
    """Per-partition ``statistic`` over workers' :func:`layer_norms` rows."""
    if not len(rows):
        raise ValueError("need at least one accumulator")
    matrix = np.stack(rows)
    if statistic == "median":
        return np.median(matrix, axis=0)
    if statistic == "mean":
        return matrix.mean(axis=0)
    raise ValueError(f"unknown norm statistic {statistic!r}; use 'median' or 'mean'")


def assign_local_k(
    partitions: Sequence[LayerPartition],
    norms: Sequence[float],
    k_total: int,
) -> np.ndarray:
    """Assign a local ``k`` to every partition per Algorithm 3.

    Parameters
    ----------
    partitions:
        The partitioned layers (Algorithm 2 output), in vector order.
    norms:
        Gradient norm of each partition (same order as ``partitions``).
    k_total:
        The global selection budget ``k = d * n_g``.

    Returns
    -------
    numpy.ndarray
        ``k[i]`` is the number of gradients to select inside partition ``i``
        (vector order, not priority order), with ``k[i] <= size`` per
        partition.  The total can exceed ``k_total`` by at most one per
        partition (the ``max(1, .)`` floor).  It can also fall well short:
        a partition whose share is capped at its size hands the surplus back
        only to partitions still unvisited, so when the capped one comes last
        the surplus goes unspent (layers of 4 and 182 with norms 11.6 and
        18.2 and ``k_total = 56`` get 4 and 34).  Both follow the paper's
        Algorithm 3 as published.
    """
    n = len(partitions)
    norms_arr = np.asarray(norms, dtype=np.float64)
    if norms_arr.shape[0] != n:
        raise ValueError("norms must have one entry per partition")
    if np.any(norms_arr < 0):
        raise ValueError("norms must be non-negative")
    k_total = int(k_total)
    if k_total < 0:
        raise ValueError("k_total must be non-negative")

    ks = np.zeros(n, dtype=np.int64)
    if n == 0 or k_total == 0:
        return ks

    # Priority: decreasing norm; ties broken by vector order for determinism.
    priority = np.lexsort((np.arange(n), -norms_arr))
    k_remain = float(k_total)
    norm_remain = float(norms_arr.sum())

    for idx in priority:
        layer_size = partitions[idx].size
        if norm_remain > 0:
            k_temp = k_remain * (norms_arr[idx] / norm_remain)
        else:
            k_temp = 0.0
        if layer_size < k_temp:
            assigned = layer_size
        else:
            # The paper floors the assignment at 1 (Algorithm 3 line 13):
            # every layer contributes at least one gradient, which is why the
            # realised total can exceed k by up to one unit per layer.
            assigned = max(1, int(k_temp))
        assigned = min(assigned, layer_size)
        ks[idx] = assigned
        k_remain -= assigned
        norm_remain -= float(norms_arr[idx])
        if k_remain <= 0:
            k_remain = 0.0
    return ks
