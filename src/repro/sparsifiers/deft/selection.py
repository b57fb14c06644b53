"""Algorithm 5: layer-wise gradient selection.

Each worker runs an independent Top-k inside every partition allocated to it
and offsets the per-partition indices back into flat-vector coordinates.  The
union over workers is disjoint by construction because the allocation
partitions the layer set.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.sparsifiers.deft.partitioning import LayerPartition
from repro.utils.topk_ops import topk_indices

__all__ = ["layerwise_select"]


def layerwise_select(
    acc_flat: np.ndarray,
    partitions: Sequence[LayerPartition],
    local_k: Sequence[int],
    allocated: Sequence[int],
) -> Tuple[np.ndarray, int, float]:
    """Select gradients in the partitions allocated to this worker.

    Parameters
    ----------
    acc_flat:
        The worker's error-feedback accumulator (flat vector).
    partitions:
        All partitioned layers (Algorithm 2 output).
    local_k:
        Local ``k`` of every partition (Algorithm 3 output).
    allocated:
        Indices (into ``partitions``) of the layers this worker owns
        (Algorithm 4 output for this rank).

    Returns
    -------
    (indices, k_target, analytic_cost):
        ``indices`` are flat-vector indices selected by this worker,
        ``k_target`` is the summed local ``k`` over its layers, and
        ``analytic_cost`` is ``sum n_{g,x} log2(k_x)`` over its layers
        (Eq. 4 of the paper).
    """
    flat = np.asarray(acc_flat).reshape(-1)
    ks = np.asarray(local_k, dtype=np.int64)
    pieces: List[np.ndarray] = []
    k_target = 0
    analytic_cost = 0.0
    for part_index in allocated:
        partition = partitions[part_index]
        k = int(ks[part_index])
        if k <= 0:
            continue
        segment = flat[partition.start : partition.end]
        # Only the selected *set* matters (the union is disjoint by
        # construction and sorted by union_indices downstream): skip the sort.
        local_idx = topk_indices(segment, k, sort=False)
        pieces.append(local_idx + partition.start)
        k_target += min(k, partition.size)
        analytic_cost += partition.size * max(math.log2(max(k, 2)), 1.0)
    if pieces:
        indices = np.concatenate(pieces).astype(np.int64)
    else:
        indices = np.empty(0, dtype=np.int64)
    return indices, k_target, analytic_cost
