"""Bin-packing heuristics for DEFT's layer-to-worker allocation.

DEFT (Algorithm 4 of the paper) assigns each partitioned layer -- an *item*
whose weight is the layer's selection cost ``c_x = n_{g,x} * log(k_x)`` -- to
one of ``n_workers`` *bins* so the maximum bin load is as small as possible.
The paper's policy is "largest remaining item to the currently lightest bin",
which is the classic LPT (longest processing time) / greedy min-bin rule.

This module provides that policy plus alternatives used by the ablation
benchmarks:

- :func:`pack_greedy_min_bin` -- the paper's policy (items taken in
  decreasing weight, each placed into the currently lightest bin),
- :func:`pack_round_robin` -- naive allocation ignoring weights,
- :func:`pack_first_fit_decreasing` -- capacity-bounded FFD, useful when a
  hard per-worker budget is required.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

__all__ = [
    "BinPackingResult",
    "pack_greedy_min_bin",
    "pack_round_robin",
    "pack_first_fit_decreasing",
]


@dataclass
class BinPackingResult:
    """Result of assigning weighted items to bins.

    Attributes
    ----------
    assignment:
        ``assignment[b]`` is the list of item indices allocated to bin ``b``.
    loads:
        ``loads[b]`` is the total weight allocated to bin ``b``.
    """

    assignment: List[List[int]] = field(default_factory=list)
    loads: List[float] = field(default_factory=list)

    @property
    def n_bins(self) -> int:
        return len(self.assignment)

    @property
    def max_load(self) -> float:
        """The makespan: weight of the heaviest bin (0.0 if empty)."""
        return max(self.loads) if self.loads else 0.0

    @property
    def min_load(self) -> float:
        return min(self.loads) if self.loads else 0.0

    @property
    def imbalance(self) -> float:
        """Ratio of max to mean bin load (1.0 == perfectly balanced)."""
        if not self.loads:
            return 1.0
        mean = sum(self.loads) / len(self.loads)
        if mean == 0:
            return 1.0
        return self.max_load / mean

    def bin_of(self, item: int) -> int:
        """Return the bin index holding ``item`` (raises if unassigned)."""
        for b, items in enumerate(self.assignment):
            if item in items:
                return b
        raise KeyError(f"item {item} is not assigned to any bin")

    def items_flat(self) -> List[int]:
        """All assigned item indices, concatenated over bins."""
        return [i for items in self.assignment for i in items]


def _validate(weights: Sequence[float], n_bins: int) -> np.ndarray:
    w = np.asarray(list(weights), dtype=np.float64)
    if w.ndim != 1:
        raise ValueError("weights must be a 1-D sequence")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    if n_bins <= 0:
        raise ValueError("n_bins must be positive")
    return w


def pack_greedy_min_bin(weights: Sequence[float], n_bins: int) -> BinPackingResult:
    """Paper's Algorithm-4 policy: heaviest item into the lightest bin.

    Items are processed in order of decreasing weight; ties are broken by the
    lower item index so the result is deterministic.  A min-heap over
    ``(load, bin_index)`` keeps each placement O(log n_bins).
    """
    w = _validate(weights, n_bins)
    order = np.lexsort((np.arange(len(w)), -w))  # decreasing weight, then index
    assignment: List[List[int]] = [[] for _ in range(n_bins)]
    loads = [0.0] * n_bins
    heap = [(0.0, b) for b in range(n_bins)]
    heapq.heapify(heap)
    for item in order:
        load, b = heapq.heappop(heap)
        assignment[b].append(int(item))
        new_load = load + float(w[item])
        loads[b] = new_load
        heapq.heappush(heap, (new_load, b))
    return BinPackingResult(assignment=assignment, loads=loads)


def pack_round_robin(weights: Sequence[float], n_bins: int) -> BinPackingResult:
    """Allocate item ``i`` to bin ``i % n_bins`` regardless of weight."""
    w = _validate(weights, n_bins)
    assignment: List[List[int]] = [[] for _ in range(n_bins)]
    loads = [0.0] * n_bins
    for item, weight in enumerate(w):
        b = item % n_bins
        assignment[b].append(item)
        loads[b] += float(weight)
    return BinPackingResult(assignment=assignment, loads=loads)


def pack_first_fit_decreasing(
    weights: Sequence[float], n_bins: int, capacity: float
) -> BinPackingResult:
    """Capacity-bounded first-fit-decreasing packing.

    Items are placed, largest first, into the first bin with enough spare
    capacity.  If no bin can hold an item the item overflows into the
    currently lightest bin (the allocation must be total -- every layer has
    to be selected by some worker).
    """
    w = _validate(weights, n_bins)
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    order = np.lexsort((np.arange(len(w)), -w))
    assignment: List[List[int]] = [[] for _ in range(n_bins)]
    loads = [0.0] * n_bins
    for item in order:
        weight = float(w[item])
        placed = False
        for b in range(n_bins):
            if loads[b] + weight <= capacity:
                assignment[b].append(int(item))
                loads[b] += weight
                placed = True
                break
        if not placed:
            b = int(np.argmin(loads))
            assignment[b].append(int(item))
            loads[b] += weight
    return BinPackingResult(assignment=assignment, loads=loads)
