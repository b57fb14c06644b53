"""Shared low-level utilities used across the DEFT reproduction.

This package deliberately contains only small, dependency-free helpers:

- :mod:`repro.utils.seeding` -- deterministic RNG management,
- :mod:`repro.utils.topk_ops` -- NumPy top-k / threshold selection kernels
  and the index union of the exchange,
- :mod:`repro.utils.binpack` -- bin-packing heuristics used by DEFT's layer
  allocation (and by its ablations),
- :mod:`repro.utils.flatten` -- flattening / unflattening of per-layer
  gradient collections into a single vector and back,
- :mod:`repro.utils.logging` -- a tiny structured run logger.
"""

from repro.utils.seeding import SeedSequenceFactory, derive_seed, new_rng
from repro.utils.topk_ops import (
    topk_indices,
    topk_threshold,
    threshold_indices,
    topk_values,
    union_indices,
)
from repro.utils.binpack import (
    BinPackingResult,
    pack_greedy_min_bin,
    pack_round_robin,
    pack_first_fit_decreasing,
)
from repro.utils.flatten import FlatSpec, flatten_arrays, unflatten_vector
from repro.utils.logging import RunLogger

__all__ = [
    "SeedSequenceFactory",
    "derive_seed",
    "new_rng",
    "topk_indices",
    "topk_threshold",
    "threshold_indices",
    "topk_values",
    "union_indices",
    "BinPackingResult",
    "pack_greedy_min_bin",
    "pack_round_robin",
    "pack_first_fit_decreasing",
    "FlatSpec",
    "flatten_arrays",
    "unflatten_vector",
    "RunLogger",
]
