"""Actual-density and gradient-build-up analysis (Figures 1 and 4)."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.training.trainer import TrainingResult
from repro.utils.topk_ops import union_indices

__all__ = ["density_trace", "density_statistics", "buildup_factor", "union_density"]


def density_trace(result: TrainingResult) -> Tuple[List[int], List[float]]:
    """The per-iteration actual-density series of a training run."""
    series = result.logger.series("density")
    return list(series.steps), list(series.values)


def density_statistics(result: TrainingResult, configured_density: float) -> Dict[str, float]:
    """Summary statistics the paper quotes (mean, max, build-up factor)."""
    series = result.logger.series("density")
    if len(series) == 0:
        return {"mean": 0.0, "max": 0.0, "min": 0.0, "buildup_factor": 0.0}
    values = np.asarray(series.values, dtype=np.float64)
    return {
        "mean": float(values.mean()),
        "max": float(values.max()),
        "min": float(values.min()),
        "std": float(values.std()),
        "buildup_factor": float(values.mean() / configured_density) if configured_density > 0 else 0.0,
    }


def buildup_factor(result: TrainingResult, configured_density: float) -> float:
    """Mean actual density divided by the configured density (1.0 = no build-up)."""
    return density_statistics(result, configured_density)["buildup_factor"]


def union_density(per_worker_indices: Sequence[np.ndarray], n_gradients: int) -> float:
    """Density of the union of per-worker index selections.

    This is the primitive behind Figure 1: with ``w`` workers each selecting
    ``k`` indices, the union has between ``k`` (full overlap, no build-up)
    and ``w * k`` (no overlap, worst-case build-up) entries.
    """
    if n_gradients <= 0:
        raise ValueError("n_gradients must be positive")
    if not per_worker_indices:
        return 0.0
    union = union_indices(np.concatenate([np.asarray(ix, dtype=np.int64) for ix in per_worker_indices]))
    return float(union.shape[0]) / float(n_gradients)
