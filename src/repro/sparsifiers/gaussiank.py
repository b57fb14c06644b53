"""Gaussian-k threshold sparsifier.

A second member of the statistical-threshold family (alongside SIDCo): the
gradient/accumulator values are modelled as zero-mean Gaussian, and the
threshold is the two-sided quantile that keeps a ``density`` fraction of the
mass, ``t = sigma * Phi^{-1}(1 - d/2)``.  Shi et al.'s gradient-sparsification
studies (references [30, 32] of the DEFT paper) use exactly this estimator;
it is the cheapest possible threshold rule (one variance computation) but its
accuracy degrades as training makes the distribution increasingly
heavy-tailed -- the "unpredictable density" column of Table 1.
"""

from __future__ import annotations

import time

import numpy as np

from repro.sparsifiers.base import SelectionResult, Sparsifier
from repro.utils.topk_ops import threshold_indices

__all__ = ["GaussianKSparsifier"]


def _gaussian_two_sided_quantile(density: float) -> float:
    """Return ``z`` such that ``P(|X| > z sigma) = density`` for X ~ N(0, 1).

    scipy is imported here, not at module scope, to keep it off the import
    path of runs that never select with this sparsifier.
    """
    from scipy import special

    density = min(max(density, 1e-12), 1.0)
    return float(special.ndtri(1.0 - density / 2.0))


class GaussianKSparsifier(Sparsifier):
    """Select entries above a Gaussian-quantile threshold."""

    name = "gaussiank"
    has_gradient_buildup = True
    needs_hyperparameter_tuning = False
    has_worker_idling = False

    def select(self, iteration: int, rank: int, acc_flat: np.ndarray) -> SelectionResult:
        layout = self._require_setup()
        flat = np.asarray(acc_flat).reshape(-1)
        start = time.perf_counter()
        sigma = float(flat.std())
        mean = float(flat.mean())
        z = _gaussian_two_sided_quantile(self.density)
        threshold = abs(mean) + z * sigma
        indices = threshold_indices(flat, threshold)
        elapsed = time.perf_counter() - start
        return SelectionResult(
            indices=indices,
            target_k=self.global_k,
            selection_seconds=elapsed,
            analytic_cost=float(2 * layout.total_size),
            info={"threshold": threshold, "sigma": sigma, "z": z},
        )
