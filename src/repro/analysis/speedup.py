"""Selection-speedup analysis (Eq. 6-9, Figure 9).

Three curves appear in Figure 9:

- ``linear``              -- speedup equal to the worker count,
- ``theoretical-trivial`` -- Eq. 8, the speedup of naively splitting the
  vector into ``n`` equal chunks,
- ``DEFT``                -- the measured speedup of DEFT's layer-wise
  selection over a single full-vector Top-k.

The measured curve times what the trainer runs: the slowest rank's
``DEFTSparsifier.select`` (its own per-partition norm pass included) against
``TopKSparsifier.select``; both reach the same ``topk_indices`` kernel.

The paper's claim (Eq. 9) is ``f(n) >= f_trivial(n) >= n``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.analysis.cost import (
    deft_selection_cost,
    topk_selection_cost,
    trivial_selection_cost,
    worker_selection_cost,
)
from repro.sparsifiers.base import GradientLayout
from repro.sparsifiers.deft import DEFTSparsifier
from repro.sparsifiers.topk import TopKSparsifier

__all__ = [
    "SpeedupCurve",
    "linear_speedup",
    "trivial_speedup",
    "deft_speedup_from_costs",
    "measure_selection_speedup",
]


@dataclass
class SpeedupCurve:
    """A named speedup-vs-workers series."""

    name: str
    workers: List[int] = field(default_factory=list)
    speedups: List[float] = field(default_factory=list)

    def append(self, n_workers: int, speedup: float) -> None:
        self.workers.append(int(n_workers))
        self.speedups.append(float(speedup))

    def as_dict(self) -> Dict[int, float]:
        return dict(zip(self.workers, self.speedups))


def linear_speedup(n_workers: int) -> float:
    """The ideal linear speedup reference line."""
    return float(n_workers)


def trivial_speedup(n_gradients: int, k: int, n_workers: int) -> float:
    """Eq. 8: ``f_trivial(n) = (n_g log k) / ((n_g/n) log(k/n))``."""
    numerator = topk_selection_cost(n_gradients, k)
    denominator = trivial_selection_cost(n_gradients, k, n_workers)
    if denominator <= 0:
        return float("inf")
    return numerator / denominator


def deft_speedup_from_costs(n_gradients: int, k: int, per_worker_costs: Sequence[float]) -> float:
    """Eq. 6: ``f(n) = (n_g log k) / max_i C_i``."""
    denominator = deft_selection_cost(per_worker_costs)
    if denominator <= 0:
        return float("inf")
    return topk_selection_cost(n_gradients, k) / denominator


def _analytic_worker_costs(sparsifier: DEFTSparsifier, acc_flat: np.ndarray) -> List[float]:
    """Per-worker Eq.-4 costs implied by a DEFT allocation of ``acc_flat``."""
    plan = sparsifier.coordinate(0, [acc_flat] * sparsifier.n_workers)
    costs = []
    for layers in plan.allocation:
        sizes = [sparsifier.partitions[i].size for i in layers]
        layer_ks = [int(plan.ks[i]) for i in layers]
        costs.append(worker_selection_cost(sizes, layer_ks))
    return costs


def measure_selection_speedup(
    layout: GradientLayout,
    acc_flat: np.ndarray,
    density: float,
    worker_counts: Sequence[int],
    repeats: int = 3,
    measure_wallclock: bool = True,
) -> Dict[str, SpeedupCurve]:
    """Reproduce Figure 9's three curves for one gradient snapshot.

    Parameters
    ----------
    layout:
        The model's gradient layout.
    acc_flat:
        A representative accumulator vector (its norms drive DEFT's k
        assignment).
    density:
        Target density ``d``.
    worker_counts:
        Worker counts to sweep (1 corresponds to plain Top-k and is the
        speedup-1 reference point).
    repeats:
        Wall-clock measurements are repeated after one untimed warm-up call
        and the minimum is kept (the standard way to suppress scheduler
        noise).
    measure_wallclock:
        When False only the analytic curves are produced (faster; used by
        unit tests).

    Returns
    -------
    dict with keys ``"linear"``, ``"trivial"``, ``"deft_analytic"`` and
    (optionally) ``"deft_measured"``.
    """
    flat = np.asarray(acc_flat, dtype=np.float64).reshape(-1)
    n_g = layout.total_size
    if flat.size != n_g:
        raise ValueError("accumulator length does not match the layout")
    k = max(1, int(round(density * n_g)))

    curves: Dict[str, SpeedupCurve] = {
        "linear": SpeedupCurve("linear"),
        "trivial": SpeedupCurve("theoretical-trivial"),
        "deft_analytic": SpeedupCurve("deft-analytic"),
    }
    if measure_wallclock:
        curves["deft_measured"] = SpeedupCurve("deft-measured")
        topk = TopKSparsifier(density)
        topk.setup(layout, 1)
        baseline_seconds = _best_of(lambda: topk.select(0, 0, flat), repeats)

    for n_workers in worker_counts:
        n_workers = int(n_workers)
        curves["linear"].append(n_workers, linear_speedup(n_workers))
        curves["trivial"].append(n_workers, trivial_speedup(n_g, k, n_workers))

        sparsifier = DEFTSparsifier(density)
        sparsifier.setup(layout, n_workers)
        if n_workers == 1:
            # Figure 9 treats the single-worker case as the plain Top-k
            # selection used by Top-k/CLT-k, i.e. the speedup-1 reference.
            curves["deft_analytic"].append(1, 1.0)
        else:
            worker_costs = _analytic_worker_costs(sparsifier, flat)
            curves["deft_analytic"].append(n_workers, deft_speedup_from_costs(n_g, k, worker_costs))

        if measure_wallclock:
            if n_workers == 1:
                curves["deft_measured"].append(1, 1.0)
                continue
            # Every rank selects from the same snapshot.  Every rank but the
            # delegate pays its own norm pass; the delegate reads the plan.
            sparsifier.coordinate(0, [flat] * n_workers)
            slowest = max(
                _best_of(lambda rank=rank: sparsifier.select(0, rank, flat), repeats)
                for rank in range(n_workers)
            )
            curves["deft_measured"].append(
                n_workers, baseline_seconds / slowest if slowest > 0 else float("inf")
            )
    return curves


def _best_of(fn, repeats: int) -> float:
    """Minimum wall-clock time of ``repeats`` calls after one untimed warm-up."""
    fn()
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best
