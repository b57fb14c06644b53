"""Ablation: gradient-norm-proportional local k (Algorithm 3) vs a uniform split.

The paper's claim is that selecting more gradients in layers with larger
gradient norms preserves the significance of the selection.  This ablation
trains the LM workload with DEFT twice -- once with the paper's
norm-proportional assignment and once with a size-proportional (uniform
density) assignment -- and compares the captured accumulator mass and the
resulting error.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.experiments import config as expcfg
from repro.experiments.runner import run_training
from repro.experiments.fig09_speedup import gradient_snapshot
from repro.sparsifiers.deft import DEFTSparsifier


def test_ablation_norm_vs_uniform_k_single_shot(benchmark):
    """One-shot comparison on a gradient snapshot: the norm-proportional
    assignment captures at least as much accumulator magnitude as the uniform
    split at the same budget."""
    layout, flat = gradient_snapshot("lm", scale="smoke", seed=11)
    density = 0.01

    def capture(norm_proportional):
        sparsifier = DEFTSparsifier(density, norm_proportional_k=norm_proportional)
        sparsifier.setup(layout, 1)
        sparsifier.coordinate(0, [flat])
        result = sparsifier.select(0, 0, flat)
        return float(np.abs(flat[result.indices]).sum()), result.k_selected

    def run_both():
        return capture(True), capture(False)

    (norm_mass, norm_k), (uniform_mass, uniform_k) = run_once(benchmark, run_both)
    print(f"\ncaptured |acc| mass: norm-proportional={norm_mass:.4f} (k={norm_k}), "
          f"uniform={uniform_mass:.4f} (k={uniform_k})")
    # Same order of budget...
    assert abs(norm_k - uniform_k) <= len(layout.sizes) * 2
    # ...but the norm-aware assignment captures at least ~as much magnitude.
    assert norm_mass >= 0.95 * uniform_mass


def test_ablation_norm_vs_uniform_k_training(benchmark):
    """Short training comparison: the norm-proportional rule must not be worse
    than the uniform rule in error terms at equal density."""

    def run_both():
        common = dict(
            density=0.02, n_workers=4, scale="smoke", epochs=1, seed=5,
            max_iterations_per_epoch=6, evaluate_each_epoch=False,
        )
        norm = run_training(expcfg.LM, "deft", sparsifier_kwargs={"norm_proportional_k": True}, **common)
        uniform = run_training(expcfg.LM, "deft", sparsifier_kwargs={"norm_proportional_k": False}, **common)
        return norm, uniform

    norm, uniform = run_once(benchmark, run_both)
    norm_error = norm.logger.series("error").values[-1]
    uniform_error = uniform.logger.series("error").values[-1]
    print(f"\nfinal error: norm-proportional={norm_error:.4f}, uniform={uniform_error:.4f}")
    assert norm_error <= 1.3 * uniform_error
