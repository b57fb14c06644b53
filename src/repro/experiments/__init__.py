"""Experiment drivers: one module per table/figure of the paper.

Every module exposes a ``run(scale=..., **overrides)`` function returning a
plain dictionary with the series/rows the corresponding paper artefact
reports, and a ``format_report(result)`` helper producing a printable text
table.  The ``scale`` argument selects preset sizes:

- ``"smoke"``  -- seconds-scale settings used by the test-suite and the
  pytest-benchmark harness,
- ``"repro"``  -- minutes-scale settings used to produce EXPERIMENTS.md,
- ``"paper"``  -- the paper's own configuration (documented for reference;
  running it requires the original hardware budget).

Index (see DESIGN.md for the full mapping):

==============  ====================================================
Module          Paper artefact
==============  ====================================================
fig01_buildup   Figure 1  (gradient build-up of Top-k by scale-out)
table1          Table 1   (qualitative sparsifier comparison)
table2          Table 2   (workload descriptions)
fig03           Figure 3  (convergence of sparsifiers, 3 workloads)
fig04           Figure 4  (actual density over iterations)
fig05           Figure 5  (error over iterations)
fig06           Figure 6  (error at matched actual density)
fig07           Figure 7  (training-time breakdown)
fig08           Figure 8  (DEFT convergence vs density)
fig09           Figure 9  (selection speedup by scale-out)
fig10           Figure 10 (DEFT convergence by scale-out)
robustness      Beyond the paper: attack x aggregator x sparsifier
staleness       Beyond the paper: execution x sparsifier x straggler
placement       Beyond the paper: topology x server placement x schedule
==============  ====================================================

The submodules load on first attribute access (PEP 562): a run that only
needs :mod:`~repro.experiments.config` does not import every figure module
and :mod:`repro.analysis` with it.
"""

import importlib

__all__ = [
    "config",
    "runner",
    "fig01_buildup",
    "table1_properties",
    "table2_workloads",
    "fig03_convergence",
    "fig04_density",
    "fig05_error",
    "fig06_error_matched",
    "fig07_breakdown",
    "fig08_density_sweep",
    "fig09_speedup",
    "fig10_scaleout",
    "placement_grid",
    "robustness_grid",
    "staleness_grid",
]


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
