"""Tests for the analysis package (cost model, speedup, density, properties, series)."""

import numpy as np
import pytest

from repro.analysis.cost import (
    deft_selection_cost,
    layer_selection_cost,
    topk_selection_cost,
    trivial_selection_cost,
    worker_selection_cost,
)
from repro.analysis.density import buildup_factor, density_statistics, union_density
from repro.analysis.properties import measure_properties
from repro.analysis.series import compare_final, epoch_series, iteration_series, subsample
from repro.analysis.speedup import (
    SpeedupCurve,
    deft_speedup_from_costs,
    linear_speedup,
    measure_selection_speedup,
    trivial_speedup,
)
from repro.sparsifiers import build_sparsifier
from repro.api import RunSpec
from repro.training.trainer import DistributedTrainer
from tests.conftest import make_smoke_lm_task


class TestCostModel:
    def test_topk_cost(self):
        assert topk_selection_cost(1024, 16) == pytest.approx(1024 * 4)

    def test_layer_cost_zero_for_empty_selection(self):
        assert layer_selection_cost(100, 0) == 0.0
        assert layer_selection_cost(0, 5) == 0.0

    def test_worker_cost_sums_layers(self):
        assert worker_selection_cost([100, 200], [4, 16]) == pytest.approx(100 * 2 + 200 * 4)

    def test_worker_cost_length_mismatch(self):
        with pytest.raises(ValueError):
            worker_selection_cost([100], [4, 16])

    def test_deft_cost_is_max(self):
        assert deft_selection_cost([10.0, 50.0, 20.0]) == 50.0
        assert deft_selection_cost([]) == 0.0

    def test_trivial_cost_formula(self):
        n_g, k, n = 10000, 100, 4
        expected = (n_g / n) * np.log2(k / n)
        assert trivial_selection_cost(n_g, k, n) == pytest.approx(expected)

    def test_trivial_cost_validation(self):
        with pytest.raises(ValueError):
            trivial_selection_cost(100, 10, 0)

    def test_costs_floor_log_at_one(self):
        # k=1 and k=2 both cost one scan per element, never less.
        assert layer_selection_cost(100, 1) == 100.0
        assert topk_selection_cost(100, 1) == 100.0


class TestSpeedup:
    def test_linear(self):
        assert linear_speedup(8) == 8.0

    def test_trivial_exceeds_linear(self):
        """Eq. 9: f_trivial(n) >= n for realistic n_g, k."""
        n_g, k = 1_000_000, 10_000
        for n in (2, 4, 8, 16, 32):
            assert trivial_speedup(n_g, k, n) >= n

    def test_trivial_speedup_monotone_in_workers(self):
        n_g, k = 100_000, 1_000
        values = [trivial_speedup(n_g, k, n) for n in (2, 4, 8, 16)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_deft_speedup_from_costs(self):
        n_g, k = 10000, 100
        baseline = topk_selection_cost(n_g, k)
        assert deft_speedup_from_costs(n_g, k, [baseline / 4, baseline / 8]) == pytest.approx(4.0)
        assert deft_speedup_from_costs(n_g, k, []) == float("inf")

    def test_curve_container(self):
        curve = SpeedupCurve("test")
        curve.append(2, 3.0)
        curve.append(4, 9.0)
        assert curve.as_dict() == {2: 3.0, 4: 9.0}

    def test_measure_selection_speedup_analytic_dominates(self, small_layout, small_acc):
        """The Eq.-9 ordering deft >= trivial >= linear must hold for the
        analytic curves on a realistic layered accumulator."""
        curves = measure_selection_speedup(
            small_layout, small_acc, density=0.05, worker_counts=(2, 4), measure_wallclock=False
        )
        assert set(curves) == {"linear", "trivial", "deft_analytic"}
        for n in (2, 4):
            assert curves["trivial"].as_dict()[n] >= curves["linear"].as_dict()[n] - 1e-9
            assert curves["deft_analytic"].as_dict()[n] >= curves["trivial"].as_dict()[n] * 0.5

    def test_measure_selection_speedup_wallclock_curve_present(self, small_layout, small_acc):
        curves = measure_selection_speedup(
            small_layout, small_acc, density=0.05, worker_counts=(1, 2), repeats=1, measure_wallclock=True
        )
        assert "deft_measured" in curves
        assert curves["deft_measured"].as_dict()[1] == 1.0

    def test_wrong_accumulator_length_rejected(self, small_layout):
        with pytest.raises(ValueError):
            measure_selection_speedup(small_layout, np.zeros(3), 0.1, (2,), measure_wallclock=False)


class TestDensityAnalysis:
    def test_union_density_counts_unique(self):
        per_worker = [np.array([0, 1, 2]), np.array([2, 3]), np.array([0, 4])]
        assert union_density(per_worker, 10) == pytest.approx(0.5)

    def test_union_density_empty(self):
        assert union_density([], 10) == 0.0

    def test_union_density_validation(self):
        with pytest.raises(ValueError):
            union_density([np.array([0])], 0)

    def test_statistics_from_training_run(self, smoke_lm_task):
        sparsifier = build_sparsifier("topk", 0.05)
        config = RunSpec.from_flat(n_workers=4, batch_size=8, epochs=1, lr=0.2, seed=0,
                                max_iterations_per_epoch=3, evaluate_each_epoch=False).resolve()
        result = DistributedTrainer(smoke_lm_task, sparsifier, config).train()
        stats = density_statistics(result, 0.05)
        assert stats["mean"] > 0.05
        assert stats["max"] >= stats["mean"] >= stats["min"]
        assert buildup_factor(result, 0.05) == pytest.approx(stats["mean"] / 0.05)


class TestSeriesHelpers:
    def _result(self):
        task = make_smoke_lm_task()
        sparsifier = build_sparsifier("deft", 0.05)
        config = RunSpec.from_flat(n_workers=2, batch_size=8, epochs=1, lr=0.2, seed=0,
                                max_iterations_per_epoch=3).resolve()
        return DistributedTrainer(task, sparsifier, config).train()

    def test_iteration_and_epoch_series(self):
        result = self._result()
        steps, values = iteration_series(result, "density")
        assert len(steps) == len(values) == 3
        epochs, metric = epoch_series(result, "perplexity")
        assert len(epochs) == 1

    def test_subsample(self):
        steps = list(range(1000))
        values = [float(s) for s in steps]
        sub_steps, sub_values = subsample(steps, values, max_points=10)
        assert len(sub_steps) == 10
        assert sub_steps[0] == 0 and sub_steps[-1] == 999

    def test_subsample_short_series_untouched(self):
        steps, values = subsample([1, 2], [3.0, 4.0], max_points=10)
        assert steps == [1, 2]

    def test_compare_final(self):
        result = self._result()
        comparison = compare_final({"deft": result}, "perplexity")
        assert "deft" in comparison
        assert comparison["deft"] > 0


class TestProperties:
    def test_measure_properties_rows(self, smoke_lm_task):
        rows = measure_properties(
            smoke_lm_task,
            ["topk", "deft"],
            density=0.05,
            n_workers=4,
            iterations=2,
            batch_size=8,
            lr=0.2,
        )
        by_name = {row.name: row for row in rows}
        assert by_name["topk"].has_buildup
        assert not by_name["deft"].has_buildup
        assert by_name["deft"].overhead_seconds >= 0
        row_dict = by_name["topk"].as_row()
        assert row_dict["Gradient build-up"] == "Yes"
        assert row_dict["Sparsifier"] == "topk"
