"""Integration tests: trainer + aggregators + attacks (robustness subsystem)."""

import numpy as np
import pytest

from repro.experiments import robustness_grid
from repro.sparsifiers import build_sparsifier
from repro.api import RunSpec
from repro.training.trainer import DistributedTrainer


def run_short(
    task,
    sparsifier_name="deft",
    density=0.05,
    n_workers=2,
    iterations=3,
    lr=0.2,
    seed=0,
    sparsifier_kwargs=None,
    **config_kwargs,
):
    sparsifier = build_sparsifier(sparsifier_name, density, **(sparsifier_kwargs or {}))
    config = RunSpec.from_flat(
        n_workers=n_workers,
        batch_size=8,
        epochs=1,
        lr=lr,
        seed=seed,
        max_iterations_per_epoch=iterations,
        evaluate_each_epoch=False,
        **config_kwargs,
    ).resolve()
    trainer = DistributedTrainer(task, sparsifier, config)
    result = trainer.train()
    return trainer, result


class TestBenignEquivalence:
    def test_explicit_mean_none_matches_defaults_bitwise(self, smoke_lm_task):
        """aggregator='mean' + attack='none' must reproduce the default
        (Algorithm 1) trainer output bit-for-bit."""
        _, default = run_short(smoke_lm_task, iterations=4)
        _, explicit = run_short(smoke_lm_task, iterations=4, aggregator="mean", attack="none")
        np.testing.assert_array_equal(
            default.logger.series("loss").values, explicit.logger.series("loss").values
        )
        np.testing.assert_array_equal(
            default.logger.series("error").values, explicit.logger.series("error").values
        )

    def test_gather_path_median_of_two_equals_allreduce_mean(self, smoke_lm_task):
        """With two workers the coordinate-wise median is the mean, so the
        gather-based path must reproduce the all-reduce path numerically."""
        _, mean = run_short(smoke_lm_task, n_workers=2, iterations=4, aggregator="mean")
        _, median = run_short(smoke_lm_task, n_workers=2, iterations=4, aggregator="median")
        np.testing.assert_allclose(
            mean.logger.series("loss").values, median.logger.series("loss").values, rtol=1e-10
        )

    def test_mean_uses_allreduce_and_median_uses_allgather(self, smoke_lm_task):
        trainer_mean, _ = run_short(smoke_lm_task, aggregator="mean")
        trainer_median, _ = run_short(smoke_lm_task, aggregator="median")
        mean_ops = {r.op for r in trainer_mean.backend.meter.records if r.tag == "values"}
        median_ops = {r.op for r in trainer_median.backend.meter.records if r.tag == "values"}
        assert mean_ops == {"allreduce"}
        assert median_ops == {"allgather"}


class TestRobustnessUnderAttack:
    @pytest.fixture(scope="class")
    def attacked_losses(self):
        """Final losses of (aggregator, attack) runs on one LM task, 8 workers."""
        from tests.conftest import make_smoke_lm_task

        task = make_smoke_lm_task()
        losses = {}
        for aggregator, attack, f in [
            ("mean", "none", 0),
            ("mean", "sign_flip", 2),
            ("median", "sign_flip", 2),
            ("krum", "sign_flip", 2),
        ]:
            _, result = run_short(
                task,
                n_workers=8,
                iterations=12,
                aggregator=aggregator,
                attack=attack,
                n_byzantine=f,
            )
            losses[(aggregator, attack)] = result.logger.series("loss").values[-1]
        return losses

    def test_sign_flip_degrades_mean(self, attacked_losses):
        assert attacked_losses[("mean", "sign_flip")] > attacked_losses[("mean", "none")]

    @pytest.mark.parametrize("robust", ["median", "krum"])
    def test_robust_aggregators_recover_majority_of_degradation(self, attacked_losses, robust):
        """The acceptance bar: robust rules recover >= half of the loss
        degradation the mean suffers under the sign-flip attack."""
        benign = attacked_losses[("mean", "none")]
        degraded = attacked_losses[("mean", "sign_flip")] - benign
        robust_degraded = attacked_losses[(robust, "sign_flip")] - benign
        assert degraded > 0
        assert robust_degraded <= 0.5 * degraded

    def test_error_feedback_stays_bounded_under_sign_flip(self, smoke_lm_task):
        """The Byzantine memory must not compound the multiplicative
        corruption (the trainer feeds honest accumulators back)."""
        _, result = run_short(
            smoke_lm_task, n_workers=4, iterations=10,
            aggregator="mean", attack="sign_flip", n_byzantine=1,
        )
        errors = result.logger.series("error").values
        assert np.isfinite(errors).all()
        assert errors[-1] < 100.0

    def test_label_flip_runs_and_stays_finite(self, smoke_image_task):
        trainer, result = run_short(
            smoke_image_task, n_workers=4, iterations=3,
            aggregator="median", attack="label_flip", n_byzantine=1,
        )
        assert np.isfinite(result.logger.series("loss").values).all()
        for p in trainer.model.parameters():
            assert np.isfinite(p.data).all()

    @pytest.mark.parametrize("aggregator", ["trimmed_mean", "multi_krum", "geometric_median", "centered_clipping"])
    def test_every_aggregator_trains_finitely_under_attack(self, smoke_lm_task, aggregator):
        _, result = run_short(
            smoke_lm_task, n_workers=6, iterations=3,
            aggregator=aggregator, attack="gaussian_noise", n_byzantine=1,
        )
        assert np.isfinite(result.logger.series("loss").values).all()


class TestDegenerateCases:
    def test_zero_byzantine_with_robust_aggregator(self, smoke_lm_task):
        _, result = run_short(smoke_lm_task, aggregator="krum", attack="sign_flip", n_byzantine=0)
        assert np.isfinite(result.logger.series("loss").values).all()

    def test_single_worker_with_robust_aggregator(self, smoke_lm_task):
        _, result = run_short(smoke_lm_task, n_workers=1, aggregator="median")
        assert result.iterations_run == 3

    def test_empty_index_union(self, smoke_lm_task):
        """A threshold no accumulator clears selects nothing anywhere; the
        aggregation of the empty union must be a no-op, not a crash."""
        trainer, result = run_short(
            smoke_lm_task,
            sparsifier_name="hard_threshold",
            sparsifier_kwargs={"threshold": 1e9},
            aggregator="median",
            iterations=2,
        )
        assert result.logger.series("density").values == pytest.approx([0.0, 0.0])
        assert np.isfinite(result.logger.series("loss").values).all()

    def test_all_byzantine_rejected(self, smoke_lm_task):
        with pytest.raises(ValueError):
            run_short(smoke_lm_task, n_workers=2, attack="sign_flip", n_byzantine=2)

    def test_metadata_records_scenario(self, smoke_lm_task):
        _, result = run_short(
            smoke_lm_task, n_workers=4, aggregator="krum", attack="sign_flip", n_byzantine=1
        )
        assert result.logger.metadata["aggregator"] == "krum"
        assert result.logger.metadata["attack"] == "sign_flip"
        assert result.logger.metadata["n_byzantine"] == 1


class TestRobustnessGridExperiment:
    @pytest.fixture(scope="class")
    def grid(self):
        return robustness_grid.run(
            scale="smoke",
            sparsifiers=("deft",),
            aggregators=("mean", "median"),
            attacks=("none", "sign_flip"),
            n_workers=8,
            n_byzantine=2,
            epochs=2,
        )

    def test_grid_structure(self, grid):
        assert set(grid["cells"]) == {
            "deft|mean|none",
            "deft|mean|sign_flip",
            "deft|median|none",
            "deft|median|sign_flip",
        }
        for cell in grid["cells"].values():
            assert cell["metric"] is not None

    def test_benign_cells_have_zero_degradation(self, grid):
        assert grid["cells"]["deft|mean|none"]["degradation"] == pytest.approx(0.0)

    def test_median_recovers_at_least_half_of_mean_degradation(self, grid):
        recovered = grid["cells"]["deft|median|sign_flip"]["recovered_vs_mean"]
        assert recovered is not None
        assert recovered >= 0.5

    def test_report_formats(self, grid):
        report = robustness_grid.format_report(grid)
        assert "median" in report
        assert "sign_flip" in report
        assert "recovered" in report

    def test_grid_without_benign_attack_does_not_crash(self):
        grid = robustness_grid.run(
            scale="smoke",
            sparsifiers=("deft",),
            aggregators=("mean",),
            attacks=("sign_flip",),
            n_workers=4,
            n_byzantine=1,
            epochs=1,
            max_iterations_per_epoch=2,
        )
        cell = grid["cells"]["deft|mean|sign_flip"]
        assert cell["metric"] is not None
        assert cell["degradation"] is None
