"""Integration tests for the distributed trainer (Algorithm 1)."""

import numpy as np
import pytest

from repro.sparsifiers import build_sparsifier
from repro.api import RunSpec
from repro.training.trainer import DistributedTrainer


def run_short(task, sparsifier_name, density, n_workers=2, iterations=3, lr=0.2, seed=0, **sparsifier_kwargs):
    sparsifier = build_sparsifier(sparsifier_name, density, **sparsifier_kwargs)
    config = RunSpec.from_flat(
        n_workers=n_workers,
        batch_size=8,
        epochs=1,
        lr=lr,
        seed=seed,
        max_iterations_per_epoch=iterations,
        evaluate_each_epoch=False,
    ).resolve()
    trainer = DistributedTrainer(task, sparsifier, config)
    result = trainer.train()
    return trainer, result


class TestTrainerBasics:
    def test_runs_and_logs_series(self, smoke_lm_task):
        _, result = run_short(smoke_lm_task, "deft", 0.05)
        assert result.iterations_run == 3
        for series in ("loss", "density", "error", "selection_seconds", "communication_seconds"):
            assert len(result.logger.series(series)) == 3

    def test_metadata_recorded(self, smoke_lm_task):
        trainer, result = run_short(smoke_lm_task, "topk", 0.05)
        assert result.logger.metadata["sparsifier"] == "topk"
        assert result.logger.metadata["n_gradients"] == trainer.n_gradients

    def test_backend_mismatch_rejected(self, smoke_lm_task):
        from repro.comm import SimulatedBackend

        sparsifier = build_sparsifier("topk", 0.05)
        config = RunSpec.from_flat(n_workers=4).resolve()
        with pytest.raises(ValueError, match="worker count"):
            DistributedTrainer(smoke_lm_task, sparsifier, config, backend=SimulatedBackend(2))

    def test_loss_decreases_over_training(self, smoke_lm_task):
        _, result = run_short(smoke_lm_task, "dense", 1.0, n_workers=2, iterations=20, lr=0.5)
        losses = result.logger.series("loss").values
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_evaluation_metric_logged_per_epoch(self, smoke_lm_task):
        sparsifier = build_sparsifier("deft", 0.05)
        config = RunSpec.from_flat(n_workers=2, batch_size=8, epochs=2, lr=0.2, seed=0, max_iterations_per_epoch=2).resolve()
        result = DistributedTrainer(smoke_lm_task, sparsifier, config).train()
        assert len(result.logger.series("perplexity")) == 2
        assert result.epochs_run == 2

    def test_timing_recorded_per_iteration(self, smoke_lm_task):
        _, result = run_short(smoke_lm_task, "deft", 0.05)
        assert len(result.timing) == 3
        breakdown = result.timing.mean_breakdown()
        assert breakdown["forward"] > 0
        assert breakdown["communication"] > 0


class TestDensityBehaviour:
    def test_deft_density_matches_configuration(self, smoke_lm_task):
        _, result = run_short(smoke_lm_task, "deft", 0.05, n_workers=4)
        density = result.mean_density()
        assert density == pytest.approx(0.05, rel=0.3)

    def test_cltk_density_matches_configuration(self, smoke_lm_task):
        _, result = run_short(smoke_lm_task, "cltk", 0.05, n_workers=4)
        assert result.mean_density() == pytest.approx(0.05, rel=0.1)

    def test_topk_density_exceeds_configuration(self, smoke_lm_task):
        """Gradient build-up: the measured density of local Top-k exceeds the
        configured density once there is more than one worker."""
        _, result = run_short(smoke_lm_task, "topk", 0.05, n_workers=4)
        assert result.mean_density() > 0.05 * 1.3

    def test_topk_buildup_grows_with_workers(self, smoke_lm_task):
        _, result2 = run_short(smoke_lm_task, "topk", 0.05, n_workers=2)
        _, result8 = run_short(smoke_lm_task, "topk", 0.05, n_workers=8)
        assert result8.mean_density() > result2.mean_density()

    def test_dense_density_is_one(self, smoke_lm_task):
        _, result = run_short(smoke_lm_task, "dense", 1.0)
        assert result.mean_density() == pytest.approx(1.0)

    def test_single_worker_topk_has_no_buildup(self, smoke_lm_task):
        _, result = run_short(smoke_lm_task, "topk", 0.05, n_workers=1)
        assert result.mean_density() == pytest.approx(0.05, rel=0.05)


class TestErrorFeedbackBehaviour:
    def test_dense_training_has_zero_error(self, smoke_lm_task):
        _, result = run_short(smoke_lm_task, "dense", 1.0)
        assert max(result.logger.series("error").values) == pytest.approx(0.0, abs=1e-12)

    def test_sparsified_training_has_positive_error(self, smoke_lm_task):
        _, result = run_short(smoke_lm_task, "deft", 0.05)
        assert result.logger.series("error").values[-1] > 0

    def test_higher_density_gives_lower_error(self, smoke_lm_task):
        _, low = run_short(smoke_lm_task, "deft", 0.01, iterations=5)
        _, high = run_short(smoke_lm_task, "deft", 0.3, iterations=5)
        assert high.logger.series("error").values[-1] < low.logger.series("error").values[-1]

    def test_error_metric_matches_memories(self, smoke_lm_task):
        trainer, result = run_short(smoke_lm_task, "deft", 0.05)
        expected = float(np.mean([m.error_norm() for m in trainer.memories]))
        assert result.logger.series("error").values[-1] == pytest.approx(expected)


class TestWorkerCountInvariance:
    def test_workers_stay_synchronised(self, smoke_image_task):
        """All simulated workers apply the same update, so after training the
        single shared model must be finite and the traffic per iteration must
        show every worker participating."""
        trainer, result = run_short(smoke_image_task, "deft", 0.05, n_workers=3, iterations=2)
        allgathers = [r for r in trainer.backend.meter.records if r.op == "allgather"]
        assert all(len(r.sent_per_rank) == 3 for r in allgathers)
        for p in trainer.model.parameters():
            assert np.isfinite(p.data).all()

    def test_reproducible_given_seed(self, smoke_lm_task):
        _, a = run_short(smoke_lm_task, "deft", 0.05, seed=5)
        _, b = run_short(smoke_lm_task, "deft", 0.05, seed=5)
        np.testing.assert_allclose(a.logger.series("loss").values, b.logger.series("loss").values)

    def test_different_seeds_differ(self, smoke_lm_task):
        _, a = run_short(smoke_lm_task, "deft", 0.05, seed=1)
        _, b = run_short(smoke_lm_task, "deft", 0.05, seed=2)
        assert not np.allclose(a.logger.series("loss").values, b.logger.series("loss").values)


class TestSparsifierEquivalences:
    def test_dense_equals_topk_with_density_one(self, smoke_lm_task):
        """With density 1.0 every sparsifier selects everything, so the
        training trajectory must match the dense reference bit-for-bit."""
        _, dense = run_short(smoke_lm_task, "dense", 1.0, iterations=4, seed=3)
        _, topk = run_short(smoke_lm_task, "topk", 1.0, iterations=4, seed=3)
        np.testing.assert_allclose(
            dense.logger.series("loss").values, topk.logger.series("loss").values, rtol=1e-6
        )

    def test_all_sparsifiers_produce_finite_models(self, smoke_image_task):
        for name in ("topk", "cltk", "deft", "hard_threshold", "sidco", "randomk"):
            trainer, result = run_short(smoke_image_task, name, 0.05, iterations=2)
            assert np.isfinite(result.logger.series("loss").values).all(), name
            for p in trainer.model.parameters():
                assert np.isfinite(p.data).all(), name


class TestCommunicationAccounting:
    def test_traffic_tags_present(self, smoke_lm_task):
        trainer, _ = run_short(smoke_lm_task, "deft", 0.05)
        tags = trainer.backend.meter.by_tag()
        assert "indices" in tags
        assert "values" in tags
        assert "deft-allocation" in tags

    def test_topk_sends_more_values_than_deft(self, smoke_lm_task):
        trainer_topk, _ = run_short(smoke_lm_task, "topk", 0.05, n_workers=4)
        trainer_deft, _ = run_short(smoke_lm_task, "deft", 0.05, n_workers=4)
        topk_values = trainer_topk.backend.meter.total_sent(tag="values")
        deft_values = trainer_deft.backend.meter.total_sent(tag="values")
        assert topk_values > deft_values
