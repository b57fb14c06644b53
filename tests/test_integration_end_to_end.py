"""End-to-end integration tests crossing all subsystems.

These are the "does the reproduced system behave like the paper says"
checks, run at the smallest scale where the qualitative claims are visible.
"""

import pytest

from repro.sparsifiers import build_sparsifier
from repro.sparsifiers.base import GradientLayout
from repro.sparsifiers.deft.k_assignment import layer_norms
from repro.sparsifiers.deft.partitioning import two_stage_partition
from repro.training.tasks import ImageClassificationTask, LanguageModelingTask
from repro.api import RunSpec
from repro.training.trainer import DistributedTrainer


def train(task, sparsifier_name, density, n_workers, epochs, lr, seed=0, iterations=None):
    sparsifier = build_sparsifier(sparsifier_name, density)
    config = RunSpec.from_flat(
        n_workers=n_workers,
        batch_size=8,
        epochs=epochs,
        lr=lr,
        seed=seed,
        max_iterations_per_epoch=iterations,
    ).resolve()
    return DistributedTrainer(task, sparsifier, config).train()


@pytest.fixture(scope="module")
def lm_task():
    return LanguageModelingTask(
        vocab_size=60, train_tokens=4096, test_tokens=1024, seq_len=8,
        embed_dim=16, hidden_dim=24, seed=0,
    )


@pytest.fixture(scope="module")
def image_task():
    return ImageClassificationTask(
        n_train=128, n_test=64, num_classes=4, image_size=8, model_scale="tiny", seed=0,
    )


class TestLanguageModelConvergence:
    def test_deft_reduces_perplexity(self, lm_task):
        """DEFT-sparsified distributed training must actually learn: test
        perplexity after two epochs is well below the untrained level."""
        untrained = lm_task.evaluate(lm_task.build_model())["perplexity"]
        result = train(lm_task, "deft", 0.05, n_workers=4, epochs=2, lr=0.5)
        trained = result.logger.series("perplexity").last()
        assert trained < 0.8 * untrained

    def test_deft_tracks_dense_training(self, lm_task):
        """DEFT's convergence must stay in the same ballpark as non-sparsified
        training (the paper's central accuracy claim), while transmitting a
        tiny fraction of the gradients."""
        dense = train(lm_task, "dense", 1.0, n_workers=4, epochs=2, lr=0.5)
        deft = train(lm_task, "deft", 0.05, n_workers=4, epochs=2, lr=0.5)
        dense_ppl = dense.logger.series("perplexity").last()
        deft_ppl = deft.logger.series("perplexity").last()
        assert deft_ppl < 1.5 * dense_ppl
        assert deft.mean_density() < 0.1

    def test_deft_beats_random_selection(self, lm_task):
        """Magnitude-aware selection must beat random-k at equal density --
        otherwise the norm-based k assignment would be pointless."""
        deft = train(lm_task, "deft", 0.02, n_workers=4, epochs=2, lr=0.5, seed=1)
        random_k = train(lm_task, "randomk", 0.02, n_workers=4, epochs=2, lr=0.5, seed=1)
        assert (
            deft.logger.series("perplexity").last()
            <= random_k.logger.series("perplexity").last() * 1.05
        )


class TestImageClassificationConvergence:
    def test_deft_learns_above_chance(self, image_task):
        result = train(image_task, "deft", 0.05, n_workers=2, epochs=3, lr=0.1)
        accuracy = result.logger.series("accuracy").last()
        assert accuracy > 0.3  # 4 classes -> chance is 0.25

    def test_sparsifiers_agree_on_convergence_point(self, image_task):
        """DEFT and CLT-k reach comparable accuracy at the same density."""
        deft = train(image_task, "deft", 0.05, n_workers=2, epochs=2, lr=0.1)
        cltk = train(image_task, "cltk", 0.05, n_workers=2, epochs=2, lr=0.1)
        assert abs(deft.logger.series("accuracy").last() - cltk.logger.series("accuracy").last()) < 0.3


class TestScalabilityClaims:
    def test_deft_density_invariant_to_worker_count(self, lm_task):
        """The paper's key sparsification claim: DEFT's measured density does
        not grow with the number of workers, while Top-k's does."""
        deft_densities = []
        topk_densities = []
        for n_workers in (2, 8):
            deft = train(lm_task, "deft", 0.05, n_workers=n_workers, epochs=1, lr=0.5, iterations=4)
            topk = train(lm_task, "topk", 0.05, n_workers=n_workers, epochs=1, lr=0.5, iterations=4)
            deft_densities.append(deft.mean_density())
            topk_densities.append(topk.mean_density())
        assert abs(deft_densities[1] - deft_densities[0]) < 0.01
        assert topk_densities[1] > topk_densities[0] * 1.2

    def test_deft_selection_cost_falls_with_workers(self, lm_task):
        """Eq. 5: the slowest worker's analytic selection cost shrinks as the
        cluster grows."""
        costs = []
        for n_workers in (1, 4, 8):
            result = train(lm_task, "deft", 0.01, n_workers=n_workers, epochs=1, lr=0.5, iterations=3)
            costs.append(result.logger.series("selection_cost_analytic").mean())
        assert costs[1] < costs[0]
        assert costs[2] < costs[1]

    def test_deft_analytic_cost_below_topk_at_scale(self, lm_task):
        deft = train(lm_task, "deft", 0.01, n_workers=8, epochs=1, lr=0.5, iterations=3)
        topk = train(lm_task, "topk", 0.01, n_workers=8, epochs=1, lr=0.5, iterations=3)
        assert (
            deft.logger.series("selection_cost_analytic").mean()
            < 0.6 * topk.logger.series("selection_cost_analytic").mean()
        )


class TestModelLayoutRoundtrip:
    def test_layout_matches_flattened_gradients(self, lm_task):
        """GradientLayout, flatten_gradients and the error-feedback memory all
        agree on n_g for a real model."""
        from repro.training.optimizers import flatten_gradients
        from repro.data.dataloader import DataLoader

        model = lm_task.build_model()
        layout = GradientLayout.from_model(model)
        batch = next(iter(DataLoader(lm_task.train_dataset(), batch_size=4)))
        loss = lm_task.compute_loss(model, batch)
        loss.backward()
        flat = flatten_gradients(model)
        assert flat.size == layout.total_size
        norms = layer_norms(flat, two_stage_partition(layout, 1))
        assert (norms > 0).sum() >= layout.n_layers - 1
