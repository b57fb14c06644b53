"""Tests for training checkpoints (save / resume)."""

import numpy as np
import pytest

from repro.sparsifiers import build_sparsifier
from repro.training.checkpoints import CheckpointMetadata, load_checkpoint, save_checkpoint
from repro.api import RunSpec
from repro.training.trainer import DistributedTrainer
from tests.conftest import make_smoke_lm_task


def make_trainer(n_workers=2, momentum=0.0, seed=0):
    task = make_smoke_lm_task(seed=seed)
    sparsifier = build_sparsifier("deft", 0.05)
    config = RunSpec.from_flat(n_workers=n_workers, batch_size=8, epochs=1, lr=0.2, seed=seed,
                            momentum=momentum, max_iterations_per_epoch=3, evaluate_each_epoch=False).resolve()
    return DistributedTrainer(task, sparsifier, config)


class TestSaveLoad:
    def test_roundtrip_restores_model_and_errors(self, tmp_path):
        trainer = make_trainer()
        trainer.train()
        path = save_checkpoint(trainer, tmp_path / "ckpt")
        assert path.exists()
        assert path.with_suffix(".json").exists()

        fresh = make_trainer()
        metadata = load_checkpoint(fresh, path)
        assert metadata.iteration == trainer.iteration
        assert fresh.iteration == trainer.iteration
        for a, b in zip(trainer.model.parameters(), fresh.model.parameters()):
            np.testing.assert_array_equal(a.data, b.data)
        for mem_a, mem_b in zip(trainer.memories, fresh.memories):
            np.testing.assert_array_equal(mem_a.error, mem_b.error)

    def test_momentum_state_restored(self, tmp_path):
        trainer = make_trainer(momentum=0.9)
        trainer.train()
        path = save_checkpoint(trainer, tmp_path / "momentum.npz")
        fresh = make_trainer(momentum=0.9)
        load_checkpoint(fresh, path)
        np.testing.assert_allclose(fresh.optimizer._velocity, trainer.optimizer._velocity)

    def test_metadata_contents(self, tmp_path):
        trainer = make_trainer()
        trainer.train()
        path = save_checkpoint(trainer, tmp_path / "meta", extra={"note": 1.0})
        metadata = load_checkpoint(make_trainer(), path)
        assert metadata.sparsifier == "deft"
        assert metadata.density == 0.05
        assert metadata.task == "language_modeling"
        assert metadata.extra == {"note": 1.0}

    def test_worker_count_mismatch_rejected(self, tmp_path):
        trainer = make_trainer(n_workers=2)
        trainer.train()
        path = save_checkpoint(trainer, tmp_path / "two_workers")
        with pytest.raises(ValueError):
            load_checkpoint(make_trainer(n_workers=4), path)

    def test_suffix_normalised(self, tmp_path):
        trainer = make_trainer()
        path = save_checkpoint(trainer, tmp_path / "no_suffix")
        assert path.suffix == ".npz"

    def test_resumed_training_continues(self, tmp_path):
        trainer = make_trainer()
        trainer.train()
        path = save_checkpoint(trainer, tmp_path / "resume")
        resumed = make_trainer()
        load_checkpoint(resumed, path)
        before = resumed.iteration
        resumed.train()
        assert resumed.iteration > before

    def test_metadata_roundtrip(self):
        metadata = CheckpointMetadata(iteration=7, n_workers=4, sparsifier="deft",
                                      density=0.01, task="lm", extra={"a": 2.0})
        restored = CheckpointMetadata.from_dict(metadata.to_dict())
        assert restored == metadata
