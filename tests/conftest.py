"""Shared fixtures for the DEFT reproduction test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sparsifiers.base import GradientLayout


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for test data."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_layout() -> GradientLayout:
    """A layout with heterogeneous layer sizes (like a real model)."""
    return GradientLayout.from_named_shapes(
        [
            ("embedding.weight", (40, 8)),
            ("lstm.weight_ih", (32, 8)),
            ("lstm.weight_hh", (32, 8)),
            ("lstm.bias", (32,)),
            ("decoder.weight", (40, 8)),
            ("decoder.bias", (40,)),
        ]
    )


@pytest.fixture
def small_acc(rng, small_layout) -> np.ndarray:
    """A flat accumulator vector with per-layer scale differences."""
    flat = rng.standard_normal(small_layout.total_size)
    # Scale each layer differently so gradient norms genuinely differ.
    for i, (offset, size) in enumerate(zip(small_layout.offsets, small_layout.sizes)):
        flat[offset : offset + size] *= (i + 1) * 0.5
    return flat


@pytest.fixture
def tiny_mlp():
    """A tiny MLP with multiple layers, used by model-level tests."""
    from repro.models.mlp import MLP

    return MLP(in_features=12, hidden_sizes=(16, 8), num_classes=4, rng=np.random.default_rng(0))


def make_smoke_lm_task(seed: int = 0):
    """A very small language-modelling task for trainer-level tests."""
    from repro.training.tasks import LanguageModelingTask

    return LanguageModelingTask(
        vocab_size=60,
        train_tokens=2048,
        test_tokens=512,
        seq_len=8,
        embed_dim=12,
        hidden_dim=16,
        seed=seed,
    )


def make_smoke_image_task(seed: int = 0):
    """A very small image-classification task for trainer-level tests."""
    from repro.training.tasks import ImageClassificationTask

    return ImageClassificationTask(
        n_train=96, n_test=48, num_classes=4, image_size=8, model_scale="tiny", seed=seed
    )


@pytest.fixture
def smoke_lm_task():
    return make_smoke_lm_task()


@pytest.fixture
def smoke_image_task():
    return make_smoke_image_task()
