"""Tests for error feedback, optimizer, LR schedules, metrics and timing."""

import numpy as np
import pytest

from repro.models.mlp import MLP
from repro.tensor import Tensor, functional as F
from repro.training import (
    ConstantLR,
    CosineAnnealingLR,
    ErrorFeedbackMemory,
    IterationTiming,
    SGD,
    StepDecayLR,
    accuracy_from_logits,
    hit_rate_at_k,
    perplexity_from_loss,
)
from repro.training.metrics import actual_density, mean_error_norm
from repro.training.optimizers import flatten_gradients, gradient_layout_of
from repro.training.timing import TimingAccumulator


class TestErrorFeedbackMemory:
    def test_starts_at_zero(self):
        memory = ErrorFeedbackMemory(10)
        assert memory.error_norm() == 0.0

    def test_accumulate_adds_scaled_gradient(self):
        memory = ErrorFeedbackMemory(4)
        acc = memory.accumulate(np.array([1.0, 2.0, 3.0, 4.0]), lr=0.5)
        np.testing.assert_allclose(acc, [0.5, 1.0, 1.5, 2.0])
        # The accumulator is the memory's own buffer, not a copy.
        assert acc is memory.error

    def test_update_zeroes_selected_and_keeps_rest(self):
        memory = ErrorFeedbackMemory(4)
        acc = np.array([1.0, 2.0, 3.0, 4.0])
        memory.update(acc, np.array([1, 3]))
        np.testing.assert_allclose(memory.error, [1.0, 0.0, 3.0, 0.0])

    def test_error_carries_into_next_accumulation(self):
        memory = ErrorFeedbackMemory(3)
        memory.update(np.array([1.0, 1.0, 1.0]), np.array([0]))
        acc = memory.accumulate(np.array([1.0, 1.0, 1.0]), lr=1.0)
        np.testing.assert_allclose(acc, [1.0, 2.0, 2.0])

    def test_conservation_invariant(self):
        """acc = new_error + transmitted part: nothing is lost or invented."""
        rng = np.random.default_rng(0)
        memory = ErrorFeedbackMemory(50)
        acc = rng.standard_normal(50)
        selected = rng.choice(50, size=10, replace=False)
        memory.update(acc, selected)
        transmitted = np.zeros(50)
        transmitted[selected] = acc[selected]
        np.testing.assert_allclose(memory.error + transmitted, acc)

    def test_full_selection_leaves_zero_error(self):
        memory = ErrorFeedbackMemory(5)
        memory.update(np.ones(5), np.arange(5))
        assert memory.error_norm() == 0.0

    def test_empty_selection_keeps_everything(self):
        memory = ErrorFeedbackMemory(5)
        memory.update(np.ones(5), np.array([], dtype=np.int64))
        assert memory.error_norm() == pytest.approx(np.sqrt(5))

    def test_reset(self):
        memory = ErrorFeedbackMemory(5)
        memory.update(np.ones(5), np.array([0]))
        memory.reset()
        assert memory.error_norm() == 0.0

    def test_shape_validation(self):
        memory = ErrorFeedbackMemory(5)
        with pytest.raises(ValueError):
            memory.accumulate(np.ones(4), lr=1.0)
        with pytest.raises(ValueError):
            memory.update(np.ones(6), np.array([0]))
        with pytest.raises(ValueError):
            ErrorFeedbackMemory(0)


class TestSGD:
    def _model(self):
        return MLP(in_features=4, hidden_sizes=(6,), num_classes=3, rng=np.random.default_rng(0))

    def test_apply_update_subtracts(self):
        model = self._model()
        optimizer = SGD(model)
        before = [p.data.copy() for p in model.parameters()]
        update = np.ones(optimizer.n_gradients) * 0.1
        optimizer.apply_update(update)
        for prev, param in zip(before, model.parameters()):
            np.testing.assert_allclose(param.data, prev - 0.1, atol=1e-6)

    def test_momentum_accumulates_velocity(self):
        model = self._model()
        optimizer = SGD(model, momentum=0.9)
        before = [p.data.copy() for p in model.parameters()]
        update = np.ones(optimizer.n_gradients) * 0.1
        optimizer.apply_update(update)
        optimizer.apply_update(update)
        # After two steps with momentum 0.9: total = 0.1 + (0.09 + 0.1) = 0.29
        for prev, param in zip(before, model.parameters()):
            np.testing.assert_allclose(param.data, prev - 0.29, atol=1e-5)

    def test_weight_decay_shrinks_parameters(self):
        model = self._model()
        optimizer = SGD(model, weight_decay=0.1)
        before = [p.data.copy() for p in model.parameters()]
        optimizer.apply_update(np.zeros(optimizer.n_gradients))
        for prev, param in zip(before, model.parameters()):
            np.testing.assert_allclose(param.data, prev * 0.9, atol=1e-6)

    def test_wrong_update_size_rejected(self):
        optimizer = SGD(self._model())
        with pytest.raises(ValueError):
            optimizer.apply_update(np.zeros(3))

    def test_state_dict_roundtrip(self):
        model = self._model()
        optimizer = SGD(model, momentum=0.5)
        optimizer.apply_update(np.ones(optimizer.n_gradients))
        state = optimizer.state_dict()
        fresh = SGD(self._model(), momentum=0.5)
        fresh.load_state_dict(state)
        np.testing.assert_allclose(fresh._velocity, optimizer._velocity)

    def test_flatten_gradients_layout(self):
        model = self._model()
        x = Tensor(np.random.default_rng(1).standard_normal((5, 4)).astype(np.float32))
        F.cross_entropy(model(x), np.array([0, 1, 2, 0, 1])).backward()
        flat = flatten_gradients(model)
        assert flat.size == model.num_parameters()
        offset = 0
        for _, param in model.named_parameters():
            np.testing.assert_allclose(flat[offset : offset + param.size], param.grad.reshape(-1), atol=1e-6)
            offset += param.size

    def test_flatten_gradients_missing_grad(self):
        model = self._model()
        flat = flatten_gradients(model, zero_missing=True)
        assert np.all(flat == 0)
        with pytest.raises(RuntimeError):
            flatten_gradients(model, zero_missing=False)

    def test_gradient_layout_of(self):
        layout = gradient_layout_of(self._model())
        assert layout[0][0] == "net.0.weight"
        assert layout[0][1] == (6, 4)


class TestLRSchedules:
    def test_constant(self):
        schedule = ConstantLR(0.1)
        assert schedule(0) == schedule(1000) == 0.1

    def test_constant_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ConstantLR(0.0)

    def test_step_decay(self):
        schedule = StepDecayLR(1.0, milestones=[10, 20], gamma=0.1)
        assert schedule(0) == 1.0
        assert schedule(10) == pytest.approx(0.1)
        assert schedule(25) == pytest.approx(0.01)

    def test_step_decay_validation(self):
        with pytest.raises(ValueError):
            StepDecayLR(1.0, [5], gamma=0.0)
        with pytest.raises(ValueError):
            StepDecayLR(-1.0, [5])

    def test_cosine_annealing_endpoints(self):
        schedule = CosineAnnealingLR(1.0, total_iterations=100, min_lr=0.1)
        assert schedule(0) == pytest.approx(1.0)
        assert schedule(100) == pytest.approx(0.1)
        assert 0.1 < schedule(50) < 1.0

    def test_cosine_is_monotone_decreasing(self):
        schedule = CosineAnnealingLR(1.0, total_iterations=50)
        values = [schedule(i) for i in range(51)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_cosine_validation(self):
        with pytest.raises(ValueError):
            CosineAnnealingLR(1.0, 0)


class TestMetrics:
    def test_accuracy(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, 0.0]])
        assert accuracy_from_logits(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_accuracy_empty(self):
        assert accuracy_from_logits(np.zeros((0, 3)), np.zeros(0)) == 0.0

    def test_accuracy_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy_from_logits(np.zeros((2, 3)), np.zeros(3))

    def test_perplexity(self):
        assert perplexity_from_loss(0.0) == pytest.approx(1.0)
        assert perplexity_from_loss(np.log(50.0)) == pytest.approx(50.0)

    def test_perplexity_cap(self):
        assert perplexity_from_loss(1000.0) == 1e4

    def test_hit_rate(self):
        rankings = [[3, 1, 2], [9, 8, 7], [5, 6, 4]]
        positives = [1, 0, 5]
        assert hit_rate_at_k(rankings, positives, k=2) == pytest.approx(2 / 3)

    def test_hit_rate_empty(self):
        assert hit_rate_at_k([], [], k=10) == 0.0

    def test_actual_density(self):
        assert actual_density(50, 1000) == 0.05
        with pytest.raises(ValueError):
            actual_density(1, 0)

    def test_mean_error_norm(self):
        assert mean_error_norm([1.0, 3.0]) == 2.0
        assert mean_error_norm([]) == 0.0


class TestTiming:
    def test_iteration_total(self):
        timing = IterationTiming(forward=1, backward=2, selection=3, communication=4, partition=5)
        assert timing.total == 15
        assert timing.as_dict()["selection"] == 3

    def test_accumulator_mean(self):
        accumulator = TimingAccumulator()
        accumulator.add(IterationTiming(forward=1.0))
        accumulator.add(IterationTiming(forward=3.0))
        assert accumulator.mean_breakdown()["forward"] == 2.0
        assert accumulator.mean_total() == 2.0
        assert len(accumulator) == 2

    def test_empty_accumulator(self):
        accumulator = TimingAccumulator()
        assert accumulator.mean_total() == 0.0
        assert all(v == 0.0 for v in accumulator.mean_breakdown().values())
