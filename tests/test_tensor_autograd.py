"""Finite-difference verification of the autograd engine's core ops."""

import numpy as np
import pytest

from repro.tensor import Tensor, is_grad_enabled, no_grad


def numerical_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of one array."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        old = x[i]
        x[i] = old + eps
        fp = f()
        x[i] = old - eps
        fm = f()
        x[i] = old
        grad[i] = (fp - fm) / (2 * eps)
        it.iternext()
    return grad


def check_gradient(build_loss, params, tolerance=1e-6):
    """``build_loss(tensors)`` -> scalar Tensor; verify every param's grad."""
    tensors = [Tensor(p.copy(), requires_grad=True, dtype=np.float64) for p in params]
    loss = build_loss(tensors)
    loss.backward()
    for i, tensor in enumerate(tensors):
        def f(i=i):
            frozen = [Tensor(t.data, dtype=np.float64) for t in tensors]
            return build_loss(frozen).item()

        expected = numerical_gradient(f, tensor.data)
        assert tensor.grad is not None, f"parameter {i} has no gradient"
        np.testing.assert_allclose(tensor.grad, expected, atol=tolerance, rtol=1e-4)


RNG = np.random.default_rng(7)


class TestElementwiseOps:
    def test_add(self):
        a, b = RNG.standard_normal((3, 4)), RNG.standard_normal((3, 4))
        check_gradient(lambda t: (t[0] + t[1]).sum(), [a, b])

    def test_add_broadcast(self):
        a, b = RNG.standard_normal((3, 4)), RNG.standard_normal(4)
        check_gradient(lambda t: ((t[0] + t[1]) ** 2).sum(), [a, b])

    def test_scalar_add(self):
        a = RNG.standard_normal((2, 3))
        check_gradient(lambda t: (t[0] + 3.0).sum(), [a])

    def test_sub(self):
        a, b = RNG.standard_normal(5), RNG.standard_normal(5)
        check_gradient(lambda t: ((t[0] - t[1]) ** 2).sum(), [a, b])

    def test_rsub(self):
        a = RNG.standard_normal(4)
        check_gradient(lambda t: ((1.0 - t[0]) ** 2).sum(), [a])

    def test_mul(self):
        a, b = RNG.standard_normal((2, 3)), RNG.standard_normal((2, 3))
        check_gradient(lambda t: (t[0] * t[1]).sum(), [a, b])

    def test_mul_broadcast(self):
        a, b = RNG.standard_normal((2, 3)), RNG.standard_normal((1, 3))
        check_gradient(lambda t: (t[0] * t[1]).sum(), [a, b])

    def test_div(self):
        a = RNG.standard_normal(6)
        b = RNG.standard_normal(6) + 3.0
        check_gradient(lambda t: (t[0] / t[1]).sum(), [a, b])

    def test_neg(self):
        a = RNG.standard_normal(4)
        check_gradient(lambda t: (-t[0] * t[0]).sum(), [a])

    def test_pow(self):
        a = np.abs(RNG.standard_normal(5)) + 0.5
        check_gradient(lambda t: (t[0] ** 3).sum(), [a])

    def test_sqrt(self):
        a = np.abs(RNG.standard_normal(5)) + 0.5
        check_gradient(lambda t: t[0].sqrt().sum(), [a])

    def test_exp(self):
        a = RNG.standard_normal(5)
        check_gradient(lambda t: t[0].exp().sum(), [a])

    def test_log(self):
        a = np.abs(RNG.standard_normal(5)) + 0.5
        check_gradient(lambda t: t[0].log().sum(), [a])

    def test_tanh(self):
        a = RNG.standard_normal(5)
        check_gradient(lambda t: (t[0].tanh() ** 2).sum(), [a])

    def test_sigmoid(self):
        a = RNG.standard_normal(5)
        check_gradient(lambda t: (t[0].sigmoid() ** 2).sum(), [a])

    def test_relu(self):
        a = RNG.standard_normal(20) + 0.05  # avoid points exactly at the kink
        check_gradient(lambda t: (t[0].relu() * t[0].relu()).sum(), [a])

    def test_clip(self):
        a = RNG.standard_normal(20) * 2
        a = a[np.abs(np.abs(a) - 1.0) > 1e-2]  # keep away from clip boundaries
        check_gradient(lambda t: (t[0].clip(-1.0, 1.0) ** 2).sum(), [a])


class TestMatmul:
    def test_matrix_matrix(self):
        a, b = RNG.standard_normal((3, 4)), RNG.standard_normal((4, 2))
        check_gradient(lambda t: (t[0] @ t[1]).sum(), [a, b])

    def test_matrix_vector(self):
        a, b = RNG.standard_normal((3, 4)), RNG.standard_normal(4)
        check_gradient(lambda t: (t[0] @ t[1]).sum(), [a, b])

    def test_vector_matrix(self):
        a, b = RNG.standard_normal(3), RNG.standard_normal((3, 4))
        check_gradient(lambda t: (t[0] @ t[1]).sum(), [a, b])

    def test_vector_vector(self):
        a, b = RNG.standard_normal(5), RNG.standard_normal(5)
        check_gradient(lambda t: t[0] @ t[1], [a, b])

    def test_batched(self):
        a, b = RNG.standard_normal((2, 3, 4)), RNG.standard_normal((2, 4, 5))
        check_gradient(lambda t: ((t[0] @ t[1]) ** 2).sum(), [a, b])


class TestReductionsAndShape:
    def test_sum_all(self):
        a = RNG.standard_normal((3, 4))
        check_gradient(lambda t: (t[0] * t[0]).sum(), [a])

    def test_sum_axis(self):
        a = RNG.standard_normal((3, 4))
        check_gradient(lambda t: (t[0].sum(axis=0) ** 2).sum(), [a])

    def test_sum_keepdims(self):
        a = RNG.standard_normal((3, 4))
        check_gradient(lambda t: (t[0] - t[0].sum(axis=1, keepdims=True)).sum(), [a])

    def test_mean(self):
        a = RNG.standard_normal((3, 4))
        check_gradient(lambda t: (t[0].mean(axis=1) ** 2).sum(), [a])

    def test_mean_tuple_axis(self):
        a = RNG.standard_normal((2, 3, 4))
        check_gradient(lambda t: (t[0].mean(axis=(0, 2)) ** 2).sum(), [a])

    def test_max(self):
        a = RNG.standard_normal((3, 4))
        check_gradient(lambda t: t[0].max(axis=1).sum(), [a])

    def test_reshape(self):
        a = RNG.standard_normal((3, 4))
        check_gradient(lambda t: (t[0].reshape(12) ** 2).sum(), [a])

    def test_transpose(self):
        a = RNG.standard_normal((3, 4))
        check_gradient(lambda t: (t[0].T @ t[0]).sum(), [a])

    def test_getitem_slice(self):
        a = RNG.standard_normal((5, 4))
        check_gradient(lambda t: (t[0][1:3, :] ** 2).sum(), [a])

    def test_getitem_integer_array(self):
        a = RNG.standard_normal((6, 3))
        idx = np.array([0, 2, 2, 5])
        check_gradient(lambda t: (t[0][idx] ** 2).sum(), [a])

    def test_concatenate(self):
        a, b = RNG.standard_normal((2, 3)), RNG.standard_normal((2, 3))
        check_gradient(lambda t: (Tensor.concatenate([t[0], t[1]], axis=1) ** 2).sum(), [a, b])


class TestGraphMechanics:
    def test_grad_accumulates_over_reuse(self):
        a = Tensor(np.array([2.0, 3.0]), requires_grad=True, dtype=np.float64)
        loss = (a * a).sum() + (a * 3.0).sum()
        loss.backward()
        np.testing.assert_allclose(a.grad, 2 * a.data + 3.0)

    def test_backward_requires_grad(self):
        a = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            a.sum().backward()

    def test_no_grad_context(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = (a * 2).sum()
            assert not out.requires_grad
        assert is_grad_enabled()

    def test_detach_breaks_graph(self):
        a = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        out = (a.detach() * 2).sum()
        assert not out.requires_grad

    def test_zero_grad(self):
        a = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        (a * a).sum().backward()
        assert a.grad is not None
        a.zero_grad()
        assert a.grad is None

    def test_backward_with_explicit_grad(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=np.float64)
        out = a * 3.0
        out.backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(a.grad, [3.0, 30.0])

    def test_diamond_graph(self):
        # The same node feeds two paths that later merge: gradients must sum.
        a = Tensor(np.array([1.5]), requires_grad=True, dtype=np.float64)
        b = a * 2.0
        c = a * 3.0
        loss = (b * c).sum()  # loss = 6 a^2 -> dloss/da = 12 a
        loss.backward()
        np.testing.assert_allclose(a.grad, 12 * a.data)

    def test_repeated_backward_accumulates_into_leaf(self):
        a = Tensor(np.array([2.0]), requires_grad=True, dtype=np.float64)
        (a * a).sum().backward()
        first = a.grad.copy()
        (a * a).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * first)


class TestTensorConstruction:
    def test_zeros_ones(self):
        assert Tensor.zeros(2, 3).data.shape == (2, 3)
        assert float(Tensor.ones(2).data.sum()) == 2.0

    def test_randn_with_rng_is_reproducible(self):
        a = Tensor.randn(4, rng=np.random.default_rng(0))
        b = Tensor.randn(4, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(a.data, b.data)

    def test_from_numpy_preserves_dtype(self):
        arr = np.arange(4, dtype=np.float64)
        assert Tensor.from_numpy(arr).dtype == np.float64

    def test_properties(self):
        t = Tensor(np.zeros((2, 5)))
        assert t.shape == (2, 5)
        assert t.ndim == 2
        assert t.size == 10
        assert len(t) == 2

    def test_item_scalar(self):
        assert Tensor(np.array([3.5])).item() == pytest.approx(3.5)
