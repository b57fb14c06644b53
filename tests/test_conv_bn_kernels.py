"""Admission tests for the convolution GEMMs and the batch-norm(+ReLU) kernel.

Both replace op-by-op tape work on the ``cv`` path and must give the same
bits as what they replace, so these tests use ``np.array_equal``, never a
tolerance:

* the batch-norm node (:func:`repro.nn.norm.batchnorm2d_forward` and
  ``_backward`` behind ``BatchNorm2d.forward``) against the layer written as
  generic ``Tensor`` ops, on random NCHW shapes, with C-contiguous and
  channels-last inputs, in training and evaluation mode, with and without
  the fused ReLU: output, input/parameter gradients and running buffers;
* the convolution's forward GEMM against ``einsum("of,nfs->nos")`` (values
  and strides) and its input-gradient GEMM against
  ``einsum("of,nos->nfs")`` (values), on every convolution shape of the
  ``cv`` models, with ``im2col``'s zero border against ``np.pad``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.models.resnet import resnet_cifar
from repro.tensor import Tensor
from repro.tensor.conv_ops import col2im, conv2d, im2col


def _layout(x: np.ndarray, channels_last: bool) -> np.ndarray:
    """``x`` with the same values, stored C-contiguous or channels-last."""
    if channels_last:
        return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    return np.ascontiguousarray(x)


def _tape_batchnorm(x, weight, bias, running_mean, running_var, eps, momentum, training, relu):
    """The layer as generic tape ops; returns the output and the new buffers."""
    c = weight.shape[0]
    if training:
        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=(0, 2, 3), keepdims=True)
        running_mean = (1 - momentum) * running_mean + momentum * mean.data.reshape(c)
        running_var = (1 - momentum) * running_var + momentum * var.data.reshape(c)
        normalised = centered / ((var + eps) ** 0.5)
    else:
        mean = Tensor(running_mean.reshape(1, c, 1, 1))
        var = Tensor(running_var.reshape(1, c, 1, 1))
        normalised = (x - mean) / ((var + eps) ** 0.5)
    out = normalised * weight.reshape(1, c, 1, 1) + bias.reshape(1, c, 1, 1)
    return (out.relu() if relu else out), running_mean, running_var


@settings(max_examples=120, deadline=None)
@given(
    shape=st.tuples(
        st.integers(1, 5), st.integers(1, 6), st.integers(1, 7), st.integers(1, 7)
    ),
    channels_last=st.booleans(),
    grad_channels_last=st.booleans(),
    training=st.booleans(),
    relu=st.booleans(),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**31 - 1),
)
def test_batchnorm_node_matches_the_tape(shape, channels_last, grad_channels_last, training, relu, dtype, seed):
    rng = np.random.default_rng(seed)
    c = shape[1]
    x_data = _layout((rng.standard_normal(shape) * 3 + 1).astype(dtype), channels_last)
    dy = _layout(rng.standard_normal(shape).astype(dtype), grad_channels_last)
    gamma = (rng.standard_normal(c) + 1).astype(np.float32)
    beta = rng.standard_normal(c).astype(np.float32)
    running_mean = rng.standard_normal(c).astype(np.float32)
    running_var = (rng.random(c) + 0.5).astype(np.float32)

    bn = nn.BatchNorm2d(c, momentum=0.3)
    bn.weight.data[...] = gamma
    bn.bias.data[...] = beta
    bn.update_buffer("running_mean", running_mean.copy())
    bn.update_buffer("running_var", running_var.copy())
    bn.train(training)
    x = Tensor(x_data, requires_grad=True, dtype=dtype)
    out = bn(x, relu=relu)
    out.backward(dy)

    x_ref = Tensor(x_data, requires_grad=True, dtype=dtype)
    w_ref = Tensor(gamma, requires_grad=True)
    b_ref = Tensor(beta, requires_grad=True)
    ref, ref_mean, ref_var = _tape_batchnorm(
        x_ref, w_ref, b_ref, running_mean, running_var, bn.eps, bn.momentum, training, relu
    )
    ref.backward(dy)

    assert out.data.dtype == ref.data.dtype
    assert np.array_equal(out.data, ref.data)
    assert np.array_equal(x.grad, x_ref.grad)
    assert np.array_equal(bn.weight.grad, w_ref.grad)
    assert np.array_equal(bn.bias.grad, b_ref.grad)
    assert np.array_equal(bn.running_mean, ref_mean)
    assert np.array_equal(bn.running_var, ref_var)


def test_batchnorm_node_is_one_tape_node():
    bn = nn.BatchNorm2d(3)
    x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 4, 4)), requires_grad=True)
    out = bn(x, relu=True)
    assert out._prev == (x, bn.weight, bn.bias)


def _cv_conv_shapes():
    """``(C_in, H, W, C_out, K, stride, padding)`` of every convolution the
    ``cv`` workload runs (smoke: tiny model on 8x8, repro: small on 16x16)."""
    shapes = []
    for scale, size in (("tiny", 8), ("small", 16)):
        model = resnet_cifar(scale=scale, image_size=size, rng=np.random.default_rng(0))
        model.eval()
        seen = []
        original = nn.conv.conv2d

        def record(x, weight, bias=None, stride=1, padding=0):
            seen.append((*x.shape[1:], weight.shape[0], weight.shape[2], stride, padding))
            return original(x, weight, bias, stride=stride, padding=padding)

        nn.conv.conv2d = record
        try:
            model(Tensor(np.zeros((1, 3, size, size), dtype=np.float32)))
        finally:
            nn.conv.conv2d = original
        shapes.extend(s for s in seen if s not in shapes)
    return shapes


CV_CONV_SHAPES = _cv_conv_shapes()


def test_cv_conv_shapes_cover_every_kind():
    kinds = {(k, stride, padding) for *_, k, stride, padding in CV_CONV_SHAPES}
    assert kinds == {(3, 1, 1), (3, 2, 1), (1, 2, 0)}
    assert len(CV_CONV_SHAPES) == 13


@pytest.mark.parametrize("batch", [1, 16, 64])
@pytest.mark.parametrize("shape", CV_CONV_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_conv_gemms_match_einsum(shape, batch):
    c_in, h, w, c_out, k, stride, padding = shape
    rng = np.random.default_rng(batch * 1000 + c_in * 10 + k)
    x = Tensor(rng.standard_normal((batch, c_in, h, w)).astype(np.float32), requires_grad=True)
    weight = Tensor(rng.standard_normal((c_out, c_in, k, k)).astype(np.float32), requires_grad=True)
    out = conv2d(x, weight, stride=stride, padding=padding)

    cols = im2col(x.data, (k, k), stride, padding)
    pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    assert np.array_equal(cols, im2col(np.pad(x.data, pad), (k, k), stride, 0))
    w_mat = weight.data.reshape(c_out, -1)
    expected = np.einsum("of,nfs->nos", w_mat, cols, optimize=True).reshape(out.shape)
    assert np.array_equal(out.data, expected)
    assert out.data.strides == expected.strides

    for channels_last in (False, True):
        x.grad = None
        g = _layout(rng.standard_normal(out.shape).astype(np.float32), channels_last)
        out.backward(g)
        g_mat = g.reshape(batch, c_out, -1)
        dcols = np.einsum("of,nos->nfs", w_mat, g_mat, optimize=True)
        assert np.array_equal(x.grad, col2im(dcols, x.shape, (k, k), stride, padding))
