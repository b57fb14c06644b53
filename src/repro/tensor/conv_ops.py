"""2-D convolution and pooling built on im2col.

The residual CNN workload (the reproduction's stand-in for ResNet-18 on
CIFAR-10) needs convolution layers whose weight tensors have realistic sizes
and gradient norms.  The implementation uses the classic im2col lowering so
that the heavy lifting is a single GEMM, following the vectorisation guidance
of the HPC Python guides (no Python-level loops over batch or spatial
positions; only the small kernel-position loop remains).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.tensor.tensor import Tensor

__all__ = ["conv2d", "max_pool2d", "avg_pool2d", "im2col", "col2im", "conv_output_size"]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling dimension."""
    return (size + 2 * padding - kernel) // stride + 1


def im2col(
    x: np.ndarray, kernel: Tuple[int, int], stride: int, padding: int
) -> np.ndarray:
    """Lower ``x`` of shape (N, C, H, W) into columns.

    Returns an array of shape ``(N, C * KH * KW, OH * OW)``.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        i_end = i + stride * oh
        for j in range(kw):
            j_end = j + stride * ow
            cols[:, :, i, j, :, :] = x[:, :, i:i_end:stride, j:j_end:stride]
    return cols.reshape(n, c * kh * kw, oh * ow)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Inverse of :func:`im2col` (scatter-add of overlapping patches)."""
    n, c, h, w = x_shape
    kh, kw = kernel
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kh):
        i_end = i + stride * oh
        for j in range(kw):
            j_end = j + stride * ow
            padded[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution.

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Filters of shape ``(C_out, C_in, KH, KW)``.
    bias:
        Optional bias of shape ``(C_out,)``.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"input channels {c_in} do not match weight channels {c_in_w}")
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)

    cols = im2col(x.data, (kh, kw), stride, padding)  # (N, C*KH*KW, OH*OW)
    w_mat = weight.data.reshape(c_out, -1)  # (C_out, C*KH*KW)
    out_data = np.einsum("of,nfs->nos", w_mat, cols, optimize=True)
    out_data = out_data.reshape(n, c_out, oh, ow)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad, grads, x_t=x, w_t=weight, b_t=bias, cached_cols=cols):
        g = grad.reshape(n, c_out, oh * ow)  # (N, C_out, S)
        # dW: sum over batch of g @ cols^T
        dw = np.einsum("nos,nfs->of", g, cached_cols, optimize=True).reshape(w_t.data.shape)
        w_t._receive(dw, grads)
        # dX: lower the gradient back through the GEMM then col2im
        dcols = np.einsum("of,nos->nfs", w_t.data.reshape(c_out, -1), g, optimize=True)
        dx = col2im(dcols, (n, c_in, h, w), (kh, kw), stride, padding)
        x_t._receive(dx, grads)
        if b_t is not None:
            b_t._receive(g.sum(axis=(0, 2)), grads)

    return Tensor._make(out_data.astype(x.data.dtype, copy=False), parents, backward)


def max_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Non-overlapping max pooling (``stride`` defaults to ``kernel``).

    Only ``stride == kernel`` with evenly divisible spatial dims is supported,
    which is all the bundled models need.
    """
    stride = kernel if stride is None else stride
    if stride != kernel:
        raise NotImplementedError("only stride == kernel pooling is supported")
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError("spatial dimensions must be divisible by the pooling kernel")
    oh, ow = h // kernel, w // kernel
    reshaped = x.data.reshape(n, c, oh, kernel, ow, kernel)
    out_data = reshaped.max(axis=(3, 5))
    # Mask of argmax positions (ties share gradient equally).
    expanded = out_data[:, :, :, None, :, None]
    mask = (reshaped == expanded).astype(x.data.dtype)
    mask = mask / np.maximum(mask.sum(axis=(3, 5), keepdims=True), 1.0)

    def backward(grad, grads, x_t=x, m=mask, k=kernel):
        g = grad[:, :, :, None, :, None] * m
        x_t._receive(g.reshape(x_t.data.shape), grads)

    return Tensor._make(out_data, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Non-overlapping average pooling (``stride`` defaults to ``kernel``)."""
    stride = kernel if stride is None else stride
    if stride != kernel:
        raise NotImplementedError("only stride == kernel pooling is supported")
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError("spatial dimensions must be divisible by the pooling kernel")
    oh, ow = h // kernel, w // kernel
    reshaped = x.data.reshape(n, c, oh, kernel, ow, kernel)
    out_data = reshaped.mean(axis=(3, 5))
    scale = 1.0 / (kernel * kernel)

    def backward(grad, grads, x_t=x, k=kernel, s=scale):
        g = np.repeat(np.repeat(grad, k, axis=2), k, axis=3) * s
        x_t._receive(g, grads)

    return Tensor._make(out_data, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the spatial dimensions, returning shape ``(N, C)``."""
    return x.mean(axis=(2, 3))
