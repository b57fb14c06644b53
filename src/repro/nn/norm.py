"""Normalisation layers: BatchNorm2d and LayerNorm.

``BatchNorm2d`` runs as one autograd node: :func:`batchnorm2d_forward` and
:func:`batchnorm2d_backward` work on plain arrays, optionally with the ReLU
that follows the normalisation folded in.  They reproduce, bit for bit,
what the generic tape computes for the same layer written one ``Tensor``
op at a time (``x.mean``, ``x - mean``, ..., ``normalised * gamma + beta``,
``.relu()``), because they keep the tape's expression forms, operand
order and constants:

* the batch mean is ``x.sum(axes, keepdims=True) * f32(1/count)`` and the
  variance the same over ``centered * centered``; ``std`` is
  ``(var + f32(eps)) ** 0.5`` -- the tape stores every constant as a
  float32 ``Tensor``, whatever the input's dtype;
* the backward adds the contributions to a node in the order the tape's
  topological sort delivers them: ``dcentered = (dn / std + t) + t`` with
  ``t = broadcast(dvar * k) * centered`` (the two factors of the square),
  then ``dx = dcentered + broadcast(dmean * k)``;
* ``dstd = ((-dn) * centered / std**2).sum(...)`` and
  ``dvpe = (dstd * 0.5) * vpe ** -0.5``, as the division and power nodes
  write them; ReLU is ``y * (y > 0)`` with backward ``dy * (y > 0)``;
* ``dgamma`` and ``dbeta`` are cast to the parameters' dtype before they
  are summed over ``(N, H, W)``, as the tape's reshape nodes receive them.

Reductions over ``(N, H, W)`` sum in memory order, so their bits depend on
the input's strides: every intermediate is built from ``x`` by the same
elementwise expressions as on the tape, and so has the same layout (the
convolution hands batch-norm a channels-last array).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.nn.module import Module, Parameter
from repro.tensor.tensor import Tensor

__all__ = ["BatchNorm2d", "LayerNorm", "batchnorm2d_forward", "batchnorm2d_backward"]

_AXES = (0, 2, 3)


class BatchNormCache(NamedTuple):
    """What :func:`batchnorm2d_backward` needs from the forward pass."""

    centered: np.ndarray
    vpe: np.ndarray  # var + eps
    std: np.ndarray
    normalised: np.ndarray
    gamma: np.ndarray  # (1, C, 1, 1)
    mask: Optional[np.ndarray]  # ReLU's y > 0, or None without ReLU
    k: Optional[np.ndarray]  # 1/count, or None in evaluation mode
    mean: np.ndarray  # the statistics used, (1, C, 1, 1)
    var: np.ndarray


def batchnorm2d_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float,
    relu: bool = False,
    running: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, BatchNormCache]:
    """Batch-normalise ``x`` of shape ``(N, C, H, W)`` per channel.

    ``running`` is the ``(mean, var)`` pair of shape ``(C,)`` to normalise
    with (evaluation mode); ``None`` normalises with the batch statistics.
    With ``relu`` the output is ``relu(y)``.  Returns the output and the
    cache for :func:`batchnorm2d_backward`; ``cache.mean``/``cache.var``
    are the statistics used.
    """
    c = x.shape[1]
    if running is None:
        k = np.asarray(1.0 / (x.size // c), dtype=np.float32)
        mean = x.sum(axis=_AXES, keepdims=True) * k
        centered = x - mean
        var = (centered * centered).sum(axis=_AXES, keepdims=True) * k
    else:
        k = None
        mean = np.asarray(running[0].reshape(1, c, 1, 1), dtype=np.float32)
        var = np.asarray(running[1].reshape(1, c, 1, 1), dtype=np.float32)
        centered = x - mean
    vpe = var + np.asarray(eps, dtype=np.float32)
    std = vpe ** 0.5
    normalised = centered / std
    gamma4 = gamma.reshape(1, c, 1, 1)
    y = normalised * gamma4 + beta.reshape(1, c, 1, 1)
    mask = None
    if relu:
        mask = y > 0
        y = y * mask
    return y, BatchNormCache(centered, vpe, std, normalised, gamma4, mask, k, mean, var)


def batchnorm2d_backward(
    dy: np.ndarray, cache: BatchNormCache
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients ``(dx, dgamma, dbeta)`` of :func:`batchnorm2d_forward`.

    In evaluation mode the statistics are constants, so ``dx`` is
    ``dn / std`` alone.
    """
    g = dy if cache.mask is None else dy * cache.mask
    c = g.shape[1]
    # The tape casts a parameter's gradient to the parameter's dtype before
    # reducing it over the broadcast axes (a no-op for float32 inputs).
    param_dtype = cache.gamma.dtype
    dbeta = g.astype(param_dtype, copy=False).sum(axis=_AXES, keepdims=True).reshape(c)
    dgamma = (g * cache.normalised).astype(param_dtype, copy=False).sum(axis=_AXES, keepdims=True).reshape(c)
    dn = g * cache.gamma
    if cache.k is None:
        return dn / cache.std, dgamma, dbeta
    centered, std = cache.centered, cache.std
    dstd = (-dn * centered / (std ** 2)).sum(axis=_AXES, keepdims=True)
    dvar = (dstd * 0.5) * (cache.vpe ** -0.5)
    t = np.broadcast_to(dvar * cache.k, centered.shape) * centered
    dcentered = (dn / std + t) + t
    dmean = (-dcentered).sum(axis=_AXES, keepdims=True) * cache.k
    return dcentered + np.broadcast_to(dmean, centered.shape), dgamma, dbeta


class BatchNorm2d(Module):
    """Batch normalisation over (N, H, W) for each channel of an NCHW input.

    Training mode normalises with batch statistics and updates exponential
    running averages; evaluation mode uses the running averages.  The layer
    is one autograd node (see the module docstring); ``forward(x,
    relu=True)`` also applies the ReLU that follows it, in the same node.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = int(num_features)
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.weight = Parameter(np.ones(num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def forward(self, x: Tensor, relu: bool = False) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects NCHW input, got shape {x.shape}")
        running = None if self.training else (self.running_mean, self.running_var)
        out_data, cache = batchnorm2d_forward(
            x.data, self.weight.data, self.bias.data, self.eps, relu=relu, running=running
        )
        if self.training:
            # Update running statistics outside the autograd graph.
            c, m = self.num_features, self.momentum
            self.update_buffer("running_mean", (1 - m) * self.running_mean + m * cache.mean.reshape(c))
            self.update_buffer("running_var", (1 - m) * self.running_var + m * cache.var.reshape(c))

        def backward(grad, grads, x=x, gamma=self.weight, beta=self.bias):
            dx, dgamma, dbeta = batchnorm2d_backward(grad, cache)
            x._receive(dx, grads)
            gamma._receive(dgamma, grads)
            beta._receive(dbeta, grads)

        return Tensor._make(out_data, (x, self.weight, self.bias), backward)

    def __repr__(self) -> str:  # pragma: no cover
        return f"BatchNorm2d({self.num_features}, eps={self.eps}, momentum={self.momentum})"


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.normalized_shape = int(normalized_shape)
        self.eps = float(eps)
        self.weight = Parameter(np.ones(normalized_shape, dtype=np.float32))
        self.bias = Parameter(np.zeros(normalized_shape, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normalised = centered / ((var + self.eps) ** 0.5)
        return normalised * self.weight + self.bias

    def __repr__(self) -> str:  # pragma: no cover
        return f"LayerNorm({self.normalized_shape}, eps={self.eps})"
