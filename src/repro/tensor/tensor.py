"""Core reverse-mode autograd ``Tensor``.

The design follows the classic tape-less "define-by-run" pattern: every
operation produces a new :class:`Tensor` holding references to its inputs and
a closure that propagates the output gradient to them.  Calling
:meth:`Tensor.backward` performs a topological sort of the graph and runs the
closures in reverse order, passing each one the output gradient and the
pass's ``grads`` dict (``backward(grad, grads)``) to accumulate into.

A closure references its inputs and arrays, never the tensor it produces, so
a graph holds no reference cycle: it is freed by reference counting as soon
as nothing references its output, and can be backpropagated again (adding to
the leaves' ``.grad``) for as long as something does.

All arrays are stored as ``float32`` by default (``float64`` only in the
tests that compare against finite differences).  Broadcasting is supported in
both directions via :func:`_unbroadcast`.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

Number = Union[int, float, np.number]
ArrayLike = Union[Number, Sequence, np.ndarray, "Tensor"]

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return whether new operations will record a backward graph."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (like ``torch.no_grad``)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading dims added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dims that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike, dtype=np.float32) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value, dtype=dtype)
    return arr


class Tensor:
    """An n-dimensional array with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")
    __array_priority__ = 100  # make numpy defer to Tensor's reflected ops

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        dtype=np.float32,
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data: np.ndarray = np.asarray(data, dtype=dtype)
        self.requires_grad: bool = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray, dict], None]] = None
        self._prev: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but outside the graph."""
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return self.data.shape[0]

    # ------------------------------------------------------------------ #
    # graph plumbing
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray, dict], None],
    ) -> "Tensor":
        parents = tuple(parents)
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, dtype=data.dtype)
        if requires:
            out._prev = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=self.data.dtype)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor.  Defaults to
            ones (and must be supplied for non-scalar outputs in principle,
            but ones is a convenient default for tests).
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad, dtype=self.data.dtype)
            grad = np.broadcast_to(grad, self.data.shape).astype(self.data.dtype)

        # Topological order of the graph reachable from self.
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads = {id(self): np.asarray(grad, dtype=self.data.dtype)}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node is self or node._prev == () or node._backward is None:
                node._accumulate(node_grad)
                if node is not self and node._backward is None:
                    continue
            if node._backward is not None:
                node._backward(node_grad, grads)

    # Backward closures hand each parent its gradient through this helper,
    # into the pass's ``grads`` dict they receive as an argument, so that
    # intermediate tensors do not store their gradients (only leaves keep
    # .grad) and no closure needs a reference to its own output.
    def _receive(self, grad: np.ndarray, grads_dict) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        key = id(self)
        if key in grads_dict:
            grads_dict[key] = grads_dict[key] + grad
        else:
            grads_dict[key] = grad

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False, dtype=np.float32) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad, dtype=dtype)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False, dtype=np.float32) -> "Tensor":
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad, dtype=dtype)

    @staticmethod
    def randn(
        *shape: int,
        rng: Optional[np.random.Generator] = None,
        requires_grad: bool = False,
        dtype=np.float32,
        scale: float = 1.0,
    ) -> "Tensor":
        # repro: allow-unseeded(convenience fallback; model builders pass rngs derived from the run seed)
        rng = rng if rng is not None else np.random.default_rng()
        data = (rng.standard_normal(shape) * scale).astype(dtype)
        return Tensor(data, requires_grad=requires_grad, dtype=dtype)

    @staticmethod
    def from_numpy(array: np.ndarray, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.asarray(array), requires_grad=requires_grad, dtype=np.asarray(array).dtype)

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other, self.dtype))
        out_data = self.data + other_t.data
        parents = (self, other_t)

        def backward(grad, grads, a=self, b=other_t):
            a._receive(grad, grads)
            b._receive(grad, grads)

        return Tensor._make(out_data, parents, backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(grad, grads, a=self):
            a._receive(-grad, grads)

        return Tensor._make(out_data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other, self.dtype))
        out_data = self.data - other_t.data

        def backward(grad, grads, a=self, b=other_t):
            a._receive(grad, grads)
            b._receive(-grad, grads)

        return Tensor._make(out_data, (self, other_t), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other, self.dtype))
        return other_t - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other, self.dtype))
        out_data = self.data * other_t.data

        def backward(grad, grads, a=self, b=other_t):
            a._receive(grad * b.data, grads)
            b._receive(grad * a.data, grads)

        return Tensor._make(out_data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other, self.dtype))
        out_data = self.data / other_t.data

        def backward(grad, grads, a=self, b=other_t):
            a._receive(grad / b.data, grads)
            b._receive(-grad * a.data / (b.data ** 2), grads)

        return Tensor._make(out_data, (self, other_t), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other, self.dtype))
        return other_t / self

    def __pow__(self, exponent: Number) -> "Tensor":
        if not isinstance(exponent, (int, float, np.number)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad, grads, a=self, p=float(exponent)):
            a._receive(grad * p * (a.data ** (p - 1.0)), grads)

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other, self.dtype))
        return self.matmul(other_t)

    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix multiplication supporting 1-D and batched operands."""
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other, self.dtype))
        a_data, b_data = self.data, other_t.data
        out_data = a_data @ b_data

        def backward(grad, grads, a=self, b=other_t):
            ad, bd = a.data, b.data
            if ad.ndim == 1 and bd.ndim == 1:
                a._receive(grad * bd, grads)
                b._receive(grad * ad, grads)
                return
            if ad.ndim == 1:
                # (k,) @ (k, n) -> (n,)
                a._receive(grad @ np.swapaxes(bd, -1, -2), grads)
                b._receive(np.outer(ad, grad), grads)
                return
            if bd.ndim == 1:
                # (m, k) @ (k,) -> (m,)
                a._receive(np.outer(grad, bd), grads)
                b._receive(np.swapaxes(ad, -1, -2) @ grad, grads)
                return
            a._receive(grad @ np.swapaxes(bd, -1, -2), grads)
            b._receive(np.swapaxes(ad, -1, -2) @ grad, grads)

        return Tensor._make(out_data, (self, other_t), backward)

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad, grads, a=self):
            a._receive(grad.reshape(a.data.shape), grads)

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes_t = tuple(axes) if axes else tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes_t)
        inverse = np.argsort(axes_t)

        def backward(grad, grads, a=self, inv=tuple(int(i) for i in inverse)):
            a._receive(grad.transpose(inv), grads)

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward(grad, grads, a=self, k=key):
            full = np.zeros_like(a.data)
            np.add.at(full, k, grad)
            a._receive(full, grads)

        return Tensor._make(np.asarray(out_data), (self,), backward)

    # ------------------------------------------------------------------ #
    # reductions and elementwise non-linearities
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad, grads, a=self, ax=axis, kd=keepdims):
            g = np.asarray(grad)
            if ax is not None and not kd:
                axes = ax if isinstance(ax, tuple) else (ax,)
                axes = tuple(a_i % a.data.ndim for a_i in axes)
                for a_i in sorted(axes):
                    g = np.expand_dims(g, a_i)
            a._receive(np.broadcast_to(g, a.data.shape), grads)

        return Tensor._make(np.asarray(out_data), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a % self.data.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad, grads, a=self):
            a._receive(grad * out_data, grads)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad, grads, a=self):
            a._receive(grad / a.data, grads)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad, grads, a=self):
            a._receive(grad * (1.0 - out_data ** 2), grads)

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad, grads, a=self):
            a._receive(grad * out_data * (1.0 - out_data), grads)

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad, grads, a=self, m=mask):
            a._receive(grad * m, grads)

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)
        out_data = np.clip(self.data, low, high)

        def backward(grad, grads, a=self, m=mask):
            a._receive(grad * m, grads)

        return Tensor._make(out_data, (self,), backward)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        expanded = self.data.max(axis=axis, keepdims=True)
        mask = (self.data == expanded).astype(self.data.dtype)
        mask = mask / np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)

        def backward(grad, grads, a=self, m=mask, ax=axis, kd=keepdims):
            g = np.asarray(grad)
            if ax is not None and not kd:
                axes = ax if isinstance(ax, tuple) else (ax,)
                axes = tuple(a_i % a.data.ndim for a_i in axes)
                for a_i in sorted(axes):
                    g = np.expand_dims(g, a_i)
            a._receive(np.broadcast_to(g, a.data.shape) * m, grads)

        return Tensor._make(np.asarray(out_data), (self,), backward)

    # ------------------------------------------------------------------ #
    # joining
    # ------------------------------------------------------------------ #
    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]

        def backward(grad, grads, ts=tuple(tensors), sz=tuple(sizes), ax=axis):
            splits = np.cumsum(sz)[:-1]
            pieces = np.split(grad, splits, axis=ax)
            for t, piece in zip(ts, pieces):
                t._receive(piece, grads)

        return Tensor._make(out_data, tensors, backward)
