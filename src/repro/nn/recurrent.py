"""Recurrent layers: LSTMCell and a (possibly multi-layer) LSTM.

The language-modelling workload of the paper (LSTM on WikiText-2) is
reproduced with this implementation.  The weight layout follows PyTorch:
``weight_ih`` of shape ``(4*hidden, input)`` and ``weight_hh`` of shape
``(4*hidden, hidden)``, gates ordered input/forget/cell/output.

Each layer runs as one fused kernel over the whole sequence:
:func:`lstm_forward` and :func:`lstm_backward` work on plain arrays, and
the layer is a single autograd node (plus a small child node for the final
cell state).  The kernel reproduces, bit for bit, what the generic tape
computes for the same recurrence unrolled one ``Tensor`` op at a time:

* every expression keeps the tape's form and evaluation order -- gates are
  ``((x_t @ W_ih.T + h @ W_hh.T) + b_ih) + b_hh``, sigmoid is
  ``1/(1+exp(-v))`` with backward ``(g*s)*(1-s)``, tanh's backward is
  ``g*(1-t**2)``, and each step's weight gradient is ``(x_t.T @ dgates).T``;
* the per-step contributions to a parameter gradient are summed in the
  order the tape's depth-first traversal visits them: ``weight_ih``,
  ``bias_ih`` and ``bias_hh`` in reverse time order (``t = T-1`` first),
  ``weight_hh`` in forward time order (``t = 0`` first, including the zero
  contribution of a zero initial state).  Summing the weight-gradient
  GEMMs over all steps at once would change that order, so they stay per
  step.  So do the input projection and ``dx``: one ``(N*T, ...)`` GEMM
  is not bit-equal to ``T`` GEMMs of ``N`` rows under OpenBLAS (it picks
  different kernels by size, and a one-row product goes through GEMV).

With several layers the tape interleaves the lower layers' ``weight_hh``
contributions differently, so stacked layers agree with it to float32
rounding rather than bit for bit.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn.module import Module, Parameter
from repro.tensor import init
from repro.tensor.tensor import Tensor

__all__ = ["LSTMCell", "LSTM", "lstm_forward", "lstm_backward"]

State = Tuple[Tensor, Tensor]


def lstm_forward(
    x: np.ndarray,
    w_ih: np.ndarray,
    w_hh: np.ndarray,
    b_ih: np.ndarray,
    b_hh: np.ndarray,
    h0: Optional[np.ndarray] = None,
    c0: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, tuple]:
    """One LSTM layer over a sequence ``x`` of shape ``(N, T, input)``.

    ``h0``/``c0`` of shape ``(N, hidden)`` default to zeros.  Returns the
    hidden state at every step ``(N, T, hidden)``, the final cell state and
    the cache :func:`lstm_backward` needs.
    """
    n, steps, _ = x.shape
    hid = w_hh.shape[1]
    if h0 is None:
        h0 = np.zeros((n, hid), dtype=np.float32)
    if c0 is None:
        c0 = np.zeros((n, hid), dtype=np.float32)
    dtype = np.result_type(x, w_ih, h0, c0, w_hh, b_ih, b_hh)
    hs = np.empty((steps + 1, n, hid), dtype=dtype)  # hs[t] is the input state of step t
    cs = np.empty((steps + 1, n, hid), dtype=dtype)
    hs[0] = h0
    cs[0] = c0
    act = np.empty((steps, n, 4 * hid), dtype=dtype)  # sigmoid(i, f, o) and tanh(g)
    tanh_c = np.empty((steps, n, hid), dtype=dtype)
    w_ih_t, w_hh_t = w_ih.T, w_hh.T
    g_cols = slice(2 * hid, 3 * hid)
    for t in range(steps):
        gates = x[:, t] @ w_ih_t + hs[t] @ w_hh_t
        gates += b_ih
        gates += b_hh
        a = act[t]
        np.negative(gates, out=a)
        np.exp(a, out=a)
        a += 1.0
        np.divide(1.0, a, out=a)
        a[:, g_cols] = np.tanh(gates[:, g_cols])
        c = cs[t + 1]
        np.multiply(a[:, hid : 2 * hid], cs[t], out=c)
        c += a[:, :hid] * a[:, g_cols]
        np.tanh(c, out=tanh_c[t])
        np.multiply(a[:, 3 * hid :], tanh_c[t], out=hs[t + 1])
    out = np.ascontiguousarray(hs[1:].transpose(1, 0, 2))
    return out, cs[steps], (x, w_ih, w_hh, hs, cs, act, tanh_c)


def lstm_backward(
    dout: np.ndarray, dc_last: Optional[np.ndarray], cache: tuple
) -> Tuple[np.ndarray, ...]:
    """Backpropagation through time for :func:`lstm_forward`.

    ``dout`` is the gradient of every step's hidden state, ``dc_last`` that
    of the final cell state (``None`` for none).  Returns
    ``(dx, dW_ih, dW_hh, db_ih, db_hh, dh0, dc0)``.
    """
    x, w_ih, w_hh, hs, cs, act, tanh_c = cache
    steps, n, four_hid = act.shape
    hid = four_hid // 4
    g_cols = slice(2 * hid, 3 * hid)
    # Gate derivatives as (grad * mul) * comp: sigmoid's (g*s)*(1-s), and
    # tanh's g*(1-t**2) with mul = 1 on the cell-gate block (exact).
    mul = act.copy()
    mul[..., g_cols] = 1.0
    comp = 1.0 - act
    comp[..., g_cols] = 1.0 - act[..., g_cols] ** 2
    comp_c = 1.0 - tanh_c ** 2
    dgates = np.empty_like(act)
    dpre = np.empty((n, four_hid), dtype=act.dtype)
    dx = np.empty(x.shape, dtype=act.dtype)
    dh = db = dw_ih = None
    dc = dc_last
    for t in range(steps - 1, -1, -1):
        a = act[t]
        dh_t = dout[:, t] if dh is None else dh + dout[:, t]
        np.multiply(dh_t, tanh_c[t], out=dpre[:, 3 * hid :])
        dc_t = (dh_t * a[:, 3 * hid :]) * comp_c[t]
        if dc is not None:
            dc_t += dc
        np.multiply(dc_t, a[:, g_cols], out=dpre[:, :hid])
        np.multiply(dc_t, cs[t], out=dpre[:, hid : 2 * hid])
        np.multiply(dc_t, a[:, :hid], out=dpre[:, g_cols])
        dg = dgates[t]
        np.multiply(dpre, mul[t], out=dg)
        dg *= comp[t]
        np.matmul(dg, w_ih, out=dx[:, t])
        db_t = dg.sum(axis=0)
        dw_t = x[:, t].T @ dg
        if db is None:
            db, dw_ih = db_t, dw_t
        else:
            db += db_t
            dw_ih += dw_t
        dh = dg @ w_hh
        dc = dc_t * a[:, hid : 2 * hid]
    dw_hh = hs[0].T @ dgates[0]
    for t in range(1, steps):
        dw_hh += hs[t].T @ dgates[t]
    return dx, dw_ih.T, dw_hh.T, db, db.copy(), dh, dc


def _lstm_layer(cell: "LSTMCell", x: Tensor, state: Optional[State]) -> Tuple[Tensor, State]:
    """Run ``cell`` over ``x`` of shape ``(N, T, input)`` as one tape node.

    Returns the outputs ``(N, T, hidden)`` and the final ``(h, c)``; ``c``
    is a child node that hands its gradient to the layer's backward.
    """
    params = (cell.weight_ih, cell.weight_hh, cell.bias_ih, cell.bias_hh)
    h0 = c0 = None
    parents: Tuple[Tensor, ...] = (x,) + params
    if state is not None:
        h0, c0 = state
        parents += (h0, c0)
    out_data, c_last, cache = lstm_forward(
        x.data,
        *(p.data for p in params),
        None if h0 is None else h0.data,
        None if c0 is None else c0.data,
    )
    pending = {}  # the final cell state's gradient, set by c_backward

    def backward(grad, grads, x=x, params=params, h0=h0, c0=c0):
        dx, *dparams, dh0, dc0 = lstm_backward(grad, pending.pop("dc", None), cache)
        x._receive(dx, grads)
        for p, dp in zip(params, dparams):
            p._receive(dp, grads)
        if h0 is not None:
            h0._receive(dh0, grads)
            c0._receive(dc0, grads)

    out = Tensor._make(out_data, parents, backward)

    def c_backward(grad, grads, layer=out):
        pending["dc"] = grad if "dc" not in pending else pending["dc"] + grad
        # Adding zeros is exact; it makes sure the layer node runs.
        layer._receive(np.zeros_like(layer.data), grads)

    c_t = Tensor._make(c_last, (out,), c_backward)
    return out, (out[:, -1], c_t)


class LSTMCell(Module):
    """Single LSTM step.

    Parameters
    ----------
    input_size, hidden_size:
        Feature widths of the input and the hidden/cell state.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.input_size = int(input_size)
        self.hidden_size = int(hidden_size)
        bound = 1.0 / np.sqrt(hidden_size)
        self.weight_ih = Parameter(init.uniform((4 * hidden_size, input_size), -bound, bound, rng=rng))
        self.weight_hh = Parameter(init.uniform((4 * hidden_size, hidden_size), -bound, bound, rng=rng))
        self.bias_ih = Parameter(init.uniform((4 * hidden_size,), -bound, bound, rng=rng))
        self.bias_hh = Parameter(init.uniform((4 * hidden_size,), -bound, bound, rng=rng))

    def forward(self, x: Tensor, state: Optional[State] = None) -> State:
        """Run one step; returns the new ``(h, c)`` pair."""
        n, width = x.shape
        _, final = _lstm_layer(self, x.reshape(n, 1, width), state)
        return final


class LSTM(Module):
    """Multi-layer LSTM unrolled over the time dimension.

    Input is ``(N, T, input_size)``; the output is the top layer's hidden
    state at every step, shape ``(N, T, hidden_size)``.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.input_size = int(input_size)
        self.hidden_size = int(hidden_size)
        self.num_layers = int(num_layers)
        cells: List[LSTMCell] = []
        for layer in range(num_layers):
            in_size = input_size if layer == 0 else hidden_size
            cell = LSTMCell(in_size, hidden_size, rng=rng)
            self.add_module(f"cell{layer}", cell)
            cells.append(cell)
        self.cells = cells

    def forward(
        self,
        x: Tensor,
        state: Optional[List[State]] = None,
    ) -> Tuple[Tensor, List[State]]:
        """Run the full sequence.

        Returns
        -------
        (outputs, final_states):
            ``outputs`` has shape ``(N, T, hidden)``; ``final_states`` is the
            list of per-layer ``(h, c)`` pairs after the last step.
        """
        if state is None:
            state = [None] * self.num_layers  # type: ignore[list-item]
        final: List[State] = []
        for layer, cell in enumerate(self.cells):
            x, last = _lstm_layer(cell, x, state[layer])
            final.append(last)
        return x, final
