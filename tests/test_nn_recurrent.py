"""Tests for LSTMCell / LSTM."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import nn
from repro.data.dataloader import DataLoader
from repro.tensor import Tensor
from repro.training.tasks import LanguageModelingTask
from tests.test_tensor_autograd import check_gradient

RNG = np.random.default_rng(9)


def unfused_cell(cell, x, state=None):
    """One LSTM step as ~20 generic tape ops: the fused kernel's oracle."""
    n, hs = x.shape[0], cell.hidden_size
    if state is None:
        h = Tensor(np.zeros((n, hs), dtype=np.float32))
        c = Tensor(np.zeros((n, hs), dtype=np.float32))
    else:
        h, c = state
    gates = (
        x.matmul(cell.weight_ih.T)
        + h.matmul(cell.weight_hh.T)
        + cell.bias_ih
        + cell.bias_hh
    )
    i_gate = gates[:, 0 * hs : 1 * hs].sigmoid()
    f_gate = gates[:, 1 * hs : 2 * hs].sigmoid()
    g_gate = gates[:, 2 * hs : 3 * hs].tanh()
    o_gate = gates[:, 3 * hs : 4 * hs].sigmoid()
    c_next = f_gate * c + i_gate * g_gate
    return o_gate * c_next.tanh(), c_next


def unfused_lstm(lstm, x, state=None):
    """``lstm`` unrolled step by step, layer by layer, on the generic tape."""
    n, steps, _ = x.shape
    state = [None] * lstm.num_layers if state is None else list(state)
    outputs = []
    for step in range(steps):
        inp = x[:, step, :]
        for layer, cell in enumerate(lstm.cells):
            state[layer] = unfused_cell(cell, inp, state[layer])
            inp = state[layer][0]
        outputs.append(inp.reshape(n, 1, lstm.hidden_size))
    return Tensor.concatenate(outputs, axis=1), state


def _run(forward, lstm, x_np, state_np, weights):
    """Loss over the outputs and every final (h, c); returns what it touched."""
    lstm.zero_grad()
    x = Tensor(x_np, requires_grad=True)
    state = None
    if state_np is not None:
        state = [(Tensor(h, requires_grad=True), Tensor(c, requires_grad=True)) for h, c in state_np]
    out, final = forward(lstm, x, state)
    w_out, w_final = weights
    loss = (out * Tensor(w_out)).sum()
    for (h, c), (w_h, w_c) in zip(final, w_final):
        loss = loss + (h * Tensor(w_h)).sum() + (c * Tensor(w_c)).sum()
    loss.backward()
    result = {"loss": loss.data, "out": out.data, "dx": x.grad}
    for layer, (h, c) in enumerate(final):
        result[f"h{layer}"], result[f"c{layer}"] = h.data, c.data
    for layer, (h, c) in enumerate(state or []):
        result[f"dh0_{layer}"], result[f"dc0_{layer}"] = h.grad, c.grad
    for name, p in lstm.named_parameters():
        result[name] = p.grad.copy()
    return result


class TestLSTMCell:
    def test_output_shapes(self):
        cell = nn.LSTMCell(6, 10, rng=np.random.default_rng(0))
        x = Tensor(RNG.standard_normal((4, 6)).astype(np.float32))
        h, c = cell(x)
        assert h.shape == (4, 10)
        assert c.shape == (4, 10)

    def test_accepts_explicit_state(self):
        cell = nn.LSTMCell(6, 10, rng=np.random.default_rng(0))
        x = Tensor(RNG.standard_normal((4, 6)).astype(np.float32))
        h0 = Tensor(np.ones((4, 10), dtype=np.float32))
        c0 = Tensor(np.ones((4, 10), dtype=np.float32))
        h1, c1 = cell(x, (h0, c0))
        h_default, _ = cell(x)
        assert not np.allclose(h1.numpy(), h_default.numpy())

    def test_parameter_shapes(self):
        cell = nn.LSTMCell(6, 10)
        assert cell.weight_ih.shape == (40, 6)
        assert cell.weight_hh.shape == (40, 10)
        assert cell.bias_ih.shape == (40,)

    def test_hidden_state_bounded_by_tanh(self):
        cell = nn.LSTMCell(6, 10, rng=np.random.default_rng(0))
        x = Tensor((RNG.standard_normal((4, 6)) * 10).astype(np.float32))
        h, _ = cell(x)
        assert np.abs(h.numpy()).max() <= 1.0 + 1e-6

    def test_matches_manual_lstm_equations(self):
        """One step of the cell equals the textbook gate equations."""
        cell = nn.LSTMCell(3, 2, rng=np.random.default_rng(0))
        x_np = RNG.standard_normal((1, 3)).astype(np.float32)
        h_np = RNG.standard_normal((1, 2)).astype(np.float32)
        c_np = RNG.standard_normal((1, 2)).astype(np.float32)
        h_out, c_out = cell(Tensor(x_np), (Tensor(h_np), Tensor(c_np)))

        gates = x_np @ cell.weight_ih.numpy().T + h_np @ cell.weight_hh.numpy().T
        gates = gates + cell.bias_ih.numpy() + cell.bias_hh.numpy()
        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        i, f, g, o = gates[:, :2], gates[:, 2:4], gates[:, 4:6], gates[:, 6:8]
        c_expected = sig(f) * c_np + sig(i) * np.tanh(g)
        h_expected = sig(o) * np.tanh(c_expected)
        np.testing.assert_allclose(c_out.numpy(), c_expected, atol=1e-5)
        np.testing.assert_allclose(h_out.numpy(), h_expected, atol=1e-5)

    def test_gradient_through_one_step(self):
        w_ih = RNG.standard_normal((8, 3)) * 0.3
        w_hh = RNG.standard_normal((8, 2)) * 0.3
        x = RNG.standard_normal((2, 3))

        def build(tensors):
            cell = nn.LSTMCell(3, 2, rng=np.random.default_rng(0))
            cell.weight_ih.data = tensors[0].data
            cell.weight_hh.data = tensors[1].data
            # Re-wire parameters so the graph is built from the test tensors.
            cell._parameters["weight_ih"] = tensors[0]
            cell._parameters["weight_hh"] = tensors[1]
            object.__setattr__(cell, "weight_ih", tensors[0])
            object.__setattr__(cell, "weight_hh", tensors[1])
            h, c = cell(Tensor(x, dtype=np.float64))
            return (h * h).sum() + (c * c).sum()

        check_gradient(build, [w_ih, w_hh], tolerance=1e-5)


class TestLSTM:
    def test_output_shapes(self):
        lstm = nn.LSTM(5, 7, num_layers=2, rng=np.random.default_rng(0))
        x = Tensor(RNG.standard_normal((3, 6, 5)).astype(np.float32))
        out, state = lstm(x)
        assert out.shape == (3, 6, 7)
        assert len(state) == 2
        assert state[0][0].shape == (3, 7)

    def test_parameter_count(self):
        lstm = nn.LSTM(5, 7, num_layers=2)
        # layer0: 4*7*(5+7) + 2*4*7 ; layer1: 4*7*(7+7) + 2*4*7
        expected = (28 * 5 + 28 * 7 + 28 + 28) + (28 * 7 + 28 * 7 + 28 + 28)
        assert sum(p.size for p in lstm.parameters()) == expected

    def test_state_carries_over(self):
        lstm = nn.LSTM(4, 6, rng=np.random.default_rng(0))
        x = Tensor(RNG.standard_normal((2, 3, 4)).astype(np.float32))
        out1, state = lstm(x)
        out2, _ = lstm(x, state)
        assert not np.allclose(out1.numpy(), out2.numpy())

    def test_gradients_reach_all_parameters(self):
        lstm = nn.LSTM(4, 6, num_layers=2, rng=np.random.default_rng(0))
        x = Tensor(RNG.standard_normal((2, 5, 4)).astype(np.float32))
        out, _ = lstm(x)
        (out * out).sum().backward()
        for name, p in lstm.named_parameters():
            assert p.grad is not None, name
            assert np.abs(p.grad).sum() > 0, name

    def test_longer_sequence_changes_output(self):
        lstm = nn.LSTM(4, 6, rng=np.random.default_rng(0))
        x = RNG.standard_normal((1, 4, 4)).astype(np.float32)
        out_full, _ = lstm(Tensor(x))
        out_prefix, _ = lstm(Tensor(x[:, :2]))
        np.testing.assert_allclose(
            out_full.numpy()[:, :2], out_prefix.numpy(), atol=1e-5
        )


class TestFusedKernel:
    """The fused kernel against the generic tape's step-by-step unrolling."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 6),
        steps=st.integers(1, 6),
        e=st.integers(1, 8),
        h=st.integers(1, 8),
        layers=st.integers(1, 3),
        with_state=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @example(n=16, steps=16, e=32, h=64, layers=1, with_state=False, seed=0)  # repro scale
    @example(n=8, steps=8, e=16, h=24, layers=1, with_state=False, seed=0)  # smoke scale
    @example(n=1, steps=1, e=3, h=2, layers=1, with_state=True, seed=1)
    @example(n=1, steps=5, e=4, h=3, layers=1, with_state=False, seed=2)
    @example(n=4, steps=1, e=4, h=3, layers=2, with_state=True, seed=3)
    def test_matches_the_unfused_tape(self, n, steps, e, h, layers, with_state, seed):
        rng = np.random.default_rng(seed)
        lstm = nn.LSTM(e, h, num_layers=layers, rng=rng)
        x = rng.standard_normal((n, steps, e)).astype(np.float32)
        state = None
        if with_state:
            state = [
                tuple(rng.standard_normal((n, h)).astype(np.float32) for _ in range(2))
                for _ in range(layers)
            ]
        weights = (
            rng.standard_normal((n, steps, h)).astype(np.float32),
            [tuple(rng.standard_normal((n, h)).astype(np.float32) for _ in range(2)) for _ in range(layers)],
        )
        want = _run(unfused_lstm, lstm, x, state, weights)
        got = _run(lambda m, xs, st0: m(xs, st0), lstm, x, state, weights)
        assert got.keys() == want.keys()
        for key, expected in want.items():
            if layers == 1:
                assert np.array_equal(got[key], expected), key
            else:
                # Stacked layers: the tape interleaves the lower layers'
                # weight_hh sums differently (float32 rounding only).
                scale = float(np.abs(expected).max())
                np.testing.assert_allclose(got[key], expected, rtol=1e-6, atol=1e-6 * scale, err_msg=key)

    def test_cell_matches_the_unfused_step(self):
        cell = nn.LSTMCell(5, 4, rng=np.random.default_rng(0))
        x_np = RNG.standard_normal((3, 5)).astype(np.float32)
        h_np, c_np = (RNG.standard_normal((3, 4)).astype(np.float32) for _ in range(2))
        results = []
        for step in (unfused_cell, lambda m, x, s: m(x, s)):
            cell.zero_grad()
            x = Tensor(x_np, requires_grad=True)
            h0, c0 = Tensor(h_np, requires_grad=True), Tensor(c_np, requires_grad=True)
            h, c = step(cell, x, (h0, c0))
            (h * h).sum().backward()
            (c * 3.0).sum().backward()
            results.append([h.data, c.data, x.grad, h0.grad, c0.grad] + [p.grad for p in cell.parameters()])
        for got, want in zip(results[1], results[0]):
            assert np.array_equal(got, want)


def _smoke_lm(seq_len):
    task = LanguageModelingTask(
        vocab_size=60, train_tokens=2048, test_tokens=512, seq_len=seq_len,
        embed_dim=12, hidden_dim=16, seed=0,
    )
    return task, task.build_model(), next(iter(DataLoader(task.train_dataset(), batch_size=8)))


def _tensors_created(monkeypatch, seq_len):
    task, model, batch = _smoke_lm(seq_len)
    created = []
    original = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        created.append(1)
        original(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Tensor, "__init__", counting_init)
        task.compute_loss(model, batch).backward()
    return len(created)


def test_tape_size_does_not_grow_with_the_sequence(monkeypatch):
    """One smoke-LM compute_loss + backward: embedding, one LSTM layer node
    with its final (h, c), decoder and cross-entropy -- whatever T is."""
    at_8, at_16 = _tensors_created(monkeypatch, 8), _tensors_created(monkeypatch, 16)
    assert at_8 == at_16 <= 25
