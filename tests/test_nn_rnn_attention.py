"""Unit tests for recurrent and attention layers."""

import numpy as np
import pytest

from repro.nn import (
    GRU,
    LSTM,
    CoAttention,
    GraphAttentionLayer,
    GRUCell,
    LSTMCell,
    ScaledDotProductAttention,
    Tensor,
    as_tensor,
    no_grad,
    pad_sequences,
    stack,
)


class TestCells:
    def test_lstm_cell_shapes(self):
        cell = LSTMCell(3, 5)
        state = cell.initial_state(2)
        hidden, memory = cell(Tensor(np.ones((2, 3))), state)
        assert hidden.shape == (2, 5)
        assert memory.shape == (2, 5)

    def test_gru_cell_shapes(self):
        cell = GRUCell(3, 5)
        hidden = cell(Tensor(np.ones((2, 3))), cell.initial_state(2))
        assert hidden.shape == (2, 5)

    def test_lstm_cell_hidden_bounded(self):
        cell = LSTMCell(2, 4)
        hidden, _ = cell(Tensor(np.full((1, 2), 100.0)), cell.initial_state(1))
        assert np.abs(hidden.data).max() <= 1.0

    def test_gru_cell_hidden_bounded(self):
        cell = GRUCell(2, 4)
        hidden = cell(Tensor(np.full((1, 2), 100.0)), cell.initial_state(1))
        assert np.abs(hidden.data).max() <= 1.0


class TestSequenceEncoders:
    @pytest.mark.parametrize("encoder_cls", [LSTM, GRU])
    def test_batched_shapes(self, encoder_cls):
        encoder = encoder_cls(3, 6)
        outputs, final = encoder(Tensor(np.random.default_rng(0).normal(size=(2, 7, 3))))
        assert outputs.shape == (2, 7, 6)
        hidden = final[0] if isinstance(final, tuple) else final
        assert hidden.shape == (2, 6)

    @pytest.mark.parametrize("encoder_cls", [LSTM, GRU])
    def test_unbatched_shapes(self, encoder_cls):
        encoder = encoder_cls(3, 6)
        outputs, final = encoder(Tensor(np.random.default_rng(0).normal(size=(7, 3))))
        assert outputs.shape == (7, 6)
        hidden = final[0] if isinstance(final, tuple) else final
        assert hidden.shape == (6,)

    @pytest.mark.parametrize("encoder_cls", [LSTM, GRU])
    def test_return_sequence_false(self, encoder_cls):
        encoder = encoder_cls(3, 6)
        outputs, final = encoder(Tensor(np.ones((5, 3))), return_sequence=False)
        assert outputs is None
        hidden = final[0] if isinstance(final, tuple) else final
        assert hidden.shape == (6,)

    @pytest.mark.parametrize("encoder_cls", [LSTM, GRU])
    def test_final_state_matches_last_output(self, encoder_cls):
        encoder = encoder_cls(2, 4)
        sequence = Tensor(np.random.default_rng(1).normal(size=(6, 2)))
        outputs, final = encoder(sequence)
        hidden = final[0] if isinstance(final, tuple) else final
        np.testing.assert_allclose(outputs.data[-1], hidden.data)

    @pytest.mark.parametrize("encoder_cls", [LSTM, GRU])
    def test_gradients_reach_all_parameters(self, encoder_cls):
        encoder = encoder_cls(2, 4)
        _, final = encoder(Tensor(np.ones((5, 2))), return_sequence=False)
        hidden = final[0] if isinstance(final, tuple) else final
        (hidden * hidden).sum().backward()
        assert all(p.grad is not None for p in encoder.parameters())

    def test_order_sensitivity(self):
        encoder = LSTM(1, 4, rng=np.random.default_rng(0))
        forward = np.arange(5.0).reshape(5, 1)
        _, (h1, _) = encoder(Tensor(forward), return_sequence=False)
        _, (h2, _) = encoder(Tensor(forward[::-1].copy()), return_sequence=False)
        assert not np.allclose(h1.data, h2.data)


def unroll(net, sequence, mask=None):
    """Cell-by-cell unroll of ``net.cell`` on the autograd tape.

    The oracle the fused sequence op is pinned against: composed-op cells,
    a ``new·m + old·(1 − m)`` blend on every step whose mask column is not
    all non-zero, and the same output layout as ``net.forward``.
    """
    sequence = as_tensor(sequence)
    squeeze = sequence.ndim == 2
    if squeeze:
        sequence = sequence.reshape(1, *sequence.shape)
    batch, steps = sequence.shape[:2]
    is_lstm = isinstance(net, LSTM)
    state = net.cell.initial_state(batch)
    outputs = []
    for t in range(steps):
        new = net.cell(sequence[:, t, :], state)
        if mask is not None and not mask[:, t].all():
            keep, drop = Tensor(mask[:, t:t + 1]), Tensor(1.0 - mask[:, t:t + 1])
            if is_lstm:
                new = tuple(n * keep + o * drop for n, o in zip(new, state))
            else:
                new = new * keep + state * drop
        state = new
        outputs.append(state[0] if is_lstm else state)
    outputs = stack(outputs, axis=1)
    states = state if is_lstm else (state,)
    if squeeze:
        outputs = outputs.reshape(steps, net.hidden_size)
        states = tuple(s.reshape(net.hidden_size) for s in states)
    return outputs, states


def _ragged(rng, lengths, features):
    padded, mask = pad_sequences([rng.normal(size=(t, features)) for t in lengths])
    return padded, mask


class TestFusedRecurrence:
    """The one-tape-op GRU/LSTM against the composed-op cell unroll."""

    CASES = ["prefix", "non_prefix", "unbatched", "unmasked"]

    @staticmethod
    def _case(name, rng):
        if name == "prefix":
            return _ragged(rng, (6, 1, 3, 9), 3)
        if name == "non_prefix":
            padded, _ = _ragged(rng, (7, 7, 7), 3)
            mask = (rng.random((3, 7)) < 0.6).astype(float)
            mask[1] *= rng.random(7)  # fractional values too
            mask[:, 2] = 0.5          # an all-non-zero column runs without a blend
            return padded, mask
        if name == "unbatched":
            return rng.normal(size=(5, 3)), None
        return rng.normal(size=(2, 4, 3)), None

    @pytest.mark.parametrize("cls", [GRU, LSTM])
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("return_sequence", [True, False])
    def test_matches_cell_unroll(self, cls, case, return_sequence):
        rng = np.random.default_rng(self.CASES.index(case) * 2 + return_sequence)
        data, mask = self._case(case, rng)
        fused_net = cls(3, 5, rng=np.random.default_rng(7))
        oracle_net = cls(3, 5, rng=np.random.default_rng(7))
        # The input requires grad (as Tedj's token embeddings do) and is
        # itself an op output, so its gradient flows on past the layer.
        fused_leaf = Tensor(data, requires_grad=True)
        oracle_leaf = Tensor(data, requires_grad=True)
        fused_out, fused_state = fused_net(fused_leaf * 1.5, return_sequence=return_sequence,
                                           mask=mask)
        oracle_out, oracle_states = unroll(oracle_net, oracle_leaf * 1.5, mask)
        fused_states = fused_state if cls is LSTM else (fused_state,)

        for fused, oracle in zip(fused_states, oracle_states):
            assert fused.shape == oracle.shape
            assert np.array_equal(fused.data, oracle.data)
        if return_sequence:
            assert np.array_equal(fused_out.data, oracle_out.data)
        else:
            assert fused_out is None

        weights = [rng.normal(size=s.shape) for s in oracle_states]
        out_weight = rng.normal(size=oracle_out.shape)

        def loss(out, states):
            total = sum((s * Tensor(w)).sum() for s, w in zip(states, weights))
            if return_sequence:
                total = total + (out * Tensor(out_weight)).sum()
            return total

        loss(fused_out, fused_states).backward()
        loss(oracle_out, oracle_states).backward()
        for fused, oracle in zip(fused_net.parameters(), oracle_net.parameters()):
            np.testing.assert_allclose(fused.grad, oracle.grad, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fused_leaf.grad, oracle_leaf.grad, rtol=0, atol=1e-12)
        if case == "prefix":
            for row, valid in enumerate(mask.sum(axis=1).astype(int)):
                assert np.all(fused_leaf.grad[row, valid:] == 0.0)
                assert np.any(fused_leaf.grad[row, :valid] != 0.0)

    @pytest.mark.parametrize("cls", [GRU, LSTM])
    def test_central_finite_differences(self, cls):
        rng = np.random.default_rng(11)
        padded, mask = _ragged(rng, (3, 2), 2)
        net = cls(2, 3, rng=np.random.default_rng(12))
        x = Tensor(padded, requires_grad=True)

        def loss():
            out, state = net(x, mask=mask)
            final = state[1] if cls is LSTM else state
            return (out * out).sum() + final.sum()

        loss().backward()
        eps = 1e-6
        for tensor in (net.cell.weight_hh, net.cell.weight_ih, net.cell.bias, x):
            analytic = tensor.grad.copy()
            numeric = np.zeros_like(tensor.data)
            for index in np.ndindex(tensor.shape):
                saved = tensor.data[index]
                tensor.data[index] = saved + eps
                plus = loss().data
                tensor.data[index] = saved - eps
                minus = loss().data
                tensor.data[index] = saved
                numeric[index] = (plus - minus) / (2 * eps)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("cls", [GRU, LSTM])
    def test_one_tape_op_per_sequence(self, cls):
        def reachable(steps):
            net = cls(3, 4, rng=np.random.default_rng(0))
            padded, mask = _ragged(np.random.default_rng(1), (steps, steps - 2), 3)
            _, state = net(Tensor(padded), return_sequence=False, mask=mask)
            final = state[0] if cls is LSTM else state
            seen, stack_ = set(), [final.sum()]
            while stack_:
                node = stack_.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    stack_.extend(node._prev)
            return len(seen)

        assert reachable(4) == reachable(30)

    @pytest.mark.parametrize("cls", [GRU, LSTM])
    def test_no_bptt_cache_without_grad(self, cls):
        net = cls(3, 4, rng=np.random.default_rng(0))
        tracked = []
        sweep = net._sweep

        def spy(inputs, blends, track):
            tracked.append(track)
            return sweep(inputs, blends, track)

        net._sweep = spy
        sequence = Tensor(np.ones((2, 3, 3)))
        with no_grad():
            outputs, state = net(sequence)
        final = state[0] if cls is LSTM else state
        assert final._prev == () and outputs._prev == ()
        net(sequence)
        assert tracked == [False, True]


class TestAttention:
    def test_dot_product_attention_weights_sum_to_one(self):
        attention = ScaledDotProductAttention()
        rng = np.random.default_rng(0)
        out, weights = attention(Tensor(rng.normal(size=(3, 4))),
                                 Tensor(rng.normal(size=(5, 4))),
                                 Tensor(rng.normal(size=(5, 6))))
        assert out.shape == (3, 6)
        np.testing.assert_allclose(weights.data.sum(axis=-1), np.ones(3))

    def test_dot_product_attention_mask(self):
        attention = ScaledDotProductAttention()
        query = Tensor(np.ones((1, 2)))
        key = Tensor(np.ones((3, 2)))
        value = Tensor(np.eye(3))
        mask = np.array([[True, False, False]])
        _, weights = attention(query, key, value, mask=mask)
        np.testing.assert_allclose(weights.data, [[1.0, 0.0, 0.0]], atol=1e-6)

    def test_coattention_shapes_and_gradients(self):
        module = CoAttention(6)
        a = Tensor(np.random.default_rng(0).normal(size=(4, 6)), requires_grad=True)
        b = Tensor(np.random.default_rng(1).normal(size=(5, 6)), requires_grad=True)
        fused_a, fused_b = module(a, b)
        assert fused_a.shape == (4, 6)
        assert fused_b.shape == (5, 6)
        (fused_a.sum() + fused_b.sum()).backward()
        assert a.grad is not None and b.grad is not None

    def test_graph_attention_respects_adjacency(self):
        layer = GraphAttentionLayer(3, 4, rng=np.random.default_rng(0))
        features = np.random.default_rng(1).normal(size=(4, 3))
        isolated = np.eye(4, dtype=bool)
        out_isolated = layer(Tensor(features), isolated)
        connected = isolated.copy()
        connected[0, 1] = connected[1, 0] = True
        out_connected = layer(Tensor(features), connected)
        # Node 2 has the same neighbourhood in both graphs, node 0 does not.
        np.testing.assert_allclose(out_isolated.data[2], out_connected.data[2])
        assert not np.allclose(out_isolated.data[0], out_connected.data[0])

    def test_graph_attention_gradients(self):
        layer = GraphAttentionLayer(3, 4)
        features = Tensor(np.ones((3, 3)), requires_grad=True)
        layer(features, np.ones((3, 3), dtype=bool)).sum().backward()
        assert features.grad is not None
        assert all(p.grad is not None for p in layer.parameters())
