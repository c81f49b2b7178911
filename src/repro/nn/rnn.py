"""Recurrent layers: LSTM and GRU cells and sequence encoders.

The trajectory encoders of the paper (Neutraj, Traj2SimVec, ST2Vec, Tedj and the
dynamic fusion factor encoder) are all built on recurrent networks.  A sequence
layer runs a whole (optionally masked) sequence as **one tape op**: the forward
repeats its cell's per-step arithmetic on plain NumPy arrays, and a hand-written
backward-through-time (BPTT) sweep accumulates the ``weight_ih``, ``weight_hh``,
``bias`` and input gradients in one reverse pass.

The cells keep their composed-op ``forward``.  Unrolled cell by cell on the
autodiff tape they are the oracle the fused op is pinned against: the fused
forward is bitwise equal to the unroll and its gradients agree to 1e-12
(``tests/test_nn_rnn_attention.py``).
"""

from __future__ import annotations

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor, as_tensor, is_grad_enabled

__all__ = ["LSTMCell", "GRUCell", "LSTM", "GRU"]


class LSTMCell(Module):
    """Single-step LSTM cell with combined gate projection."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        gate_size = 4 * hidden_size
        self.weight_ih = Parameter(init.xavier_uniform((gate_size, input_size), rng))
        self.weight_hh = Parameter(init.orthogonal((gate_size, hidden_size), rng)
                                   if hidden_size > 1 else
                                   init.xavier_uniform((gate_size, hidden_size), rng))
        self.bias = Parameter(init.zeros((gate_size,)))

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
        hidden, cell = state
        gates = x @ self.weight_ih.T + hidden @ self.weight_hh.T + self.bias
        h = self.hidden_size
        input_gate = gates[..., 0:h].sigmoid()
        forget_gate = gates[..., h:2 * h].sigmoid()
        candidate = gates[..., 2 * h:3 * h].tanh()
        output_gate = gates[..., 3 * h:4 * h].sigmoid()
        new_cell = forget_gate * cell + input_gate * candidate
        new_hidden = output_gate * new_cell.tanh()
        return new_hidden, new_cell

    def initial_state(self, batch_size: int) -> tuple[Tensor, Tensor]:
        zeros = np.zeros((batch_size, self.hidden_size))
        return Tensor(zeros), Tensor(zeros.copy())


class GRUCell(Module):
    """Single-step GRU cell."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        gate_size = 3 * hidden_size
        self.weight_ih = Parameter(init.xavier_uniform((gate_size, input_size), rng))
        self.weight_hh = Parameter(init.orthogonal((gate_size, hidden_size), rng)
                                   if hidden_size > 1 else
                                   init.xavier_uniform((gate_size, hidden_size), rng))
        self.bias = Parameter(init.zeros((gate_size,)))

    def forward(self, x: Tensor, hidden: Tensor) -> Tensor:
        h = self.hidden_size
        projected_input = x @ self.weight_ih.T + self.bias
        projected_hidden = hidden @ self.weight_hh.T
        reset = (projected_input[..., 0:h] + projected_hidden[..., 0:h]).sigmoid()
        update = (projected_input[..., h:2 * h] + projected_hidden[..., h:2 * h]).sigmoid()
        candidate = (projected_input[..., 2 * h:3 * h]
                     + reset * projected_hidden[..., 2 * h:3 * h]).tanh()
        return update * hidden + (1.0 - update) * candidate

    def initial_state(self, batch_size: int) -> Tensor:
        return Tensor(np.zeros((batch_size, self.hidden_size)))


def _sigmoid(values: np.ndarray) -> np.ndarray:
    """The logistic function with :meth:`Tensor.sigmoid`'s exact op order."""
    return 1.0 / (1.0 + np.exp(-values))


class _Recurrent(Module):
    """Shared driver: one tape op over a ``(batch, steps, features)`` sequence.

    :meth:`_fused` runs the subclass's ``_sweep`` (forward over every step) and
    returns one *packed* output node.  Its rows along the time axis are the
    hidden states ``h_0 … h_T`` (``h_0`` is the zero initial state), followed
    by any final extra state (the LSTM's cell).  The public outputs are slices
    of that node, so every downstream gradient reaches the single ``_bptt``
    backward.  Nothing is cached for the backward when no operand requires
    grad or gradients are disabled.

    A ``(batch, steps)`` mask makes the sweep padding-aware.  On a step whose
    mask column is not all non-zero the new state is blended as
    ``new·m + old·(1 − m)``; with a {0, 1} mask valid rows take the freshly
    computed state unchanged and padded rows keep the previous one, so the
    final state of every sample equals its per-sample recurrence and padded
    inputs receive exact-zero gradients.  Steps whose column is all non-zero
    skip the blend, exactly as the cell-by-cell unroll does.
    """

    @staticmethod
    def _check_mask(mask, batch: int, steps: int) -> np.ndarray | None:
        """Validate a ``(batch, steps)`` validity mask (1.0 valid / 0.0 padding)."""
        if mask is None:
            return None
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != (batch, steps):
            raise ValueError(f"mask shape {mask.shape} does not match the "
                             f"({batch}, {steps}) padded sequence")
        return mask

    @staticmethod
    def _blends(mask: np.ndarray | None, steps: int) -> list:
        """Per-step ``(keep, drop)`` column pairs, ``None`` where no blend runs."""
        if mask is None:
            return [None] * steps
        return [None if mask[:, t].all() else (mask[:, t:t + 1], 1.0 - mask[:, t:t + 1])
                for t in range(steps)]

    def _fused(self, sequence, mask) -> tuple[Tensor, tuple, int]:
        """Run the sweep as one tape op; return ``(packed, lead index, steps)``."""
        sequence = as_tensor(sequence)
        squeeze = sequence.ndim == 2
        inputs = sequence.data.reshape(1, *sequence.shape) if squeeze else sequence.data
        batch, steps = inputs.shape[:2]
        blends = self._blends(self._check_mask(mask, batch, steps), steps)
        cell = self.cell
        weights = (cell.weight_ih, cell.weight_hh, cell.bias)
        requires = sequence.requires_grad or any(w.requires_grad for w in weights)
        track = requires and is_grad_enabled()
        states, cache = self._sweep(inputs, blends, track)
        # The backward differentiates at the weights this forward used.
        w_ih, w_hh = cell.weight_ih.data, cell.weight_hh.data

        def backward(grad):
            d_input, d_hidden = self._bptt(grad, states, cache, blends, w_hh)
            gates = d_input.shape[-1]
            flat_input = d_input.reshape(-1, gates)
            if cell.weight_ih.requires_grad:
                cell.weight_ih._accumulate(
                    flat_input.T @ inputs.reshape(-1, inputs.shape[-1]))
            if cell.bias.requires_grad:
                cell.bias._accumulate(flat_input.sum(axis=0))
            if cell.weight_hh.requires_grad:
                previous = states[:, :steps].reshape(-1, self.hidden_size)
                cell.weight_hh._accumulate(d_hidden.reshape(-1, gates).T @ previous)
            if sequence.requires_grad:
                sequence._accumulate((d_input @ w_ih).reshape(sequence.shape))

        packed = Tensor._make(states, (sequence, *weights), backward, requires)
        lead = (0,) if squeeze else (slice(None),)
        return packed, lead, steps


class LSTM(_Recurrent):
    """LSTM sequence encoder returning all hidden states and the final state.

    Set ``return_sequence=False`` when only the final state is needed; the
    per-step outputs are then returned as ``None``.

    A ``(batch, steps)`` validity ``mask`` (from :func:`repro.nn.pad_sequences`)
    makes the layer padding-aware: padded steps carry the previous state through,
    so every sample's final state equals its unpadded per-sample recurrence.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size

    def forward(self, sequence: Tensor, return_sequence: bool = True,
                mask: np.ndarray | None = None) -> tuple[Tensor | None, tuple[Tensor, Tensor]]:
        packed, lead, steps = self._fused(sequence, mask)
        outputs = packed[lead + (slice(1, steps + 1),)] if return_sequence else None
        return outputs, (packed[lead + (steps,)], packed[lead + (steps + 1,)])

    def _sweep(self, inputs: np.ndarray, blends: list, track: bool):
        """Forward over every step; ``LSTMCell.forward``'s arithmetic on arrays."""
        cell = self.cell
        w_ih, w_hh, bias = cell.weight_ih.data, cell.weight_hh.data, cell.bias.data
        h = self.hidden_size
        batch, steps = inputs.shape[:2]
        states = np.empty((batch, steps + 2, h))
        hidden = np.zeros((batch, h))
        memory = np.zeros((batch, h))
        states[:, 0] = hidden
        # Per step: input, forget, candidate and output gates, tanh(new cell)
        # and the cell the step started from.
        cache = np.empty((6, steps, batch, h)) if track else None
        for t in range(steps):
            gates = inputs[:, t] @ w_ih.T + hidden @ w_hh.T + bias
            input_gate = _sigmoid(gates[..., 0:h])
            forget_gate = _sigmoid(gates[..., h:2 * h])
            candidate = np.tanh(gates[..., 2 * h:3 * h])
            output_gate = _sigmoid(gates[..., 3 * h:4 * h])
            new_memory = forget_gate * memory + input_gate * candidate
            squashed = np.tanh(new_memory)
            new_hidden = output_gate * squashed
            if track:
                cache[0, t] = input_gate
                cache[1, t] = forget_gate
                cache[2, t] = candidate
                cache[3, t] = output_gate
                cache[4, t] = squashed
                cache[5, t] = memory
            if blends[t] is not None:
                keep, drop = blends[t]
                new_hidden = new_hidden * keep + hidden * drop
                new_memory = new_memory * keep + memory * drop
            hidden, memory = new_hidden, new_memory
            states[:, t + 1] = hidden
        states[:, steps + 1] = memory
        return states, cache

    def _bptt(self, grad: np.ndarray, states: np.ndarray, cache: np.ndarray,
              blends: list, w_hh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Reverse sweep; returns the gate gradients (input and hidden side)."""
        h = self.hidden_size
        steps = cache.shape[1]
        d_gates = np.empty((grad.shape[0], steps, 4 * h))
        d_hidden = grad[:, steps]
        d_memory = grad[:, steps + 1]
        for t in range(steps - 1, -1, -1):
            input_gate, forget_gate, candidate, output_gate, squashed, memory = cache[:, t]
            carry_hidden = carry_memory = 0.0
            if blends[t] is not None:
                keep, drop = blends[t]
                carry_hidden, carry_memory = d_hidden * drop, d_memory * drop
                d_hidden, d_memory = d_hidden * keep, d_memory * keep
            d_new_memory = d_memory + d_hidden * output_gate * (1.0 - squashed * squashed)
            d_gates[:, t, 0:h] = d_new_memory * candidate * input_gate * (1.0 - input_gate)
            d_gates[:, t, h:2 * h] = d_new_memory * memory * forget_gate * (1.0 - forget_gate)
            d_gates[:, t, 2 * h:3 * h] = d_new_memory * input_gate * (1.0 - candidate * candidate)
            d_gates[:, t, 3 * h:] = d_hidden * squashed * output_gate * (1.0 - output_gate)
            d_memory = d_new_memory * forget_gate + carry_memory
            d_hidden = d_gates[:, t] @ w_hh + grad[:, t] + carry_hidden
        # The gate pre-activation sums the input and hidden projections, so
        # both sides see the same gradient.
        return d_gates, d_gates


class GRU(_Recurrent):
    """GRU sequence encoder returning all hidden states and the final state.

    ``return_sequence=False`` returns ``None`` for the per-step outputs and
    ``mask`` makes padded batches behave like per-sample recurrences (see LSTM).
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.cell = GRUCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size

    def forward(self, sequence: Tensor, return_sequence: bool = True,
                mask: np.ndarray | None = None) -> tuple[Tensor | None, Tensor]:
        packed, lead, steps = self._fused(sequence, mask)
        outputs = packed[lead + (slice(1, steps + 1),)] if return_sequence else None
        return outputs, packed[lead + (steps,)]

    def _sweep(self, inputs: np.ndarray, blends: list, track: bool):
        """Forward over every step; ``GRUCell.forward``'s arithmetic on arrays."""
        cell = self.cell
        w_ih, w_hh, bias = cell.weight_ih.data, cell.weight_hh.data, cell.bias.data
        h = self.hidden_size
        batch, steps = inputs.shape[:2]
        states = np.empty((batch, steps + 1, h))
        hidden = np.zeros((batch, h))
        states[:, 0] = hidden
        # Per step: reset gate, update gate, candidate and the hidden-side
        # candidate projection the reset gate scales.
        cache = np.empty((4, steps, batch, h)) if track else None
        for t in range(steps):
            projected_input = inputs[:, t] @ w_ih.T + bias
            projected_hidden = hidden @ w_hh.T
            reset = _sigmoid(projected_input[..., 0:h] + projected_hidden[..., 0:h])
            update = _sigmoid(projected_input[..., h:2 * h] + projected_hidden[..., h:2 * h])
            candidate = np.tanh(projected_input[..., 2 * h:3 * h]
                                + reset * projected_hidden[..., 2 * h:3 * h])
            new_hidden = update * hidden + (1.0 - update) * candidate
            if track:
                cache[0, t] = reset
                cache[1, t] = update
                cache[2, t] = candidate
                cache[3, t] = projected_hidden[..., 2 * h:3 * h]
            if blends[t] is not None:
                keep, drop = blends[t]
                new_hidden = new_hidden * keep + hidden * drop
            hidden = new_hidden
            states[:, t + 1] = hidden
        return states, cache

    def _bptt(self, grad: np.ndarray, states: np.ndarray, cache: np.ndarray,
              blends: list, w_hh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Reverse sweep; returns the input- and hidden-projection gradients."""
        h = self.hidden_size
        steps = cache.shape[1]
        d_input = np.empty((grad.shape[0], steps, 3 * h))
        d_hidden_proj = np.empty_like(d_input)
        d_hidden = grad[:, steps]
        for t in range(steps - 1, -1, -1):
            reset, update, candidate, candidate_proj = cache[:, t]
            carry = 0.0
            if blends[t] is not None:
                keep, drop = blends[t]
                carry = d_hidden * drop
                d_hidden = d_hidden * keep
            d_candidate = d_hidden * (1.0 - update) * (1.0 - candidate * candidate)
            d_update = d_hidden * (states[:, t] - candidate) * update * (1.0 - update)
            d_reset = d_candidate * candidate_proj * reset * (1.0 - reset)
            d_input[:, t, 0:h] = d_reset
            d_input[:, t, h:2 * h] = d_update
            d_input[:, t, 2 * h:] = d_candidate
            d_hidden_proj[:, t, 0:2 * h] = d_input[:, t, 0:2 * h]
            d_hidden_proj[:, t, 2 * h:] = d_candidate * reset
            d_hidden = (d_hidden * update + d_hidden_proj[:, t] @ w_hh
                        + grad[:, t] + carry)
        return d_input, d_hidden_proj
