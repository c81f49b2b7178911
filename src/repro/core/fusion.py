"""Dynamic Fusion Distance (Section V-B).

Pure Lorentz distance is not always the right choice: many trajectory triplets do
respect the triangle inequality, and for those the Euclidean distance is a better
fit.  The paper therefore blends the two with a *per-pair* coefficient that is still
computable in linear time: a lightweight sequence encoder emits, for every
trajectory, a **Lorentz factor vector** ``V_Lo`` and a **Euclidean factor vector**
``V_Eu``; for a pair ``(a, b)`` the Lorentz proportion is

    α_Lo = (V_Lo_a · V_Lo_b) / (V_Lo_a · V_Lo_b + V_Eu_a · V_Eu_b)

and the fused distance is ``d_Fu = α_Lo · d_Lo + (1 − α_Lo) · d_Eu``.

Factor vectors are made strictly positive with a softplus so the proportion is always
well defined and lies in ``(0, 1)``; the paper leaves this detail open and any
positivity-preserving squashing works.
"""

from __future__ import annotations

import numpy as np

from ..nn import LSTM, Linear, Module, Tensor, as_tensor, masked_mean, no_grad, pad_sequences
from .config import LHPluginConfig

__all__ = ["FactorEncoder", "DynamicFusion", "fuse_distances", "lorentz_proportion"]


class FactorEncoder(Module):
    """Sequence-to-vector encoder producing the Lorentz / Euclidean factor vectors.

    The paper selects an LSTM because its cost is linear in trajectory length; a
    mean-pooled linear encoder is provided as a cheaper ablation.  The output vector
    of size ``2 * factor_dim`` is split into ``V_Lo`` (first half) and ``V_Eu``
    (second half), both passed through softplus to stay positive.
    """

    def __init__(self, config: LHPluginConfig):
        super().__init__()
        rng = np.random.default_rng(config.seed)
        self.config = config
        output_dim = 2 * config.factor_dim
        if config.fusion_encoder == "lstm":
            self.sequence_encoder = LSTM(config.point_features, config.fusion_hidden, rng=rng)
            self.head = Linear(config.fusion_hidden, output_dim, rng=rng)
        else:
            self.sequence_encoder = None
            self.head = Linear(config.point_features, output_dim, rng=rng)

    def forward(self, padded, mask: np.ndarray) -> tuple[Tensor, Tensor]:
        """Factor vectors for a padded ``(B, T, point_features)`` batch.

        Returns ``(V_Lo, V_Eu)`` as ``(B, factor_dim)`` tensors; the mask keeps
        padded steps out of the recurrence (or the mean pooling), so every row
        equals the one-item batch of its trajectory.
        """
        padded = as_tensor(padded)
        if padded.ndim != 3:
            raise ValueError("FactorEncoder expects a (B, T, point_features) batch")
        if self.sequence_encoder is not None:
            _, (hidden, _) = self.sequence_encoder(padded, return_sequence=False, mask=mask)
            summary = hidden
        else:
            summary = masked_mean(padded, mask)
        factors = self.head(summary).softplus() + 1e-6
        half = self.config.factor_dim
        return factors[:, :half], factors[:, half:]


def lorentz_proportion(v_lo_a: Tensor, v_eu_a: Tensor,
                       v_lo_b: Tensor, v_eu_b: Tensor) -> Tensor:
    """The Lorentz proportion ``α_Lo`` (differentiable).

    Takes aligned ``(B, factor_dim)`` factor blocks and returns a ``(B,)``
    tensor; the inner products run along the last axis.
    """
    lorentz_term = (as_tensor(v_lo_a) * as_tensor(v_lo_b)).sum(axis=-1)
    euclid_term = (as_tensor(v_eu_a) * as_tensor(v_eu_b)).sum(axis=-1)
    return lorentz_term / (lorentz_term + euclid_term)


def fuse_distances(lorentz: Tensor, euclidean: Tensor, alpha: Tensor) -> Tensor:
    """Fused distance ``α·d_Lo + (1 − α)·d_Eu`` (differentiable)."""
    alpha = as_tensor(alpha)
    return alpha * as_tensor(lorentz) + (1.0 - alpha) * as_tensor(euclidean)


class DynamicFusion(Module):
    """Wrapper owning the factor encoder plus fast NumPy batch paths for retrieval."""

    def __init__(self, config: LHPluginConfig):
        super().__init__()
        self.config = config
        self.encoder = FactorEncoder(config)

    # ------------------------------------------------------------ training path
    def factors_batch(self, point_sequences) -> tuple[Tensor, Tensor]:
        """Differentiable ``(B, factor_dim)`` factor vectors for a ragged batch."""
        padded, mask = pad_sequences(point_sequences)
        return self.encoder(Tensor(padded), mask)

    # ----------------------------------------------------------- inference path
    def factors_numpy(self, point_sequences, batch_size: int = 256
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Factor vectors for many trajectories, without building autograd graphs.

        Runs the mask-aware batched encoder in chunks of ``batch_size`` so
        database pre-embedding shares the batched forward path.
        """
        point_sequences = list(point_sequences)
        if not point_sequences:
            empty = np.zeros((0, self.config.factor_dim))
            return empty, empty.copy()
        batch_size = max(int(batch_size), 1)
        lorentz_factors = []
        euclid_factors = []
        with no_grad():
            for start in range(0, len(point_sequences), batch_size):
                v_lo, v_eu = self.factors_batch(point_sequences[start:start + batch_size])
                lorentz_factors.append(v_lo.data.copy())
                euclid_factors.append(v_eu.data.copy())
        return np.concatenate(lorentz_factors), np.concatenate(euclid_factors)

    @staticmethod
    def alpha_matrix(query_factors: tuple[np.ndarray, np.ndarray],
                     database_factors: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """All-pairs ``α_Lo`` between query and database factor vectors.

        The sum and the quotient run in place over the two Gram products.
        """
        q_lo, q_eu = query_factors
        d_lo, d_eu = database_factors
        lorentz_term = q_lo @ d_lo.T
        euclid_term = q_eu @ d_eu.T
        euclid_term += lorentz_term
        lorentz_term /= euclid_term
        return lorentz_term
