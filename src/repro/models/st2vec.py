"""ST2Vec-style encoder: spatio-temporal co-attention (Fang et al., KDD 2022).

ST2Vec encodes the spatial and temporal components of a trajectory with separate
recurrent streams and fuses them with a co-attention module before producing the
final embedding.  This re-implementation keeps that two-stream + co-attention shape
on top of the NumPy substrate.
"""

from __future__ import annotations

import numpy as np

from ..data import Normalizer, Trajectory, TrajectoryDataset
from ..nn import LSTM, CoAttention, Linear, Tensor, concat, masked_mean, pad_sequences
from .base import TrajectoryEncoder, register_model

__all__ = ["ST2VecEncoder"]


@register_model("st2vec")
class ST2VecEncoder(TrajectoryEncoder):
    """Two-stream spatio-temporal encoder with co-attention fusion."""

    def __init__(self, normalizer: Normalizer, embedding_dim: int = 16,
                 hidden_dim: int = 24, seed: int = 0):
        super().__init__(embedding_dim)
        rng = np.random.default_rng(seed)
        self.normalizer = normalizer
        self.spatial_stream = LSTM(2, hidden_dim, rng=rng)
        self.temporal_stream = LSTM(2, hidden_dim, rng=rng)
        self.co_attention = CoAttention(hidden_dim, rng=rng)
        self.projection = Linear(2 * hidden_dim, embedding_dim, rng=rng)

    @classmethod
    def build(cls, dataset: TrajectoryDataset, embedding_dim: int = 16, seed: int = 0,
              hidden_dim: int = 24, **kwargs) -> "ST2VecEncoder":
        if not dataset.has_time:
            raise ValueError("ST2Vec requires a spatio-temporal dataset (lon, lat, t)")
        return cls(Normalizer.fit(dataset), embedding_dim=embedding_dim,
                   hidden_dim=hidden_dim, seed=seed)

    def prepare(self, trajectory: Trajectory) -> tuple[np.ndarray, np.ndarray]:
        if not trajectory.has_time:
            raise ValueError("ST2Vec requires timestamped trajectories")
        points = self.normalizer.transform_points(trajectory.points)
        spatial = points[:, :2]
        times = points[:, 2]
        # Temporal stream sees (normalised time, normalised time delta).
        deltas = np.concatenate([[0.0], np.diff(times)])
        temporal = np.column_stack([times, deltas])
        return spatial, temporal

    def encode_batch(self, prepared_list) -> Tensor:
        """Masked two-stream LSTM + masked co-attention over the padded batch.

        Both streams of one trajectory share a length, so a single mask drives
        the recurrences, the attention bias and the mean pooling.
        """
        if not prepared_list:
            raise ValueError("encode_batch needs at least one prepared trajectory")
        spatial, mask = pad_sequences([prepared[0] for prepared in prepared_list])
        temporal, _ = pad_sequences([prepared[1] for prepared in prepared_list])
        spatial_states, _ = self.spatial_stream(Tensor(spatial), mask=mask)
        temporal_states, _ = self.temporal_stream(Tensor(temporal), mask=mask)
        fused_spatial, fused_temporal = self.co_attention(
            spatial_states, temporal_states, mask_a=mask, mask_b=mask)
        pooled = concat([masked_mean(fused_spatial, mask),
                         masked_mean(fused_temporal, mask)], axis=-1)
        return self.projection(pooled)
