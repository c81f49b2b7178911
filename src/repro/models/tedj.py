"""Tedj-style encoder: 3-D spatio-temporal grid sequences (Tedjopurnomo et al., TIST 2021).

Tedj ("similar trajectory search with spatio-temporal deep representation learning")
discretises space *and* time into a 3-D grid and encodes the resulting token sequence,
which makes it robust to GPS sampling-rate fluctuation and point offsets.  This
re-implementation tokenises trajectories with :class:`~repro.data.SpatioTemporalGrid`,
embeds the tokens and runs a GRU over them.
"""

from __future__ import annotations

import numpy as np

from ..data import SpatioTemporalGrid, Trajectory, TrajectoryDataset
from ..nn import GRU, Embedding, Linear, Tensor, concat, pad_sequences, pad_token_sequences
from .base import TrajectoryEncoder, register_model

__all__ = ["TedjEncoder"]


@register_model("tedj")
class TedjEncoder(TrajectoryEncoder):
    """Spatio-temporal grid-token GRU encoder in the style of Tedj."""

    def __init__(self, st_grid: SpatioTemporalGrid, embedding_dim: int = 16,
                 token_dim: int = 12, hidden_dim: int = 24, seed: int = 0):
        super().__init__(embedding_dim)
        rng = np.random.default_rng(seed)
        self.st_grid = st_grid
        self.token_embedding = Embedding(st_grid.num_cells, token_dim, rng=rng)
        self.recurrent = GRU(token_dim + 3, hidden_dim, rng=rng)
        self.projection = Linear(hidden_dim, embedding_dim, rng=rng)

    @classmethod
    def build(cls, dataset: TrajectoryDataset, embedding_dim: int = 16, seed: int = 0,
              token_dim: int = 12, hidden_dim: int = 24, grid_size: int = 12,
              num_time_bins: int = 12, **kwargs) -> "TedjEncoder":
        if not dataset.has_time:
            raise ValueError("Tedj requires a spatio-temporal dataset (lon, lat, t)")
        st_grid = SpatioTemporalGrid.for_dataset(dataset, grid_size, grid_size, num_time_bins)
        return cls(st_grid, embedding_dim=embedding_dim, token_dim=token_dim,
                   hidden_dim=hidden_dim, seed=seed)

    def prepare(self, trajectory: Trajectory) -> tuple[np.ndarray, np.ndarray]:
        if not trajectory.has_time:
            raise ValueError("Tedj requires timestamped trajectories")
        tokens = self.st_grid.tokenize(trajectory)
        continuous = self.st_grid.features(trajectory)[:, :3]  # norm lon, lat, time
        return tokens, continuous

    def encode_batch(self, prepared_list) -> Tensor:
        """Padded token lookup + masked GRU over the whole batch.

        Padding uses token id 0 — a valid vocabulary row — but the mask zeroes
        the gradient of every padded step, so the row-0 embedding only learns
        from genuine occurrences.
        """
        if not prepared_list:
            raise ValueError("encode_batch needs at least one prepared trajectory")
        tokens, mask = pad_token_sequences([prepared[0] for prepared in prepared_list])
        continuous, _ = pad_sequences([prepared[1] for prepared in prepared_list])
        token_vectors = self.token_embedding(tokens)
        sequence = concat([token_vectors, Tensor(continuous)], axis=-1)
        _, hidden = self.recurrent(sequence, return_sequence=False, mask=mask)
        return self.projection(hidden)
