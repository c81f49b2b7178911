"""Neutraj-style encoder: grid-aware recurrent embedding (Yao et al., ICDE 2019).

Neutraj feeds each trajectory point's coordinates together with its grid cell into a
recurrent network and uses a spatial-attention memory over neighbouring cells.  This
reduced-scale re-implementation keeps the characteristic ingredients:

* grid-cell preprocessing (coordinates + normalised cell indices per point),
* neighbour smoothing — each point's features are averaged with the centres of the
  neighbouring cells, a stand-in for the original's spatial memory table,
* a GRU encoder whose final hidden state is projected to the embedding.
"""

from __future__ import annotations

import numpy as np

from ..data import Grid, Trajectory, TrajectoryDataset
from ..nn import GRU, Linear, Tensor, pad_sequences
from .base import TrajectoryEncoder, register_model

__all__ = ["NeutrajEncoder"]


@register_model("neutraj")
class NeutrajEncoder(TrajectoryEncoder):
    """Grid-cell GRU encoder in the style of Neutraj."""

    def __init__(self, grid: Grid, embedding_dim: int = 16, hidden_dim: int = 32,
                 neighbor_radius: int = 1, seed: int = 0):
        super().__init__(embedding_dim)
        rng = np.random.default_rng(seed)
        self.grid = grid
        self.neighbor_radius = neighbor_radius
        self.input_dim = 6  # lon, lat, cell-x, cell-y, neighbour-smoothed lon/lat
        self.recurrent = GRU(self.input_dim, hidden_dim, rng=rng)
        self.projection = Linear(hidden_dim, embedding_dim, rng=rng)

    @classmethod
    def build(cls, dataset: TrajectoryDataset, embedding_dim: int = 16, seed: int = 0,
              hidden_dim: int = 32, grid_size: int = 24, neighbor_radius: int = 1,
              **kwargs) -> "NeutrajEncoder":
        grid = Grid.for_dataset(dataset, grid_size, grid_size)
        return cls(grid, embedding_dim=embedding_dim, hidden_dim=hidden_dim,
                   neighbor_radius=neighbor_radius, seed=seed)

    def prepare(self, trajectory: Trajectory) -> np.ndarray:
        return self.prepare_batch([trajectory])[0]

    def prepare_batch(self, trajectories) -> list:
        """Per-point features of every trajectory, computed in one array pass.

        The features are point-wise, so the points of all trajectories are
        processed stacked and split back per trajectory afterwards.
        """
        coords = [trajectory.coordinates for trajectory in trajectories]
        if not coords:
            return []
        stacked = np.concatenate(coords)
        base = self.grid.features(stacked)  # (n, 4): norm lon/lat + norm cell col/row
        cells = self.grid.cells_of(stacked)
        mean_centers = self.grid.neighborhood_means(cells, self.neighbor_radius)
        box = self.grid.bounding_box
        smoothed = np.empty_like(mean_centers)
        smoothed[:, 0] = (mean_centers[:, 0] - box.min_lon) / max(box.width, 1e-12)
        smoothed[:, 1] = (mean_centers[:, 1] - box.min_lat) / max(box.height, 1e-12)
        features = np.hstack([base, smoothed])
        return np.split(features, np.cumsum([len(c) for c in coords])[:-1])

    def encode_batch(self, prepared_list) -> Tensor:
        """One masked GRU sweep over the padded batch of feature sequences."""
        if not prepared_list:
            raise ValueError("encode_batch needs at least one prepared trajectory")
        padded, mask = pad_sequences(prepared_list)
        _, hidden = self.recurrent(Tensor(padded), return_sequence=False, mask=mask)
        return self.projection(hidden)
