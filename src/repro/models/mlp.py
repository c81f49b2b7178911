"""Mean-pooling MLP encoder — a fast, architecture-free baseline.

Not part of the paper's model zoo, but useful as a cheap control in tests and as the
quickstart example's default: it mean-pools simple per-point statistics and projects
them through an MLP.  It exercises the whole plugin/training/retrieval pipeline at a
fraction of the recurrent models' cost.
"""

from __future__ import annotations

import numpy as np

from ..data import Normalizer, Trajectory, TrajectoryDataset
from ..nn import MLP, Tensor
from .base import TrajectoryEncoder, register_model

__all__ = ["MeanPoolEncoder"]


@register_model("meanpool")
class MeanPoolEncoder(TrajectoryEncoder):
    """Embeds a trajectory from pooled point statistics through an MLP.

    The prepared representation is a fixed-size feature vector: the mean, standard
    deviation, first and last of the normalised coordinates, plus the normalised
    point count — enough to distinguish routes while staying O(n) to compute.
    """

    def __init__(self, normalizer: Normalizer, embedding_dim: int = 16,
                 hidden_dim: int = 32, seed: int = 0):
        super().__init__(embedding_dim)
        rng = np.random.default_rng(seed)
        self.normalizer = normalizer
        self.feature_dim = 9
        self.network = MLP(self.feature_dim, hidden_dim, embedding_dim, rng=rng)

    @classmethod
    def build(cls, dataset: TrajectoryDataset, embedding_dim: int = 16, seed: int = 0,
              hidden_dim: int = 32, **kwargs) -> "MeanPoolEncoder":
        return cls(Normalizer.fit(dataset), embedding_dim=embedding_dim,
                   hidden_dim=hidden_dim, seed=seed)

    def prepare(self, trajectory: Trajectory) -> np.ndarray:
        coords = self.normalizer.transform_points(trajectory.coordinates)
        features = np.concatenate([
            coords.mean(axis=0),
            coords.std(axis=0),
            coords[0],
            coords[-1],
            [min(len(coords), 200) / 200.0],
        ])
        return features

    def encode_batch(self, prepared_list) -> Tensor:
        """Batched forward: the fixed-size features stack without padding."""
        if not prepared_list:
            raise ValueError("encode_batch needs at least one prepared trajectory")
        return self.network(Tensor(np.stack(prepared_list, axis=0)))
