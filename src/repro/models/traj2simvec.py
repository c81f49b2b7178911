"""Traj2SimVec-style encoder: LSTM with sub-trajectory supervision (Zhang et al., IJCAI 2020).

Traj2SimVec's distinguishing idea is auxiliary supervision on *sub-trajectories*: the
model is encouraged to embed prefixes of a trajectory consistently with the distances
of the corresponding sub-trajectories.  This re-implementation encodes the normalised
point sequence with an LSTM and exposes prefix embeddings at a few split points
through :meth:`Traj2SimVecEncoder.encode_batch_with_prefixes`; no training loss uses
them yet.
"""

from __future__ import annotations

import numpy as np

from ..data import Normalizer, Trajectory, TrajectoryDataset
from ..nn import LSTM, Linear, Tensor, pad_sequences
from .base import TrajectoryEncoder, register_model

__all__ = ["Traj2SimVecEncoder"]


@register_model("traj2simvec")
class Traj2SimVecEncoder(TrajectoryEncoder):
    """LSTM encoder with prefix (sub-trajectory) embeddings."""

    def __init__(self, normalizer: Normalizer, embedding_dim: int = 16,
                 hidden_dim: int = 32, num_splits: int = 3, seed: int = 0):
        super().__init__(embedding_dim)
        rng = np.random.default_rng(seed)
        self.normalizer = normalizer
        self.num_splits = max(num_splits, 1)
        self.recurrent = LSTM(2, hidden_dim, rng=rng)
        self.projection = Linear(hidden_dim, embedding_dim, rng=rng)

    @classmethod
    def build(cls, dataset: TrajectoryDataset, embedding_dim: int = 16, seed: int = 0,
              hidden_dim: int = 32, num_splits: int = 3, **kwargs) -> "Traj2SimVecEncoder":
        return cls(Normalizer.fit(dataset), embedding_dim=embedding_dim,
                   hidden_dim=hidden_dim, num_splits=num_splits, seed=seed)

    def prepare(self, trajectory: Trajectory) -> np.ndarray:
        return self.normalizer.transform_points(trajectory.coordinates)

    def encode_batch(self, prepared_list) -> Tensor:
        """One masked LSTM sweep over the padded batch of point sequences."""
        if not prepared_list:
            raise ValueError("encode_batch needs at least one prepared trajectory")
        padded, mask = pad_sequences(prepared_list)
        _, (hidden, _) = self.recurrent(Tensor(padded), return_sequence=False, mask=mask)
        return self.projection(hidden)

    def _prefix_position(self, length: int, split: int) -> int:
        return max(int(round(length * split / (self.num_splits + 1))) - 1, 0)

    def encode_batch_with_prefixes(self, prepared_list) -> tuple[Tensor, list[Tensor]]:
        """Full embeddings plus embeddings of ``num_splits`` prefixes.

        Returns the full ``(B, embedding_dim)`` embeddings plus one ``(B,
        embedding_dim)`` tensor per split.  Prefix split points are evenly
        spaced and reuse the same recurrent weights, mirroring how Traj2SimVec
        supervises sub-trajectory consistency; each row is gathered from the
        sample's own prefix positions in the masked per-step states, so it does
        not depend on the padding of the rest of the batch.
        """
        if not prepared_list:
            raise ValueError("encode_batch needs at least one prepared trajectory")
        padded, mask = pad_sequences(prepared_list)
        outputs, (hidden, _) = self.recurrent(Tensor(padded), mask=mask)
        full = self.projection(hidden)
        rows = np.arange(len(prepared_list))
        prefixes = []
        for split in range(1, self.num_splits + 1):
            positions = np.array([self._prefix_position(len(prepared), split)
                                  for prepared in prepared_list], dtype=np.intp)
            prefixes.append(self.projection(outputs[rows, positions]))
        return full, prefixes

    def prefix_lengths(self, prepared: np.ndarray) -> list[int]:
        """Number of points of each prefix produced by :meth:`encode_batch_with_prefixes`."""
        length = len(prepared)
        return [self._prefix_position(length, split) + 1
                for split in range(1, self.num_splits + 1)]
