"""TrajGAT-style encoder: quadtree graph attention (Yao et al., KDD 2022).

TrajGAT targets long trajectories: it builds a quadtree over the space, turns each
trajectory into a graph whose nodes are the trajectory points plus the quadtree cells
they traverse, and encodes the graph with graph attention layers.  This re-
implementation keeps that structure at reduced scale: a shared dataset quadtree,
per-trajectory point+cell graphs, two GAT layers and mean pooling.
"""

from __future__ import annotations

import numpy as np

from ..data import Normalizer, QuadTree, Trajectory, TrajectoryDataset, trajectory_graph
from ..nn import GraphAttentionLayer, Linear, Tensor, masked_mean, pad_sequences
from .base import TrajectoryEncoder, register_model

__all__ = ["TrajGATEncoder"]


@register_model("trajgat")
class TrajGATEncoder(TrajectoryEncoder):
    """Quadtree graph-attention encoder in the style of TrajGAT."""

    def __init__(self, quadtree: QuadTree, normalizer: Normalizer,
                 embedding_dim: int = 16, hidden_dim: int = 32, seed: int = 0):
        super().__init__(embedding_dim)
        rng = np.random.default_rng(seed)
        self.quadtree = quadtree
        self.normalizer = normalizer
        self.input_dim = 3  # normalised lon, lat, node-depth flag
        self.attention1 = GraphAttentionLayer(self.input_dim, hidden_dim, rng=rng)
        self.attention2 = GraphAttentionLayer(hidden_dim, hidden_dim, rng=rng)
        self.projection = Linear(hidden_dim, embedding_dim, rng=rng)

    @classmethod
    def build(cls, dataset: TrajectoryDataset, embedding_dim: int = 16, seed: int = 0,
              hidden_dim: int = 32, max_points_per_cell: int = 24, max_depth: int = 5,
              **kwargs) -> "TrajGATEncoder":
        quadtree = QuadTree.for_dataset(dataset, max_points=max_points_per_cell,
                                        max_depth=max_depth)
        return cls(quadtree, Normalizer.fit(dataset), embedding_dim=embedding_dim,
                   hidden_dim=hidden_dim, seed=seed)

    def prepare(self, trajectory: Trajectory) -> tuple[np.ndarray, np.ndarray]:
        features, adjacency = trajectory_graph(trajectory, self.quadtree)
        # Normalise the spatial part of the node features; the depth flag stays as-is.
        spatial = self.normalizer.transform_points(features[:, :2])
        normalised = np.column_stack([spatial, features[:, 2]])
        return normalised, adjacency

    def encode_batch(self, prepared_list) -> Tensor:
        """Batched graph attention over node-padded graphs.

        Graphs are padded to the largest node count of the batch with all-False
        adjacency rows; absent edges attend with exactly zero weight, and the
        mean pooling is masked to the real nodes of every graph.
        """
        if not prepared_list:
            raise ValueError("encode_batch needs at least one prepared trajectory")
        features, mask = pad_sequences([prepared[0] for prepared in prepared_list])
        batch, num_nodes = mask.shape
        adjacency = np.zeros((batch, num_nodes, num_nodes), dtype=bool)
        for row, (_, graph_adjacency) in enumerate(prepared_list):
            size = graph_adjacency.shape[0]
            adjacency[row, :size, :size] = graph_adjacency
        hidden = self.attention1(Tensor(features), adjacency)
        hidden = self.attention2(hidden, adjacency)
        pooled = masked_mean(hidden, mask)
        return self.projection(pooled)
