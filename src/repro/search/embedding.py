"""Approximate top-k search over trained model embeddings.

Once an encoder is trained, online retrieval works in embedding space: a query
vector against a matrix of database vectors.  Two paths are provided:

* :func:`embedding_topk` — exact brute force.  One Gram-matrix multiplication
  (the same kernel ``eval.retrieval`` uses) followed by ``knn_from_matrix``'s
  top-k, so neighbours come in the same ascending ``(distance, index)`` order.
* :class:`IVFEmbeddingIndex` — an IVF-style coarse quantizer: a tiny Lloyd's
  k-means partitions the database into inverted lists, and a query only scans the
  ``nprobe`` lists whose centroids are nearest.  Approximate by construction;
  :func:`recall_at_k` measures how much of the exact answer survives.
"""

from __future__ import annotations

import numpy as np

from ..distances import knn_from_matrix
from ..eval.retrieval import euclidean_distance_matrix

__all__ = ["embedding_topk", "IVFEmbeddingIndex", "recall_at_k"]


def embedding_topk(queries: np.ndarray, database: np.ndarray, k: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k by brute-force matmul: ``(indices, distances)``, row per query."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    matrix = euclidean_distance_matrix(queries, database)
    order = knn_from_matrix(matrix, k)
    return order, np.take_along_axis(matrix, order, axis=1)


class IVFEmbeddingIndex:
    """Inverted-file index over embedding vectors with a k-means coarse quantizer."""

    def __init__(self, database: np.ndarray, num_lists: int = 8, iterations: int = 10,
                 seed: int = 0):
        database = np.asarray(database, dtype=np.float64)
        if database.ndim != 2 or len(database) == 0:
            raise ValueError("database must be a non-empty (n, d) array")
        if num_lists <= 0:
            raise ValueError("num_lists must be positive")
        self.database = database
        self.num_lists = min(num_lists, len(database))
        self.centroids = self._fit_centroids(iterations, seed)
        assignments = euclidean_distance_matrix(database, self.centroids).argmin(axis=1)
        self.lists = [np.flatnonzero(assignments == list_id)
                      for list_id in range(self.num_lists)]

    def _fit_centroids(self, iterations: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(self.database), size=self.num_lists, replace=False)
        centroids = self.database[np.sort(chosen)].copy()
        for _ in range(iterations):
            assignments = euclidean_distance_matrix(self.database, centroids).argmin(axis=1)
            for list_id in range(self.num_lists):
                members = self.database[assignments == list_id]
                if len(members):  # empty clusters keep their previous centroid
                    centroids[list_id] = members.mean(axis=0)
        return centroids

    def search(self, queries: np.ndarray, k: int, nprobe: int = 2
               ) -> tuple[np.ndarray, np.ndarray]:
        """Approximate top-k scanning the ``nprobe`` nearest inverted lists.

        Lists are probed in ascending centroid distance; probing extends past
        ``nprobe`` only when the gathered candidates cannot yet fill ``k``
        results, so every row always contains ``k`` valid indices.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if k <= 0:
            raise ValueError("k must be positive")
        if k > len(self.database):
            raise ValueError(f"k={k} exceeds the {len(self.database)} database vectors")
        if nprobe <= 0:
            raise ValueError("nprobe must be positive")
        probe_order = np.argsort(euclidean_distance_matrix(queries, self.centroids),
                                 axis=1, kind="stable")
        indices = np.empty((len(queries), k), dtype=np.int64)
        distances = np.empty((len(queries), k))
        for row, order in enumerate(probe_order):
            candidates: list[np.ndarray] = []
            gathered = 0
            for probed, list_id in enumerate(order):
                if probed >= nprobe and gathered >= k:
                    break
                candidates.append(self.lists[list_id])
                gathered += len(self.lists[list_id])
            pool = np.sort(np.concatenate(candidates))
            pool_distances = euclidean_distance_matrix(queries[row:row + 1],
                                                       self.database[pool])[0]
            top = knn_from_matrix(pool_distances[None, :], k)[0]
            indices[row] = pool[top]
            distances[row] = pool_distances[top]
        return indices, distances


def recall_at_k(approximate_indices: np.ndarray, exact_indices: np.ndarray) -> float:
    """Mean fraction of the exact top-k recovered by the approximate top-k."""
    approximate_indices = np.atleast_2d(approximate_indices)
    exact_indices = np.atleast_2d(exact_indices)
    if approximate_indices.shape != exact_indices.shape:
        raise ValueError("approximate and exact index arrays must have the same shape")
    hits = sum(len(set(approx.tolist()) & set(exact.tolist()))
               for approx, exact in zip(approximate_indices, exact_indices))
    return hits / exact_indices.size
