"""Retrieval-quality metrics: HR@k and NDCG@k (Section VI-A).

Given a model distance matrix and a ground-truth distance matrix over the same
query/database split, HR@k is the fraction of the true top-k neighbours recovered in
the predicted top-k, averaged over queries; NDCG@k discounts hits by their predicted
rank, rewarding models that put the true neighbours early in the ranking.
"""

from __future__ import annotations

import numpy as np

from ..distances import knn_from_matrix

__all__ = [
    "hit_rate",
    "per_query_hit_rate",
    "ndcg",
    "evaluate_retrieval",
    "euclidean_distance_matrix",
]


def euclidean_distance_matrix(queries: np.ndarray, database: np.ndarray | None = None
                              ) -> np.ndarray:
    """All-pairs Euclidean distances between query and database embeddings.

    Uses the Gram-matrix identity ``‖a − b‖² = ‖a‖² + ‖b‖² − 2·a·b`` so the dominant
    cost is a single matrix multiplication (the same kernel the Lorentz-distance path
    uses, which keeps the efficiency comparison fair).
    """
    queries = np.asarray(queries, dtype=np.float64)
    database = queries if database is None else np.asarray(database, dtype=np.float64)
    gram = queries @ database.T
    squared = (queries ** 2).sum(axis=1)[:, None] + (database ** 2).sum(axis=1)[None, :]
    return np.sqrt(np.maximum(squared - 2.0 * gram, 0.0))


def _hit_rate(predicted_knn: np.ndarray, true_knn: np.ndarray) -> float:
    k = predicted_knn.shape[1]
    hits = 0
    for predicted_row, true_row in zip(predicted_knn, true_knn):
        hits += len(set(predicted_row.tolist()) & set(true_row.tolist()))
    return hits / (len(predicted_knn) * k)


def _ndcg(predicted_knn: np.ndarray, true_knn: np.ndarray) -> float:
    k = predicted_knn.shape[1]
    discounts = 1.0 / np.log2(np.arange(2, k + 2))
    ideal = discounts.sum()
    total = 0.0
    for predicted_row, true_row in zip(predicted_knn, true_knn):
        relevant = set(true_row.tolist())
        gains = np.array([1.0 if item in relevant else 0.0 for item in predicted_row])
        total += (gains * discounts).sum() / ideal
    return total / len(predicted_knn)


def _rank(predicted_matrix: np.ndarray, true_matrix: np.ndarray, k: int,
          exclude_self: bool) -> tuple[np.ndarray, np.ndarray]:
    return (knn_from_matrix(predicted_matrix, k, exclude_self=exclude_self),
            knn_from_matrix(true_matrix, k, exclude_self=exclude_self))


def hit_rate(predicted_matrix: np.ndarray, true_matrix: np.ndarray, k: int,
             exclude_self: bool = True) -> float:
    """HR@k: overlap between predicted and true top-k neighbour sets."""
    return _hit_rate(*_rank(predicted_matrix, true_matrix, k, exclude_self))


def per_query_hit_rate(predicted_matrix: np.ndarray, true_matrix: np.ndarray, k: int,
                       exclude_self: bool = True) -> np.ndarray:
    """HR@k of every individual query (used to stratify accuracy by violation degree)."""
    predicted_knn, true_knn = _rank(predicted_matrix, true_matrix, k, exclude_self)
    rates = np.zeros(len(predicted_knn))
    for index, (predicted_row, true_row) in enumerate(zip(predicted_knn, true_knn)):
        rates[index] = len(set(predicted_row.tolist()) & set(true_row.tolist())) / k
    return rates


def ndcg(predicted_matrix: np.ndarray, true_matrix: np.ndarray, k: int,
         exclude_self: bool = True) -> float:
    """NDCG@k with binary relevance (item relevant iff in the true top-k)."""
    return _ndcg(*_rank(predicted_matrix, true_matrix, k, exclude_self))


def evaluate_retrieval(predicted_matrix: np.ndarray, true_matrix: np.ndarray,
                       hr_ks: tuple[int, ...] = (5, 10, 50),
                       ndcg_ks: tuple[int, ...] = (10, 50),
                       exclude_self: bool = True) -> dict[str, float]:
    """HR@k and NDCG@k for the requested cut-offs, as a flat metrics dict.

    Cut-offs larger than the database size are clamped (small synthetic databases).
    Each matrix is ranked once, at the largest cut-off: neighbours come in a total
    ``(distance, index)`` order, so every smaller top-k is a prefix of that ranking.
    """
    predicted_matrix = np.asarray(predicted_matrix, dtype=np.float64)
    true_matrix = np.asarray(true_matrix, dtype=np.float64)
    if predicted_matrix.shape != true_matrix.shape:
        raise ValueError("predicted and true matrices must have the same shape")
    database_size = predicted_matrix.shape[1] - (1 if exclude_self else 0)
    effective = {k: min(k, database_size) for k in (*hr_ks, *ndcg_ks)}
    if not effective:
        return {}
    if min(effective.values()) <= 0:
        raise ValueError("k must be positive")
    predicted_knn, true_knn = _rank(predicted_matrix, true_matrix,
                                    max(effective.values()), exclude_self)
    metrics: dict[str, float] = {}
    for k in hr_ks:
        cut = effective[k]
        metrics[f"hr@{k}"] = _hit_rate(predicted_knn[:, :cut], true_knn[:, :cut])
    for k in ndcg_ks:
        cut = effective[k]
        metrics[f"ndcg@{k}"] = _ndcg(predicted_knn[:, :cut], true_knn[:, :cut])
    return metrics
