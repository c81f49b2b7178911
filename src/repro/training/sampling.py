"""Pair and triplet sampling strategies for similarity training.

Following Neutraj's seed-guided sampling, each training epoch supervises, for every
anchor trajectory, its ``num_nearest`` most similar trajectories (where approximation
errors hurt retrieval most) plus ``num_random`` random ones (to keep the global scale
calibrated).
"""

from __future__ import annotations

import numpy as np

from ..distances import knn_from_matrix

__all__ = ["PairSampler", "sample_triplets"]


class PairSampler:
    """Samples (anchor, other) index pairs guided by the ground-truth matrix.

    With ``lengths`` (one sequence length per trajectory) and
    ``length_buckets > 1``, each epoch's pairs are grouped into quantile buckets
    of the pair's *max* sequence length, so consecutive training batches hold
    similarly long trajectories and the padded ``(B, T)`` tensors waste less
    work on skewed datasets.  Bucketing happens after the shuffle with a stable
    sort, so pairs stay shuffled within a bucket and the emission order is
    deterministic under a fixed seed; the multiset of pairs is unchanged.
    """

    def __init__(self, target_matrix: np.ndarray, num_nearest: int = 5,
                 num_random: int = 5, seed: int = 0, lengths=None,
                 length_buckets: int = 0):
        target_matrix = np.asarray(target_matrix, dtype=np.float64)
        if target_matrix.ndim != 2 or target_matrix.shape[0] != target_matrix.shape[1]:
            raise ValueError("target_matrix must be square")
        if num_nearest < 0 or num_random < 0 or num_nearest + num_random == 0:
            raise ValueError("need at least one of num_nearest/num_random positive")
        self.target_matrix = target_matrix
        self.num_nearest = num_nearest
        self.num_random = num_random
        if lengths is not None:
            lengths = np.asarray(lengths, dtype=np.int64)
            if lengths.shape != (len(target_matrix),):
                raise ValueError(f"lengths must hold one entry per trajectory "
                                 f"({len(target_matrix)}), got shape {lengths.shape}")
        self.lengths = lengths
        self.length_buckets = int(length_buckets)
        if self.length_buckets > 1 and self.lengths is None:
            raise ValueError("length_buckets needs the per-trajectory lengths")
        self._rng = np.random.default_rng(seed)
        self._nearest = self._precompute_nearest()

    def _precompute_nearest(self) -> np.ndarray:
        # Tiny matrices hold fewer than num_nearest other trajectories: take them all.
        k = min(max(self.num_nearest, 1), len(self.target_matrix) - 1)
        if k <= 0:
            return np.empty((len(self.target_matrix), 0), dtype=np.intp)
        return knn_from_matrix(self.target_matrix, k, exclude_self=True)

    def epoch_pairs(self, shuffle: bool = True) -> np.ndarray:
        """One epoch worth of pairs: nearest + random others for every anchor.

        Returns a ``(num_pairs, 2)`` int64 index array — the batched trainer
        slices and gathers it directly, and row iteration (``for i, j in
        pairs``) still works for per-pair consumers.  With length bucketing
        enabled, the shuffled pairs are then stably grouped by length bucket.
        """
        n = len(self.target_matrix)
        pairs: list[tuple[int, int]] = []
        for anchor in range(n):
            for neighbor in self._nearest[anchor][:self.num_nearest]:
                pairs.append((anchor, int(neighbor)))
            if self.num_random:
                candidates = self._rng.choice(n, size=self.num_random, replace=True)
                for other in candidates:
                    if other != anchor:
                        pairs.append((anchor, int(other)))
        index_pairs = np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2)
        if shuffle:
            self._rng.shuffle(index_pairs, axis=0)
        if self.length_buckets > 1 and len(index_pairs):
            index_pairs = index_pairs[self._bucket_order(index_pairs)]
        return index_pairs

    def _bucket_order(self, index_pairs: np.ndarray) -> np.ndarray:
        """Stable ordering grouping pairs into quantile buckets of max length.

        Quantile edges adapt the buckets to the epoch's actual length
        distribution; the stable sort keys only on the bucket id, so the
        within-bucket order (and with it the shuffle) is preserved.
        """
        pair_lengths = np.maximum(self.lengths[index_pairs[:, 0]],
                                  self.lengths[index_pairs[:, 1]])
        quantiles = np.linspace(0.0, 1.0, self.length_buckets + 1)[1:-1]
        edges = np.quantile(pair_lengths, quantiles)
        buckets = np.searchsorted(edges, pair_lengths, side="right")
        return np.argsort(buckets, kind="stable")

    def targets_of(self, pairs: np.ndarray) -> np.ndarray:
        """Ground-truth distances of a ``(batch, 2)`` index-pair array."""
        pairs = np.asarray(pairs, dtype=np.int64)
        return self.target_matrix[pairs[:, 0], pairs[:, 1]]

    def target_of(self, pair: tuple[int, int]) -> float:
        """Ground-truth distance of a sampled pair."""
        i, j = pair
        return float(self.target_matrix[i, j])


def sample_triplets(target_matrix: np.ndarray, num_triplets: int, seed: int = 0,
                    positive_quantile: float = 0.25) -> list[tuple[int, int, int]]:
    """Sample (anchor, positive, negative) triplets for margin-based training.

    Positives are drawn from the anchor's closest ``positive_quantile`` fraction of
    the database, negatives from the rest.
    """
    matrix = np.asarray(target_matrix, dtype=np.float64)
    n = len(matrix)
    if n < 3:
        raise ValueError("need at least three trajectories")
    rng = np.random.default_rng(seed)
    masked = matrix.copy()
    np.fill_diagonal(masked, np.inf)
    order = np.argsort(masked, axis=1, kind="stable")
    cutoff = max(int(positive_quantile * (n - 1)), 1)
    triplets = []
    for _ in range(num_triplets):
        anchor = int(rng.integers(n))
        positive = int(order[anchor, rng.integers(cutoff)])
        negative = int(order[anchor, rng.integers(cutoff, n - 1)])
        triplets.append((anchor, positive, negative))
    return triplets
