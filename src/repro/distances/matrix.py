"""Pairwise ground-truth distance matrices and nearest-neighbour extraction.

Similarity-learning experiments need the full matrix of trajectory distances for the
training set (to supervise the encoder) and for query/database splits (to define the
retrieval ground truth).  These helpers compute such matrices for any registered
distance measure and derive k-nearest-neighbour lists from them.

Matrix construction is delegated to the compute engine (:mod:`repro.engine`): the
functions here are thin wrappers that keep the historical signatures while routing
through the process-wide default engine, or through an explicit ``engine`` argument
when the caller wants a specific execution strategy or cache.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "pairwise_distance_matrix",
    "cross_distance_matrix",
    "knn_from_matrix",
    "normalize_matrix",
]


def _resolve_engine(engine):
    if engine is not None:
        return engine
    # Imported lazily: repro.engine depends on repro.distances.base, so a module-level
    # import here would cycle during package initialisation.
    from ..engine import get_default_engine

    return get_default_engine()


def pairwise_distance_matrix(trajectories: Sequence, measure="dtw", engine=None,
                             **measure_kwargs) -> np.ndarray:
    """Symmetric matrix of distances between every pair of ``trajectories``."""
    return _resolve_engine(engine).pairwise(trajectories, measure, **measure_kwargs)


def cross_distance_matrix(queries: Sequence, database: Sequence, measure="dtw",
                          engine=None, **measure_kwargs) -> np.ndarray:
    """Matrix of distances from every query to every database trajectory."""
    return _resolve_engine(engine).cross(queries, database, measure, **measure_kwargs)


def knn_from_matrix(matrix: np.ndarray, k: int, exclude_self: bool = False) -> np.ndarray:
    """Indices of the ``k`` nearest columns for every row of a distance matrix.

    Neighbours come in ascending ``(distance, index)`` order: equal distances are
    ordered by ascending column index, ``-0.0`` equals ``0.0`` and NaN sorts after
    every number.  ``repro.search.knn_search`` guarantees the identical order, so
    exact-search parity tests compare index arrays directly without tolerance games.

    The result equals ``np.argsort(matrix, axis=1, kind="stable")[:, :k]`` but is
    computed by partition plus a tie fix-up: ``argpartition`` picks k columns per
    row, which are re-ordered by ``(distance, index)``.  A row whose k-th distance
    is tied with a column outside the pick (or is NaN) may have picked the wrong
    members of the tie, so it alone goes through the full stable sort.

    Parameters
    ----------
    matrix:
        (n_queries, n_database) distance matrix.
    k:
        Number of neighbours to return per row.  Must not exceed the number of
        available candidates (columns, minus one when ``exclude_self`` removes the
        diagonal) — silently returning fewer columns used to corrupt downstream
        HR@k denominators on small matrices.
    exclude_self:
        If True the diagonal entry (same index) is removed from each row's candidates,
        which is the convention when queries are drawn from the database itself.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if k <= 0:
        raise ValueError("k must be positive")
    candidates = matrix.shape[1] - (1 if exclude_self else 0)
    if k > candidates:
        raise ValueError(
            f"k={k} exceeds the {candidates} available candidates "
            f"({matrix.shape[1]} columns{', diagonal excluded' if exclude_self else ''})"
        )
    if exclude_self:
        matrix = matrix.copy()
        limit = min(matrix.shape)
        matrix[np.arange(limit), np.arange(limit)] = np.inf
    partition = np.argpartition(matrix, k - 1, axis=1)
    kth = np.take_along_axis(matrix, partition[:, k - 1:k], axis=1)
    picked = np.sort(partition[:, :k], axis=1)
    # Stable on index-sorted columns: (distance, index) order within the pick.
    order = np.argsort(np.take_along_axis(matrix, picked, axis=1), axis=1, kind="stable")
    top = np.take_along_axis(picked, order, axis=1)
    # The pick is exact iff exactly k columns are <= the k-th distance; a NaN
    # k-th distance counts zero, so it is redone too.
    redo = np.count_nonzero(matrix <= kth, axis=1) != k
    if redo.any():
        top[redo] = np.argsort(matrix[redo], axis=1, kind="stable")[:, :k]
    return top


def normalize_matrix(matrix: np.ndarray, method: str = "mean") -> np.ndarray:
    """Scale a distance matrix so the learning targets are well conditioned.

    ``"mean"`` divides by the mean off-diagonal distance, ``"max"`` by the maximum,
    and ``"none"`` returns a copy unchanged.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if method == "none":
        return matrix.copy()
    off_diagonal = matrix[~np.eye(matrix.shape[0], M=matrix.shape[1], dtype=bool)] \
        if matrix.shape[0] == matrix.shape[1] else matrix.ravel()
    if method == "mean":
        scale = off_diagonal.mean()
    elif method == "max":
        scale = off_diagonal.max()
    else:
        raise ValueError(f"unknown normalisation method '{method}'")
    if scale <= 0:
        return matrix.copy()
    return matrix / scale
