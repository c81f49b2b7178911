"""``knn_from_matrix`` is exactly the stable full sort, ties included.

The top-k is computed by partition plus a tie fix-up; these properties pin it to
``np.argsort(m, axis=1, kind="stable")[:, :k]`` (with the diagonal set to +inf
under ``exclude_self``) over heavy ties, NaN, ±inf, signed zeros and odd
memory layouts, and check that the caller's matrix is never written.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.distances import knn_from_matrix
from repro.eval import (euclidean_distance_matrix, evaluate_retrieval, hit_rate, ndcg,
                        per_query_hit_rate)
from repro.search import IVFEmbeddingIndex, embedding_topk

SETTINGS = dict(max_examples=200, deadline=None)

# Few distinct values, so ties straddle the k-th position on most rows.
VALUES = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, np.inf, -np.inf, np.nan])


def reference(matrix, k, exclude_self):
    working = np.array(matrix, dtype=np.float64)
    if exclude_self:
        limit = min(working.shape)
        working[np.arange(limit), np.arange(limit)] = np.inf
    return np.argsort(working, axis=1, kind="stable")[:, :k]


@st.composite
def cases(draw):
    exclude_self = draw(st.booleans())
    rows = draw(st.integers(0, 6))
    columns = draw(st.integers(2 if exclude_self else 1, 12))
    if exclude_self and draw(st.booleans()):
        rows = columns  # square: every row loses its diagonal
    matrix = draw(arrays(np.float64, (rows, columns), elements=VALUES))
    layout = draw(st.sampled_from(["c", "fortran", "strided"]))
    if layout == "fortran":
        matrix = np.asfortranarray(matrix)
    elif layout == "strided":
        wide = np.zeros((rows, 2 * columns))
        wide[:, ::2] = matrix
        matrix = wide[:, ::2]
    candidates = columns - (1 if exclude_self else 0)
    k = draw(st.sampled_from([1, candidates, draw(st.integers(1, candidates))]))
    return matrix, k, exclude_self


@given(cases())
@settings(**SETTINGS)
def test_knn_from_matrix_is_the_stable_full_sort(case):
    matrix, k, exclude_self = case
    before = matrix.copy()
    got = knn_from_matrix(matrix, k, exclude_self=exclude_self)
    np.testing.assert_array_equal(got, reference(matrix, k, exclude_self))
    np.testing.assert_array_equal(matrix, before)  # NaN-aware; never mutated


@given(arrays(np.int64, st.tuples(st.integers(1, 5), st.integers(1, 30)),
              elements=st.integers(0, 3)), st.data())
@settings(**SETTINGS)
def test_integer_matrices_with_heavy_ties(matrix, data):
    k = data.draw(st.integers(1, matrix.shape[1]))
    np.testing.assert_array_equal(knn_from_matrix(matrix, k), reference(matrix, k, False))


def test_edge_shapes():
    single = np.array([[np.nan], [3.0], [-0.0]])
    np.testing.assert_array_equal(knn_from_matrix(single, 1), [[0], [0], [0]])
    empty = knn_from_matrix(np.empty((0, 5)), 3)
    assert empty.shape == (0, 3)
    rectangular = np.zeros((5, 3))
    np.testing.assert_array_equal(knn_from_matrix(rectangular, 2, exclude_self=True),
                                  [[1, 2], [0, 2], [0, 1], [0, 1], [0, 1]])


def test_signed_zero_ties_keep_index_order():
    matrix = np.array([[0.0, -0.0, 1.0, 0.0, -0.0]])
    np.testing.assert_array_equal(knn_from_matrix(matrix, 3), [[0, 1, 3]])


def test_nan_kth_value_falls_back_to_the_full_sort():
    matrix = np.array([[np.nan, 2.0, np.nan, 1.0, np.nan]])
    np.testing.assert_array_equal(knn_from_matrix(matrix, 4), [[3, 1, 0, 2]])


def test_embedding_topk_with_a_duplicate_database_row():
    rng = np.random.default_rng(4)
    database = rng.normal(size=(30, 6))
    database[17] = database[5]  # exact duplicate: the two tie at every query
    queries = np.vstack([database[5] + 1e-3, rng.normal(size=(3, 6))])
    indices, distances = embedding_topk(queries, database, k=30)
    matrix = euclidean_distance_matrix(queries, database)
    np.testing.assert_array_equal(matrix[:, 5], matrix[:, 17])
    np.testing.assert_array_equal(indices, reference(matrix, 30, False))
    np.testing.assert_array_equal(indices[0, :2], [5, 17])
    for row in indices:
        assert np.flatnonzero(row == 17)[0] == np.flatnonzero(row == 5)[0] + 1
    np.testing.assert_array_equal(distances, np.take_along_axis(matrix, indices, axis=1))


def test_ivf_search_with_every_list_probed_is_exact():
    rng = np.random.default_rng(2)
    database = rng.integers(0, 3, size=(60, 3)).astype(float)  # many duplicate rows
    queries = rng.integers(0, 3, size=(5, 3)).astype(float)
    index = IVFEmbeddingIndex(database, num_lists=4, seed=0)
    approximate, _ = index.search(queries, k=7, nprobe=4)
    exact, _ = embedding_topk(queries, database, k=7)
    np.testing.assert_array_equal(approximate, exact)


def test_evaluate_retrieval_matches_the_per_cutoff_metrics():
    rng = np.random.default_rng(3)
    truth = rng.integers(0, 4, size=(25, 25)).astype(float)  # ties across cut-offs
    predicted = truth + rng.normal(scale=0.7, size=truth.shape)
    for exclude_self in (True, False):
        metrics = evaluate_retrieval(predicted, truth, hr_ks=(1, 5, 10, 50),
                                     ndcg_ks=(3, 10, 50), exclude_self=exclude_self)
        size = truth.shape[1] - (1 if exclude_self else 0)
        for k in (1, 5, 10, 50):
            assert metrics[f"hr@{k}"] == hit_rate(predicted, truth, min(k, size),
                                                  exclude_self)
        for k in (3, 10, 50):
            assert metrics[f"ndcg@{k}"] == ndcg(predicted, truth, min(k, size),
                                                exclude_self)
        rates = per_query_hit_rate(predicted, truth, 5, exclude_self)
        assert rates.mean() == pytest.approx(metrics["hr@5"])
    assert evaluate_retrieval(predicted, truth, hr_ks=(), ndcg_ks=()) == {}
