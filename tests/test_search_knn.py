"""Exact-search parity, index behaviour and the engine pair-refinement primitive.

The headline guarantee: ``knn_search`` returns exactly ``knn_from_matrix``'s
neighbours — same indices, same order, same tie-breaking — for every registered
measure at several k, while refining only a subset of candidates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import BoundingBox, generate_dataset
from repro.distances import cross_distance_matrix, knn_from_matrix
from repro.engine import MatrixEngine
from repro.search import SearchStats, TrajectoryIndex, knn_search

SPATIOTEMPORAL = {"tp", "dita"}
MEASURE_KWARGS = {"edr": {"epsilon": 0.25}, "lcss": {"epsilon": 0.25}}


@pytest.fixture(scope="module")
def city():
    dataset = generate_dataset("chengdu", size=30, seed=1, with_time=True)
    return dataset.point_arrays(spatial_only=False)


@pytest.fixture(scope="module")
def spatial(city):
    return [points[:, :2] for points in city]


@pytest.mark.parametrize("measure", ["dtw", "erp", "edr", "lcss", "hausdorff",
                                     "frechet", "sspd", "tp", "dita"])
@pytest.mark.parametrize("k", [1, 3, 7])
def test_knn_search_matches_knn_from_matrix(city, spatial, measure, k):
    arrays = city if measure in SPATIOTEMPORAL else spatial
    kwargs = MEASURE_KWARGS.get(measure, {})
    engine = MatrixEngine(cache=None)
    index = TrajectoryIndex(arrays)
    num_queries = 4
    matrix = engine.cross(arrays[:num_queries], arrays, measure, **kwargs)
    expected = knn_from_matrix(matrix, k, exclude_self=True)
    for query in range(num_queries):
        result = knn_search(index, arrays[query], k, measure=measure, engine=engine,
                            exclude=query, **kwargs)
        np.testing.assert_array_equal(result.indices, expected[query])
        np.testing.assert_allclose(result.distances, matrix[query][result.indices],
                                   rtol=0, atol=1e-9)
        assert result.stats.num_refined + result.stats.num_pruned == len(arrays) - 1


@pytest.fixture(scope="module")
def mixed(city):
    """The city fleet with every other trajectory cut to (lon, lat) only."""
    return [points if position % 2 else points[:, :2].copy()
            for position, points in enumerate(city)]


@pytest.mark.parametrize("measure", ["dtw", "hausdorff", "edr"])
def test_knn_search_over_mixed_widths_matches_knn_from_matrix(mixed, measure):
    """Shards mixing 2-D and 3-D members stack at their common width."""
    kwargs = MEASURE_KWARGS.get(measure, {})
    engine = MatrixEngine(cache=None)
    index = TrajectoryIndex(mixed, shard_columns=3, shard_rows=3)
    matrix = engine.cross(mixed[:4], mixed, measure, **kwargs)
    expected = knn_from_matrix(matrix, 5, exclude_self=True)
    for query in range(4):
        result = knn_search(index, mixed[query], 5, measure=measure, engine=engine,
                            exclude=query, **kwargs)
        np.testing.assert_array_equal(result.indices, expected[query])
        np.testing.assert_allclose(result.distances, matrix[query][result.indices],
                                   rtol=0, atol=1e-9)


@pytest.mark.parametrize("measure", sorted(SPATIOTEMPORAL))
def test_knn_search_over_mixed_widths_refuses_temporal_measures(mixed, measure):
    with pytest.raises(ValueError, match="time column"):
        knn_search(TrajectoryIndex(mixed), mixed[1], 3, measure=measure)


def test_knn_search_prunes(spatial):
    """On route-clustered data the lower bounds must actually skip refinements."""
    dataset = generate_dataset("chengdu", size=80, seed=2)
    arrays = dataset.point_arrays(spatial_only=True)
    index = TrajectoryIndex(arrays)
    result = knn_search(index, arrays[0], 5, measure="dtw", exclude=0, batch_size=4)
    assert result.stats.num_pruned > 0
    assert result.stats.pruned_fraction > 0.0
    assert result.stats.num_batches >= 1
    assert result.stats.refine_seconds >= 0.0


def test_knn_search_tie_breaking_matches_stable_argsort():
    base = np.array([[0.0, 0.0], [1.0, 0.0]])
    far = np.array([[5.0, 5.0], [6.0, 5.0]])
    # Duplicates produce exact distance ties; parity requires ascending-index order.
    arrays = [base, far.copy(), base.copy(), far.copy(), base.copy()]
    query = base + 0.01
    matrix = cross_distance_matrix([query], arrays, "dtw")
    expected = knn_from_matrix(matrix, 4)
    result = knn_search(arrays, query, 4, measure="dtw")
    np.testing.assert_array_equal(result.indices, expected[0])
    assert result.indices.tolist()[:2] == [0, 2]  # tied duplicates, lowest index first


def test_knn_from_matrix_tie_breaking_is_documented_and_stable():
    matrix = np.array([[3.0, 1.0, 1.0, 2.0, 1.0]])
    np.testing.assert_array_equal(knn_from_matrix(matrix, 4)[0], [1, 2, 4, 3])


def test_knn_search_k_and_exclude_validation(spatial):
    index = TrajectoryIndex(spatial[:5])
    with pytest.raises(ValueError):
        knn_search(index, spatial[0], 0, measure="dtw")
    with pytest.raises(ValueError):
        knn_search(index, spatial[0], 5, measure="dtw", exclude=0)
    with pytest.raises(ValueError):
        knn_search(index, spatial[0], 3, measure="dtw", batch_size=0)
    result = knn_search(index, spatial[0], 4, measure="dtw", exclude=0)
    assert 0 not in result.indices
    result = knn_search(index, spatial[0], 3, measure="dtw", exclude=[0, 1])
    assert not {0, 1} & set(result.indices.tolist())


def test_knn_search_accepts_raw_sequences_and_batch_sizes(spatial):
    expected = knn_search(TrajectoryIndex(spatial), spatial[3], 5, measure="dtw",
                          exclude=3).indices
    for batch_size in (1, 3, 64):
        result = knn_search(spatial, spatial[3], 5, measure="dtw", exclude=3,
                            batch_size=batch_size)
        np.testing.assert_array_equal(result.indices, expected)


def test_search_stats_merge_and_dict():
    first = SearchStats(num_database=10, num_candidates=9, num_refined=4,
                        num_pruned=5, num_batches=1)
    second = SearchStats(num_database=10, num_candidates=9, num_refined=6,
                         num_pruned=3, num_batches=2)
    first.merge(second)
    assert first.num_refined == 10 and first.num_pruned == 8
    report = first.as_dict()
    assert report["pruned_fraction"] == pytest.approx(8 / 18)
    assert SearchStats().pruned_fraction == 0.0


def test_engine_pairs_matches_reference(spatial):
    engine = MatrixEngine(cache=None)
    reference = MatrixEngine(strategy="serial", use_kernels=False, cache=None)
    list_a = spatial[:6]
    list_b = spatial[6:12]
    np.testing.assert_allclose(engine.pairs(list_a, list_b, "dtw"),
                               reference.pairs(list_a, list_b, "dtw"), atol=1e-9)
    assert engine.pairs([], [], "dtw").shape == (0,)
    with pytest.raises(ValueError):
        engine.pairs(list_a, list_b[:-1], "dtw")


# ---------------------------------------------------------------------- the index
def test_index_summaries_and_fingerprint(spatial):
    index = TrajectoryIndex(spatial)
    assert len(index) == len(spatial)
    assert index.summary(0).length == len(spatial[0])
    assert index.fingerprint == TrajectoryIndex(spatial).fingerprint
    assert index.fingerprint != TrajectoryIndex(spatial[:-1]).fingerprint
    assert "grid" in repr(index)


def test_index_cell_candidates_rank_overlapping_first(spatial):
    index = TrajectoryIndex(spatial)
    ranked = index.cell_candidates(spatial[0])
    assert 0 < len(ranked) <= len(spatial)
    assert 0 in ranked  # the trajectory overlaps its own cells
    full = index.cell_candidates(spatial[0], include_all=True)
    assert len(full) == len(spatial)
    assert sorted(full.tolist()) == list(range(len(spatial)))


def test_index_range_query(spatial):
    index = TrajectoryIndex(spatial)
    everything = index.range_query(index.bounding_box)
    assert everything.tolist() == list(range(len(spatial)))
    empty = index.range_query(BoundingBox(99.0, 99.0, 100.0, 100.0))
    assert len(empty) == 0


def test_index_quadtree_backend_matches_grid_for_search(spatial):
    grid_index = TrajectoryIndex(spatial, spatial_index="grid")
    tree_index = TrajectoryIndex(spatial, spatial_index="quadtree")
    expected = knn_search(grid_index, spatial[1], 5, measure="hausdorff",
                          exclude=1).indices
    actual = knn_search(tree_index, spatial[1], 5, measure="hausdorff",
                        exclude=1).indices
    np.testing.assert_array_equal(actual, expected)
    with pytest.raises(ValueError):
        TrajectoryIndex(spatial, spatial_index="rtree")
    with pytest.raises(ValueError):
        TrajectoryIndex([])


def test_index_lower_bounds_vector(spatial):
    index = TrajectoryIndex(spatial)
    bounds = index.lower_bounds(spatial[0], "dtw")
    assert bounds.shape == (len(spatial),)
    assert bounds[0] == pytest.approx(0.0)  # the query itself
    assert index.lower_bounds(spatial[0], "unregistered-measure").max() == 0.0
