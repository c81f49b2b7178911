"""Exact-search parity, index behaviour and the engine pair-refinement primitive.

The headline guarantee: ``knn_search`` returns exactly ``knn_from_matrix``'s
neighbours — same indices, same order, same tie-breaking — for every registered
measure at several k, while refining only a subset of candidates.  DTW reaches
that answer through its lower-bound cascade (endpoints, row envelope, full
bound), so the property tests vary the refinement batch size, k and the
excluded ids over degenerate and route-clustered fleets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import BoundingBox, generate_dataset
from repro.distances import (available_distances, cross_distance_matrix, get_distance,
                             knn_from_matrix)
from repro.engine import MatrixEngine
from repro.obs import get_registry
from repro.search import SearchStats, TrajectoryIndex, filter_stages, knn_search
from repro.search import bounds as bounds_module
from test_search_bounds import MEASURE_KWARGS as BOUND_KWARGS, degenerate_fleets

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


# ------------------------------------------------------------------- the cascade
ENGINE = MatrixEngine(cache=None)


def assert_knn_matches_matrix(data, arrays, queries, measure, kwargs):
    """``knn_search`` equals ``knn_from_matrix`` over ``engine.cross`` for a
    drawn batch size, k and excluded id (or none)."""
    index = TrajectoryIndex(arrays)
    matrix = ENGINE.cross(queries, arrays, measure, **kwargs)
    for row, query in enumerate(queries):
        exclude = (data.draw(st.none() | st.integers(0, len(arrays) - 1), "exclude")
                   if len(arrays) > 1 else None)
        k = data.draw(st.integers(1, len(arrays) - (exclude is not None)), "k")
        batch_size = data.draw(st.sampled_from([1, 2, 8, len(arrays) + 1]), "batch")
        distances = matrix[row].copy()
        if exclude is not None:
            distances[exclude] = np.inf
        expected = knn_from_matrix(distances[None, :], k)[0]
        result = knn_search(index, query, k, measure=measure, engine=ENGINE,
                            batch_size=batch_size, exclude=exclude, **kwargs)
        np.testing.assert_array_equal(result.indices, expected)
        np.testing.assert_array_equal(result.distances, distances[expected])


@pytest.mark.parametrize("measure", sorted(available_distances()))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_cascade_matches_knn_from_matrix_on_degenerate_fleets(measure, data):
    query, fleet = data.draw(degenerate_fleets(measure in SPATIOTEMPORAL))
    kwargs = data.draw(st.sampled_from(BOUND_KWARGS[measure]))
    assert_knn_matches_matrix(data, fleet, [query, fleet[0]], measure, kwargs)


@pytest.mark.parametrize("measure", sorted(available_distances()))
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_cascade_matches_knn_from_matrix_on_city_fleets(measure, data):
    timed = measure in SPATIOTEMPORAL
    dataset = generate_dataset("chengdu", size=data.draw(st.integers(10, 24), "size"),
                               seed=data.draw(st.integers(0, 2**16), "seed"),
                               with_time=timed or None)
    arrays = dataset.point_arrays(spatial_only=not timed)
    kwargs = data.draw(st.sampled_from(BOUND_KWARGS[measure]))
    assert_knn_matches_matrix(data, arrays, arrays[:2], measure, kwargs)


@pytest.mark.parametrize("measure,query,tied,other", [
    ("frechet", [[0.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]]),
    ("dtw", [[0.0, 0.0]] * 3, [[0.5, 0.0], [0.0, 0.0], [0.5, 0.0]],
     [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]),
], ids=["frechet", "dtw"])
def test_bound_one_ulp_above_a_tie_with_tau_is_refined(measure, query, tied, other,
                                                       monkeypatch):
    """Bounds may exceed the exact distance by a few ulps.  Candidate 0 ties
    the k-th distance τ exactly and wins the tie on id, but its bound sits
    one ulp above τ: pruning at τ itself would lose it, so search prunes at
    the kernels' padded cutoff.  For DTW, far candidates with zero endpoint
    bounds push candidate 0 out of the seeding head and through the stages."""
    query, tied, other = np.array(query), np.array(tied), np.array(other)
    distance = get_distance(measure)
    exact = distance(query, tied)
    assert exact == distance(query, other)
    far = [np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 0.0]])] * 4 * (measure == "dtw")
    arrays = [tied, other] + far

    def inflated(query, stacked, query_summary, **kwargs):
        is_tied = (stacked.firsts == tied[0]).all(axis=1)
        return np.where(is_tied, np.nextafter(exact, np.inf), 0.0)

    monkeypatch.setitem(bounds_module._BATCH_LOWER_BOUNDS, measure, inflated)
    expected = knn_from_matrix(ENGINE.cross([query], arrays, measure), 1)[0]
    assert expected.tolist() == [0]
    result = knn_search(arrays, query, 1, measure=measure, engine=ENGINE, batch_size=1)
    np.testing.assert_array_equal(result.indices, expected)


def _cascade_counts() -> dict[str, int]:
    counters = get_registry().snapshot()["counters"]
    return {name: value for name, value in counters.items()
            if name.startswith("search.cascade.")}


@pytest.mark.parametrize("batch_size", [1, 16])
def test_cascade_stages_go_through_the_index_and_count(spatial, batch_size):
    """Every stage is scored through ``TrajectoryIndex.lower_bounds`` (what
    tracing wraps), and each stage takes exactly the survivors of the last."""
    index = TrajectoryIndex(spatial)
    stages = []
    scored = index.lower_bounds

    def recording(query, measure, ids=None, stage=None, **kwargs):
        stages.append(stage)
        return scored(query, measure, ids=ids, stage=stage, **kwargs)

    index.lower_bounds = recording
    before = _cascade_counts()
    result = knn_search(index, spatial[0], 3, measure="dtw", exclude=0,
                        batch_size=batch_size)
    counts = {name: value - before.get(name, 0)
              for name, value in _cascade_counts().items()}
    assert set(stages) == {*filter_stages("dtw"), None}
    assert counts["search.cascade.endpoints.out"] == counts["search.cascade.rows.in"]
    assert counts["search.cascade.rows.out"] <= counts["search.cascade.full.in"]
    for stage in ("endpoints", "rows", "full"):
        assert (counts[f"search.cascade.{stage}.out"]
                <= counts[f"search.cascade.{stage}.in"])
    assert result.stats.num_refined + result.stats.num_pruned == len(spatial) - 1
