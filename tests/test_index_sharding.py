"""Sharded, mutable TrajectoryIndex: parity with the monolithic semantics.

Two families of guarantees.  *Query parity*: ``lower_bounds``,
``cell_candidates`` and ``range_query`` fan out across shards but must produce
exactly the values a naive single-pass implementation produces.  *Mutation
parity*: an index reached through ``insert``/``evict`` must be
indistinguishable — fingerprint, query results, ``knn_search`` output — from an
index built fresh over the same content, while the generation counter makes the
mutated index impossible to confuse with its past self.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import BoundingBox, generate_dataset
from repro.engine import MatrixEngine
from repro.obs import counter
from repro.search import TrajectoryIndex, knn_search
from repro.search.bounds import (StackedSummaries, TrajectorySummary,
                                 get_batch_lower_bound)

MEASURES = ["dtw", "hausdorff", "sspd"]


@pytest.fixture(scope="module")
def spatial():
    dataset = generate_dataset("chengdu", size=40, seed=3)
    return dataset.point_arrays(spatial_only=True)


def reference_lower_bounds(index, query, measure, **kwargs):
    """The pre-sharding algorithm, both ways: one stack over the whole index,
    and a per-pair loop scoring each trajectory in a stack of its own."""
    bound = get_batch_lower_bound(measure)
    query_summary = TrajectorySummary.of(query)
    whole = bound(query, StackedSummaries.of(index.arrays, index.summaries),
                  query_summary, **kwargs)
    per_pair = np.concatenate([
        bound(query, StackedSummaries.of([index.arrays[i]], [index.summaries[i]]),
              query_summary, **kwargs)
        for i in range(len(index))])
    return whole, per_pair


def reference_cell_candidates(index, query, include_all):
    """The pre-sharding algorithm: one Python loop accumulating overlaps."""
    query_cells = set(index._tokens(np.asarray(query, dtype=np.float64)))
    overlap = np.zeros(len(index), dtype=np.int64)
    for trajectory_id in range(len(index)):
        cells = set(index._tokens(index.arrays[trajectory_id]))
        overlap[trajectory_id] = len(cells & query_cells)
    order = np.argsort(-overlap, kind="stable")
    return order if include_all else order[overlap[order] > 0]


def reference_range_query(index, box):
    hits = [i for i, s in enumerate(index.summaries)
            if (s.mins[0] <= box.max_lon and s.maxs[0] >= box.min_lon
                and s.mins[1] <= box.max_lat and s.maxs[1] >= box.min_lat)]
    return np.asarray(hits, dtype=np.int64)


class TestQueryParity:
    @pytest.mark.parametrize("measure", MEASURES)
    def test_lower_bounds_match_per_pair_loop(self, spatial, measure):
        index = TrajectoryIndex(spatial, shard_columns=4, shard_rows=4)
        assert index.num_shards > 1  # otherwise the fan-out is vacuous
        for query in spatial[:3]:
            got = index.lower_bounds(query, measure)
            for expected in reference_lower_bounds(index, query, measure):
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_lower_bounds_banded_dtw_matches_loop(self, spatial):
        index = TrajectoryIndex(spatial, shard_columns=4, shard_rows=4)
        assert index.num_shards > 1
        query = spatial[0]
        got = index.lower_bounds(query, "dtw", band=0.2)
        for expected in reference_lower_bounds(index, query, "dtw", band=0.2):
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("spatial_index", ["grid", "quadtree"])
    @pytest.mark.parametrize("include_all", [False, True])
    def test_cell_candidates_match_loop(self, spatial, spatial_index, include_all):
        index = TrajectoryIndex(spatial, spatial_index=spatial_index)
        for query in spatial[:3]:
            np.testing.assert_array_equal(
                index.cell_candidates(query, include_all=include_all),
                reference_cell_candidates(index, query, include_all))

    def test_range_query_matches_loop_and_skips_far_shards(self, spatial):
        index = TrajectoryIndex(spatial, shard_columns=4, shard_rows=4)
        box = index.bounding_box
        mid_lon = (box.min_lon + box.max_lon) / 2
        mid_lat = (box.min_lat + box.max_lat) / 2
        queries = [
            BoundingBox(box.min_lon, box.min_lat, mid_lon, mid_lat),  # one quadrant
            BoundingBox(mid_lon, mid_lat, box.max_lon, box.max_lat),
            box,                                                      # everything
            BoundingBox(box.max_lon + 1, box.max_lat + 1,
                        box.max_lon + 2, box.max_lat + 2),            # nothing
        ]
        skipped = counter("index.range_shards_skipped")
        before = skipped.value
        for query_box in queries:
            np.testing.assert_array_equal(index.range_query(query_box),
                                          reference_range_query(index, query_box))
        assert skipped.value > before  # the corner boxes pruned whole shards

    def test_shard_stats_cover_every_member(self, spatial):
        index = TrajectoryIndex(spatial, shard_columns=4, shard_rows=4)
        stats = index.shard_stats()
        assert sum(entry["size"] for entry in stats) == len(index)
        assert len({entry["key"] for entry in stats}) == index.num_shards


class TestMutationParity:
    def test_insert_matches_fresh_build(self, spatial):
        index = TrajectoryIndex(spatial[:30])
        new_ids = index.insert(spatial[30:])
        np.testing.assert_array_equal(new_ids, np.arange(30, 40))
        fresh = TrajectoryIndex(spatial)
        assert index.fingerprint == fresh.fingerprint
        assert index.generation == 1
        engine = MatrixEngine(cache=None)
        for query_id in (0, 35):
            mutated = knn_search(index, spatial[query_id], 5, engine=engine,
                                 exclude=query_id)
            rebuilt = knn_search(fresh, spatial[query_id], 5, engine=engine,
                                 exclude=query_id)
            np.testing.assert_array_equal(mutated.indices, rebuilt.indices)
            np.testing.assert_array_equal(mutated.distances, rebuilt.distances)

    def test_evict_matches_fresh_build_and_renumbers(self, spatial):
        index = TrajectoryIndex(spatial)
        removed = index.evict([0, 7, 39])
        assert removed == 3 and len(index) == 37
        survivors = [points for i, points in enumerate(spatial)
                     if i not in (0, 7, 39)]
        fresh = TrajectoryIndex(survivors)
        assert index.fingerprint == fresh.fingerprint
        # Dense renumbering: old id 8 is new id 6 (two lower ids evicted).
        np.testing.assert_array_equal(index.arrays[6], spatial[8])
        engine = MatrixEngine(cache=None)
        mutated = knn_search(index, survivors[3], 5, engine=engine, exclude=3)
        rebuilt = knn_search(fresh, survivors[3], 5, engine=engine, exclude=3)
        np.testing.assert_array_equal(mutated.indices, rebuilt.indices)
        np.testing.assert_array_equal(mutated.distances, rebuilt.distances)

    def test_insert_evict_roundtrip_restores_fingerprint(self, spatial):
        index = TrajectoryIndex(spatial[:20])
        original = index.fingerprint
        ids = index.insert(spatial[20:25])
        assert index.fingerprint != original
        index.evict(ids)
        assert index.fingerprint == original
        assert index.generation == 2  # content round-tripped, history did not

    def test_queries_cover_inserted_members(self, spatial):
        index = TrajectoryIndex(spatial[:30], shard_columns=4, shard_rows=4)
        index.lower_bounds(spatial[0], "dtw")  # build the lazies, then mutate
        index.cell_candidates(spatial[0], include_all=True)
        index.insert(spatial[30:])
        query = spatial[35]
        bounds = index.lower_bounds(query, "dtw")
        assert bounds.shape == (40,)
        for expected in reference_lower_bounds(index, query, "dtw"):
            np.testing.assert_allclose(bounds, expected, rtol=0, atol=1e-12)
        candidates = index.cell_candidates(query, include_all=True)
        np.testing.assert_array_equal(np.sort(candidates), np.arange(40))
        np.testing.assert_array_equal(
            index.range_query(index.bounding_box), np.arange(40))

    @pytest.mark.parametrize("spatial_index", ["grid", "quadtree"])
    def test_cell_candidates_after_mutation(self, spatial, spatial_index):
        """The quadtree tokeniser is structure-dependent: a mutation rebuilds it
        and every shard's inverted cells; results must still match the loop."""
        index = TrajectoryIndex(spatial[:30], spatial_index=spatial_index)
        index.cell_candidates(spatial[0])  # force-build pre-mutation cells
        index.insert(spatial[30:])
        index.evict([2, 11])
        for query in spatial[:2]:
            np.testing.assert_array_equal(
                index.cell_candidates(query, include_all=True),
                reference_cell_candidates(index, query, True))

    def test_fingerprint_memoized_per_generation(self, spatial):
        index = TrajectoryIndex(spatial[:10])
        assert index.fingerprint is index.fingerprint  # same generation: cached
        before = index.fingerprint
        index.insert(spatial[10:12])
        assert index.fingerprint != before

    def test_evict_validation(self, spatial):
        index = TrajectoryIndex(spatial[:10])
        with pytest.raises(IndexError):
            index.evict([10])
        with pytest.raises(IndexError):
            index.evict([-1])
        with pytest.raises(ValueError):
            index.evict(np.arange(10))
        assert index.evict([]) == 0
        assert index.generation == 0  # rejected/empty mutations leave no trace

    def test_empty_insert_is_a_no_op(self, spatial):
        index = TrajectoryIndex(spatial[:10])
        ids = index.insert([])
        assert ids.size == 0 and index.generation == 0


class TestUpdate:
    def test_update_matches_fresh_build(self, spatial):
        index = TrajectoryIndex(spatial[:20], shard_columns=4, shard_rows=4)
        index.lower_bounds(spatial[0], "dtw")  # build the lazies, then mutate
        replacements = {3: spatial[25], 7: spatial[30], 15: spatial[35]}
        index.update(list(replacements), list(replacements.values()))
        contents = list(spatial[:20])
        for trajectory_id, points in replacements.items():
            contents[trajectory_id] = points
        fresh = TrajectoryIndex(contents, shard_columns=4, shard_rows=4)
        assert index.fingerprint == fresh.fingerprint
        query = spatial[21]
        np.testing.assert_allclose(index.lower_bounds(query, "dtw"),
                                   fresh.lower_bounds(query, "dtw"),
                                   rtol=0, atol=0)
        box = BoundingBox(0.2, 0.2, 1.4, 1.4)
        np.testing.assert_array_equal(index.range_query(box),
                                      fresh.range_query(box))
        np.testing.assert_array_equal(
            np.sort(index.cell_candidates(query, include_all=True)),
            np.arange(20))

    def test_update_is_one_generation_bump(self, spatial):
        """The whole batch — including shard migrations — costs one bump."""
        index = TrajectoryIndex(spatial[:20], shard_columns=4, shard_rows=4)
        generation = index.generation
        # Replace with far-apart contents so at least one centroid migrates.
        index.update([0, 1, 2], [spatial[30], spatial[31], spatial[32]])
        assert index.generation == generation + 1

    def test_update_validation(self, spatial):
        index = TrajectoryIndex(spatial[:10])
        with pytest.raises(ValueError):
            index.update([0, 1], [spatial[10]])
        with pytest.raises(ValueError):
            index.update([2, 2], [spatial[10], spatial[11]])
        with pytest.raises(IndexError):
            index.update([10], [spatial[10]])
        with pytest.raises(IndexError):
            index.update([-1], [spatial[10]])
        index.update([], [])
        assert index.generation == 0  # rejected/empty updates leave no trace


def _poisoned(points, value):
    bad = points.copy()
    bad[1, 0] = value
    return bad


def _snapshot(index):
    return (len(index), index.generation, index.fingerprint,
            [array.tobytes() for array in index.arrays],
            sorted((key, shard.members.tolist())
                   for key, shard in index._shards.items()))


class TestNonFiniteInput:
    """A rejected write leaves the index exactly as it was; a non-finite
    query never reaches the bounds or the kernels."""

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_failed_insert_leaves_the_index_unchanged(self, spatial, value):
        index = TrajectoryIndex(spatial[:10])
        before = _snapshot(index)
        with pytest.raises(ValueError, match="trajectory 1 passed to insert"):
            index.insert([spatial[10], _poisoned(spatial[11], value)])
        assert _snapshot(index) == before
        result = knn_search(index, spatial[12], 3, engine=MatrixEngine(cache=None))
        assert np.isfinite(result.distances).all()
        assert result.indices.max() < 10

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_failed_update_leaves_the_index_unchanged(self, spatial, value):
        index = TrajectoryIndex(spatial[:10])
        before = _snapshot(index)
        with pytest.raises(ValueError, match="trajectory 1 passed to update"):
            index.update([0, 3], [spatial[20], _poisoned(spatial[21], value)])
        assert _snapshot(index) == before

    def test_constructor_names_the_trajectory(self, spatial):
        with pytest.raises(ValueError, match="trajectory 2 to index"):
            TrajectoryIndex([spatial[0], spatial[1], _poisoned(spatial[2], np.nan)])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_knn_search_rejects_a_non_finite_query(self, spatial, value):
        index = TrajectoryIndex(spatial[:10])
        with pytest.raises(ValueError, match="query points contain non-finite"):
            knn_search(index, _poisoned(spatial[12], value), 3,
                       engine=MatrixEngine(cache=None))
