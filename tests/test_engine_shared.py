"""Shared-memory engine strategy: parity, arena lifecycle, pool robustness.

The contract under test: ``strategy="shared"`` produces **bit-identical**
results to the ``serial`` strategy for every registered measure (thresholds
and tie safety included), aggregates worker-side DP cell counts into the
parent, never leaks a shared-memory arena — even when a worker raises — and
survives a killed worker by restarting its persistent pool.
"""

import os
import signal
from multiprocessing import shared_memory

import numpy as np
import pytest

import repro.engine.shared as shared_module
from repro.data import generate_dataset
from repro.distances import knn_from_matrix
from repro.engine import (
    ArenaCache,
    CanonicalArrays,
    MatrixEngine,
    TrajectoryArena,
    as_canonical_arrays,
    get_shared_pool,
    live_arena_names,
    reset_shared_pool,
)
from repro.engine.executor import _point_arrays
from repro.engine.shared import unpack_views
from repro.obs import get_registry
from repro.search import TrajectoryIndex, knn_search

#: Every registered measure (kwargs included); spatio-temporal ones get a
#: time column via the ``temporal`` fixture.
MEASURES = [
    ("dtw", {}),
    ("dtw", {"band": 2}),
    ("erp", {}),
    ("edr", {"epsilon": 0.2}),
    ("lcss", {"epsilon": 0.2}),
    ("frechet", {}),
    ("hausdorff", {}),
    ("sspd", {}),
    ("dita", {}),
    ("tp", {}),
]
TEMPORAL = {"dita", "tp"}


def _boom(a, b):
    """Module-level (hence picklable) measure that always fails in a worker."""
    raise RuntimeError("intentional worker failure")


@pytest.fixture(scope="module")
def spatial():
    rng = np.random.default_rng(0)
    return [rng.random((int(rng.integers(3, 15)), 2)) for _ in range(12)]


@pytest.fixture(scope="module")
def temporal():
    rng = np.random.default_rng(1)
    trajectories = []
    for _ in range(12):
        points = rng.random((int(rng.integers(3, 12)), 3))
        points[:, 2] = np.sort(points[:, 2])
        trajectories.append(points)
    return trajectories


def serial_engine() -> MatrixEngine:
    return MatrixEngine(strategy="serial", cache=None)


def dp_cells() -> int:
    return get_registry().counter("engine.dp_cells").value


def shared_engine(**overrides) -> MatrixEngine:
    options = dict(strategy="shared", cache=None, chunk_size=4, max_workers=2)
    options.update(overrides)
    return MatrixEngine(**options)


class TestSharedParity:
    @pytest.mark.parametrize("measure,kwargs", MEASURES,
                             ids=[f"{m}-{sorted(k)}" if k else m for m, k in MEASURES])
    def test_pairwise_bitwise_identical_to_serial(self, measure, kwargs,
                                                  spatial, temporal):
        trajectories = temporal if measure in TEMPORAL else spatial
        expected = serial_engine().pairwise(trajectories, measure, **kwargs)
        actual = shared_engine().pairwise(trajectories, measure, **kwargs)
        np.testing.assert_array_equal(actual, expected)

    def test_cross_and_pairs_bitwise_identical(self, spatial):
        serial = serial_engine()
        engine = shared_engine()
        np.testing.assert_array_equal(
            engine.cross(spatial[:3], spatial[3:], "erp"),
            serial.cross(spatial[:3], spatial[3:], "erp"))
        list_a = [spatial[0]] * (len(spatial) - 1)
        list_b = spatial[1:]
        np.testing.assert_array_equal(engine.pairs(list_a, list_b, "dtw"),
                                      serial.pairs(list_a, list_b, "dtw"))

    def test_thresholds_abandon_soundness_and_survivor_parity(self, spatial):
        list_a = [spatial[0]] * (len(spatial) - 1)
        list_b = spatial[1:]
        exact = serial_engine().pairs(list_a, list_b, "dtw")
        taus = exact.copy()
        taus[::2] *= 0.5  # provably below the exact value → may abandon
        values = shared_engine().pairs(list_a, list_b, "dtw", thresholds=taus)
        finite = np.isfinite(values)
        np.testing.assert_array_equal(values[finite], exact[finite])
        assert np.all(exact[~finite] > taus[~finite])

    def test_exact_tie_thresholds_never_abandon(self, spatial):
        list_a = [spatial[0]] * (len(spatial) - 1)
        list_b = spatial[1:]
        exact = serial_engine().pairs(list_a, list_b, "dtw")
        # τ equal to the exact distance: abandoning requires *strictly* above.
        values = shared_engine().pairs(list_a, list_b, "dtw", thresholds=exact)
        np.testing.assert_array_equal(values, exact)

    def test_single_chunk_runs_in_process(self, spatial):
        engine = shared_engine(chunk_size=1024)
        engine.last_dispatch = None
        matrix = engine.pairwise(spatial, "dtw")
        assert engine.last_dispatch is None  # never dispatched to the pool
        np.testing.assert_array_equal(matrix, serial_engine().pairwise(spatial, "dtw"))


class TestCellAggregation:
    def test_worker_cells_fold_into_parent_counter(self, spatial):
        before = dp_cells()
        MatrixEngine(strategy="chunked", cache=None, chunk_size=4).pairwise(
            spatial, "dtw")
        chunked_cells = dp_cells() - before
        assert chunked_cells > 0

        before = dp_cells()
        shared_engine().pairwise(spatial, "dtw")
        assert dp_cells() - before == chunked_cells

    def test_dispatch_metadata_records_zero_copy_payload(self, spatial):
        engine = shared_engine()
        engine.pairwise(spatial, "dtw")
        dispatch = engine.last_dispatch
        assert dispatch["strategy"] == "shared" and dispatch["arena_bytes"] > 0

        # Pickling each pair's arrays would ship every trajectory once per
        # pair it appears in; the arena publishes it once.
        n = len(spatial)
        pickled = sum(spatial[i].nbytes + spatial[j].nbytes
                      for i in range(n) for j in range(i + 1, n))
        shipped = dispatch["payload_bytes"] + dispatch["arena_bytes"]
        assert pickled > shipped

    def test_overlapping_cross_sides_share_arena_slots(self, spatial):
        engine = shared_engine()
        np.testing.assert_array_equal(
            engine.cross(spatial[:4], spatial, "dtw"),
            serial_engine().cross(spatial[:4], spatial, "dtw"))
        # The four queries are database objects too: each is packed once.
        with TrajectoryArena(spatial) as distinct:
            assert engine.last_dispatch["arena_bytes"] == distinct.size

    def test_query_outside_pinned_arena_ships_once_per_chunk(self, spatial):
        cache = ArenaCache()
        entry = cache.pin(spatial)
        try:
            query = np.random.default_rng(3).random((6, 2))
            engine = shared_engine()
            np.testing.assert_array_equal(
                engine.pairs([query] * len(spatial), spatial, "dtw", arena=entry),
                serial_engine().pairs([query] * len(spatial), spatial, "dtw"))
            dispatch = engine.last_dispatch
            index_bytes = 2 * 8 * len(spatial)  # one int64 slot per side and pair
            assert dispatch["arena_reused"] and dispatch["arena_bytes"] == 0
            assert dispatch["payload_bytes"] == (
                index_bytes + dispatch["num_chunks"] * query.nbytes)
        finally:
            cache.unpin(entry)
            cache.clear()


class TestArena:
    def test_roundtrip_preserves_arrays_and_is_read_only(self, spatial, temporal):
        arrays = [np.ascontiguousarray(a) for a in spatial[:3] + temporal[:3]]
        arena = TrajectoryArena(arrays)
        try:
            attachment = shared_memory.SharedMemory(name=arena.name)
            views = unpack_views(attachment.buf)
            assert len(views) == len(arrays)
            for view, original in zip(views, arrays):
                np.testing.assert_array_equal(view, original)
                assert not view.flags.writeable
            del views
            attachment.close()
        finally:
            arena.close()

    def test_close_unlinks_and_is_idempotent(self, spatial):
        arena = TrajectoryArena(spatial[:2])
        name = arena.name
        assert name in live_arena_names()
        arena.close()
        arena.close()
        assert name not in live_arena_names()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_worker_exception_propagates_and_cleans_arena(self, spatial):
        engine = shared_engine(chunk_size=1)
        with pytest.raises(RuntimeError, match="intentional worker failure"):
            engine.pairwise(spatial, _boom)
        assert live_arena_names() == frozenset()


class TestPoolLifecycle:
    def test_pool_is_persistent_across_calls_and_engines(self, spatial):
        first = shared_engine()
        first.pairwise(spatial, "dtw")
        pool = get_shared_pool(first.max_workers)
        shared_engine().pairwise(spatial, "erp")
        assert get_shared_pool(first.max_workers) is pool

    def test_restart_after_killed_worker(self, spatial):
        engine = shared_engine()
        expected = serial_engine().pairwise(spatial, "dtw")
        before = dp_cells()
        np.testing.assert_array_equal(engine.pairwise(spatial, "dtw"), expected)
        clean_cells = dp_cells() - before
        pool = get_shared_pool(engine.max_workers)
        victim = next(iter(pool._processes))
        os.kill(victim, signal.SIGKILL)
        # The next dispatch hits BrokenProcessPool, resets the pool and retries.
        before = dp_cells()
        np.testing.assert_array_equal(engine.pairwise(spatial, "dtw"), expected)
        assert live_arena_names() == frozenset()
        # Chunks gathered before the breakage must not be double-counted: the
        # fold happens once, for the dispatch attempt that completed.
        assert dp_cells() - before == clean_cells

    def test_engine_close_releases_pool(self, spatial):
        engine = shared_engine()
        engine.pairwise(spatial, "dtw")
        assert engine.max_workers in shared_module._POOLS
        engine.close()
        assert engine.max_workers not in shared_module._POOLS
        # close() is not terminal: the next call lazily starts a fresh pool.
        np.testing.assert_array_equal(engine.pairwise(spatial, "dtw"),
                                      serial_engine().pairwise(spatial, "dtw"))


class TestCanonicalArrays:
    def test_point_arrays_passthrough(self, spatial):
        canonical = as_canonical_arrays(spatial)
        assert _point_arrays(canonical) is canonical
        assert as_canonical_arrays(canonical) is canonical
        assert all(actual is original
                   for actual, original in zip(canonical, spatial))

    def test_trajectory_index_holds_canonical_arrays(self, spatial):
        index = TrajectoryIndex(spatial)
        assert isinstance(index.arrays, CanonicalArrays)

    def test_knn_search_with_shared_engine_matches_matrix_route(self):
        dataset = generate_dataset("chengdu", size=16, seed=3)
        trajectories = dataset.point_arrays(spatial_only=True)
        engine = shared_engine()
        matrix = serial_engine().cross(trajectories, trajectories, "dtw")
        expected = knn_from_matrix(matrix, 3, exclude_self=True)
        index = TrajectoryIndex(trajectories)
        for query in range(4):
            result = knn_search(index, trajectories[query], 3, measure="dtw",
                                engine=engine, exclude=query)
            np.testing.assert_array_equal(result.indices, expected[query])
            np.testing.assert_array_equal(result.distances,
                                          matrix[query][result.indices])


@pytest.fixture(autouse=True, scope="module")
def _release_pools():
    """Drop the pools this module started so the suite exits promptly."""
    yield
    reset_shared_pool(2)
