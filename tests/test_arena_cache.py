"""Arena-cache lifecycle: content-addressed shared-memory reuse stays leak-free.

The contract under test (ISSUE 8): repeated work against the same database hits
the *same* shared-memory segment instead of re-packing per call; an index
mutation appends only the delta; eviction under a tight
``REPRO_ARENA_CACHE_BYTES`` budget unlinks segments; ``live_arena_names()``
drains to empty after ``clear()``/service shutdown; and a worker killed
mid-query never leaks a cached arena.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.engine import (
    ArenaCapacityError,
    MatrixEngine,
    TrajectoryArena,
    get_shared_pool,
    live_arena_names,
    reset_shared_pool,
)
from repro.engine.arena_cache import ArenaCache, get_arena_cache, reset_arena_cache
from repro.engine.executor import CanonicalArrays
from repro.engine.shared import unpack_views
from repro.search import SearchService, TrajectoryIndex, knn_search

def make_arrays(count: int = 10, seed: int = 0, length: int = 12) -> CanonicalArrays:
    rng = np.random.default_rng(seed)
    return CanonicalArrays(
        np.ascontiguousarray(rng.random((length, 2))) for _ in range(count))


def shared_engine(chunk_size: int = 4) -> MatrixEngine:
    return MatrixEngine(strategy="shared", chunk_size=chunk_size, max_workers=2)


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Every test starts from an empty cache and must leak no segments."""
    cache = reset_arena_cache()
    yield cache
    reset_arena_cache()
    assert live_arena_names() == frozenset()


@pytest.fixture(autouse=True, scope="module")
def _release_pools():
    yield
    reset_shared_pool(2)


class TestArenaAppend:
    def test_append_roundtrip_through_attached_views(self):
        arrays = list(make_arrays(4))
        extra = list(make_arrays(2, seed=9, length=7))
        arena = TrajectoryArena(arrays, reserve_slots=4,
                                reserve_bytes=sum(a.nbytes for a in extra))
        try:
            slots = arena.append(extra)
            np.testing.assert_array_equal(slots, [4, 5])
            views = unpack_views(arena._shm.buf)
            assert len(views) == 6
            for view, original in zip(views, arrays + extra):
                np.testing.assert_array_equal(view, original)
            del views  # release buffer exports before unlink
        finally:
            arena.close()

    def test_append_beyond_capacity_raises(self):
        arrays = list(make_arrays(3))
        arena = TrajectoryArena(arrays)  # no slack at all
        try:
            assert not arena.can_append(arrays[:1])
            with pytest.raises(ArenaCapacityError):
                arena.append(arrays[:1])
        finally:
            arena.close()


class TestArenaCache:
    def test_repeated_pin_hits_the_same_segment(self, _fresh_cache):
        cache = _fresh_cache
        arrays = make_arrays()
        first = cache.pin(arrays)
        second = cache.pin(arrays)
        assert second is first
        assert cache.hits == 1 and cache.misses == 1
        # One live segment for both pins — reuse, not re-pack.
        assert live_arena_names() == frozenset({first.name})
        cache.unpin(first)
        cache.unpin(second)
        assert live_arena_names() == frozenset({first.name})  # cached, still linked

    def test_mutation_appends_delta_instead_of_repacking(self, _fresh_cache):
        cache = _fresh_cache
        arrays = make_arrays()
        entry = cache.pin(arrays)
        cache.unpin(entry)
        grown = CanonicalArrays(list(arrays) + list(make_arrays(2, seed=5)))
        grown_entry = cache.pin(grown)
        assert grown_entry is entry  # same segment, delta appended
        assert cache.appends == 1 and cache.misses == 1
        assert all(entry.slot_of(a) is not None for a in grown)
        cache.unpin(grown_entry)

    def test_tight_budget_evicts_and_unlinks(self):
        arrays = make_arrays()
        probe = ArenaCache(max_bytes=1 << 30)
        entry = probe.pin(arrays)
        budget = entry.nbytes + 1024  # fits one arena, never two
        probe.unpin(entry)
        probe.clear()

        cache = reset_arena_cache(max_bytes=budget)
        first = cache.pin(arrays)
        first_name = first.name
        cache.unpin(first)
        other = cache.pin(make_arrays(seed=7))
        assert cache.evictions == 1
        assert first_name not in live_arena_names()
        with pytest.raises(FileNotFoundError):
            import multiprocessing.shared_memory as shm
            shm.SharedMemory(name=first_name)
        cache.unpin(other)

    def test_zero_budget_disables_caching(self):
        cache = reset_arena_cache(max_bytes=0)
        assert cache.pin(make_arrays()) is None
        assert live_arena_names() == frozenset()

    def test_oversized_database_is_not_cached(self):
        cache = reset_arena_cache(max_bytes=256)  # smaller than any real pack
        assert cache.pin(make_arrays()) is None
        assert len(cache) == 0 and live_arena_names() == frozenset()

    def test_doomed_pinned_entry_unlinks_at_last_unpin(self, _fresh_cache):
        cache = _fresh_cache
        arrays = make_arrays()
        entry = cache.pin(arrays)
        fingerprint = next(iter(entry.fingerprints))
        assert cache.evict(fingerprint) is False  # pinned: doomed, not unlinked
        assert entry.doomed and entry.name in live_arena_names()
        replacement = cache.pin(arrays)
        assert replacement is not entry  # doomed entries take no new pins
        cache.unpin(replacement)
        cache.unpin(entry)
        assert entry.name not in live_arena_names()

    def test_clear_drains_every_segment(self, _fresh_cache):
        cache = _fresh_cache
        for seed in range(3):
            cache.unpin(cache.pin(make_arrays(seed=seed)))
        assert len(cache) == 3 and len(live_arena_names()) == 3
        cache.clear()
        assert live_arena_names() == frozenset()


class TestEngineReuse:
    def test_packed_dispatch_is_bit_identical_and_reuses(self, _fresh_cache):
        cache = _fresh_cache
        db = make_arrays(count=24)
        query = np.ascontiguousarray(np.random.default_rng(3).random((12, 2)))
        engine = shared_engine()
        entry = cache.pin(db)
        reference = MatrixEngine(strategy="serial").pairs([query] * len(db),
                                                          list(db), "dtw")
        for _ in range(2):
            values = engine.pairs(CanonicalArrays([query] * len(db)), db, "dtw",
                                  arena=entry)
            np.testing.assert_array_equal(values, reference)
            assert engine.last_dispatch["arena_reused"] is True
            assert engine.last_dispatch["arena_bytes"] == 0  # nothing re-published
        # The query is not in the arena: it rides along as a pickled extra.
        assert entry.slot_of(query) is None
        cache.unpin(entry)

    def test_knn_auto_pins_process_cache(self, _fresh_cache):
        cache = _fresh_cache
        trajectories = [np.random.default_rng(i).random((10, 2)) for i in range(20)]
        index = TrajectoryIndex(trajectories)
        engine = shared_engine(chunk_size=4)
        serial = MatrixEngine(strategy="serial")
        expected = knn_search(TrajectoryIndex(trajectories), trajectories[0], 5,
                              engine=serial, exclude=0, arena=False)
        # batch_size > chunk_size: refinement dispatches, so knn pins the cache.
        result = knn_search(index, trajectories[0], 5, engine=engine, exclude=0,
                            batch_size=16)
        assert cache.misses == 1 and len(cache) == 1
        again = knn_search(index, trajectories[1], 5, engine=engine, exclude=1,
                           batch_size=16)
        assert cache.hits == 1
        np.testing.assert_array_equal(result.indices, expected.indices)
        np.testing.assert_array_equal(result.distances, expected.distances)
        assert again.stats.num_refined > 0
        # arena=False opts out: no new entries, results unchanged.
        opted_out = knn_search(index, trajectories[0], 5, engine=engine, exclude=0,
                               batch_size=16, arena=False)
        np.testing.assert_array_equal(opted_out.indices, expected.indices)
        assert cache.misses == 1

    def test_knn_skips_pinning_when_dispatch_cannot_happen(self, _fresh_cache):
        cache = _fresh_cache
        trajectories = [np.random.default_rng(i).random((10, 2)) for i in range(12)]
        index = TrajectoryIndex(trajectories)
        # Default batch_size (8) <= chunk_size: single-chunk batches never
        # leave the process, so pinning would only cost fingerprint hashing.
        knn_search(index, trajectories[0], 3, engine=shared_engine(chunk_size=128),
                   exclude=0)
        assert len(cache) == 0 and cache.misses == 0


class TestServiceLifecycle:
    def test_service_reuses_across_flushes_and_drains_on_close(self, _fresh_cache):
        cache = _fresh_cache
        trajectories = [np.random.default_rng(i).random((10, 2)) for i in range(20)]
        with SearchService(trajectories, k=3, engine=shared_engine(chunk_size=4),
                           refine_batch_size=16, cache_entries=0) as service:
            service.search(trajectories[0], exclude=0)
            service.search(trajectories[1], exclude=1)
            assert cache.misses == 1 and cache.hits == 1
            assert len(live_arena_names()) == 1
        assert live_arena_names() == frozenset()

    def test_worker_death_mid_query_leaks_nothing(self, _fresh_cache):
        """SIGKILLing a pool worker triggers the retry; the pinned cached arena
        survives the retry and the service close still drains every segment."""
        cache = _fresh_cache
        trajectories = [np.random.default_rng(i).random((10, 2)) for i in range(20)]
        engine = shared_engine(chunk_size=4)
        service = SearchService(trajectories, k=3, engine=engine,
                                refine_batch_size=16, cache_entries=0)
        expected = service.search(trajectories[0], exclude=0)
        pool = get_shared_pool(engine.max_workers)
        victim = next(iter(pool._processes))
        os.kill(victim, signal.SIGKILL)
        result = service.search(trajectories[1], exclude=1)
        reference = knn_search(TrajectoryIndex(trajectories), trajectories[1], 3,
                               engine=MatrixEngine(strategy="serial"), exclude=1,
                               arena=False)
        np.testing.assert_array_equal(result.indices, reference.indices)
        np.testing.assert_array_equal(result.distances, reference.distances)
        assert len(expected.indices) == 3
        assert len(live_arena_names()) == 1  # the cached arena, still intact
        service.close()
        assert live_arena_names() == frozenset()

    def test_efficiency_probe_reports_arena_traffic_and_stays_clean(self):
        from repro.eval import search_latency

        trajectories = [np.random.default_rng(i).random((10, 2)) for i in range(16)]
        result = search_latency(trajectories, trajectories[:2], k=3, repeats=2,
                                engine=shared_engine(chunk_size=4),
                                exclude_self=True)
        assert result["arena_hits"] + result["arena_misses"] >= 0
        assert result["index_shards"] >= 1
        assert live_arena_names() == frozenset()
