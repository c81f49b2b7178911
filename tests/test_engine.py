"""Unit tests for the compute engine: strategies, cache, sampling and kNN guards."""

import math

import numpy as np
import pytest

import repro.engine.executor as executor_module
from repro import distances as D
from repro.config import EnvError
from repro.engine import (
    MatrixCache,
    MatrixEngine,
    cache_key,
    fingerprint_trajectories,
    get_default_engine,
    set_default_engine,
)
from repro.eval import matrix_build_latency
from repro.violation import iter_triplets, triplet_array, violation_report


@pytest.fixture
def trajectories():
    rng = np.random.default_rng(0)
    return [rng.random((int(rng.integers(2, 12)), 2)) for _ in range(8)]


class TestEngineConfiguration:
    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            MatrixEngine(strategy="gpu")

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            MatrixEngine(chunk_size=0)

    def test_repr_mentions_strategy(self):
        assert "chunked" in repr(MatrixEngine(strategy="chunked"))

    def test_default_engine_is_singleton(self):
        set_default_engine(None)
        first = get_default_engine()
        assert get_default_engine() is first
        replacement = MatrixEngine(strategy="serial")
        assert set_default_engine(replacement) is replacement
        assert get_default_engine() is replacement
        set_default_engine(None)

    def test_default_strategy_env_override(self, monkeypatch):
        monkeypatch.setenv(executor_module._STRATEGY_ENV, "serial")
        set_default_engine(None)
        try:
            assert get_default_engine().strategy == "serial"
        finally:
            set_default_engine(None)

    def test_removed_process_strategy_lists_the_options(self):
        with pytest.raises(ValueError, match="options") as info:
            MatrixEngine(strategy="process")
        assert "shared" in str(info.value)

    def test_bad_strategy_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(executor_module._STRATEGY_ENV, "process")
        set_default_engine(None)
        try:
            with pytest.raises(EnvError, match="REPRO_ENGINE_STRATEGY") as info:
                get_default_engine()
            assert "shared" in str(info.value)
        finally:
            set_default_engine(None)


class TestMaxWorkers:
    def test_explicit_non_positive_rejected(self):
        with pytest.raises(ValueError, match="max_workers"):
            MatrixEngine(max_workers=0)
        with pytest.raises(ValueError, match="max_workers"):
            MatrixEngine(max_workers=-2)

    def test_default_and_env_override(self, monkeypatch):
        monkeypatch.delenv(executor_module._MAX_WORKERS_ENV, raising=False)
        assert MatrixEngine().max_workers == min(4, __import__("os").cpu_count() or 1)
        monkeypatch.setenv(executor_module._MAX_WORKERS_ENV, "3")
        assert MatrixEngine().max_workers == 3
        # An explicit argument beats the environment.
        assert MatrixEngine(max_workers=2).max_workers == 2

    def test_env_values_validated(self, monkeypatch):
        monkeypatch.setenv(executor_module._MAX_WORKERS_ENV, "0")
        with pytest.raises(ValueError, match="REPRO_ENGINE_MAX_WORKERS"):
            MatrixEngine()
        monkeypatch.setenv(executor_module._MAX_WORKERS_ENV, "many")
        with pytest.raises(ValueError, match="REPRO_ENGINE_MAX_WORKERS"):
            MatrixEngine()


class TestChunkByteBudget:
    def test_default_budget_and_env_override(self, monkeypatch):
        assert MatrixEngine().chunk_bytes == executor_module.DEFAULT_CHUNK_BYTES
        monkeypatch.setenv(executor_module._CHUNK_BYTES_ENV, "4096")
        assert MatrixEngine().chunk_bytes == 4096
        monkeypatch.setenv(executor_module._CHUNK_BYTES_ENV, "0")
        assert MatrixEngine().chunk_bytes is None  # disabled
        assert MatrixEngine(chunk_bytes=2048).chunk_bytes == 2048
        assert MatrixEngine(chunk_bytes=-1).chunk_bytes is None

    def test_budget_splits_chunks_without_changing_results(self):
        rng = np.random.default_rng(5)
        # Skewed lengths: a few long trajectories dominate the padded footprint.
        trajectories = [rng.random((length, 2))
                        for length in (3, 4, 5, 6, 40, 45, 50, 60)]
        unbounded = MatrixEngine(cache=None, chunk_bytes=-1)
        tight = MatrixEngine(cache=None, chunk_bytes=100 * 1024)
        np.testing.assert_array_equal(unbounded.pairwise(trajectories, "dtw"),
                                      tight.pairwise(trajectories, "dtw"))

    def test_plan_respects_both_caps(self):
        lengths = np.full(45, 30, dtype=np.int64)
        order = np.arange(45)
        # Pair-count cap alone: one chunk of at most chunk_size pairs each.
        engine = MatrixEngine(cache=None, chunk_size=7, chunk_bytes=-1)
        plan = engine._plan_chunks(order, lengths, lengths)
        assert [len(chunk) for chunk in plan] == [7] * 6 + [3]
        # A byte budget that fits ~4 padded 31x31 tables caps chunks earlier.
        budget = 16 * 4 * 31 * 31
        engine = MatrixEngine(cache=None, chunk_size=7, chunk_bytes=budget)
        plan = engine._plan_chunks(order, lengths, lengths)
        assert all(len(chunk) <= 4 for chunk in plan)
        assert np.concatenate(plan).tolist() == order.tolist()
        # The budget never starves a chunk below one pair, however tight.
        engine = MatrixEngine(cache=None, chunk_size=7, chunk_bytes=1)
        plan = engine._plan_chunks(order, lengths, lengths)
        assert [len(chunk) for chunk in plan] == [1] * 45

    def test_plan_matches_greedy_reference(self):
        """The vectorized cummax plan equals the pair-at-a-time greedy walk."""
        rng = np.random.default_rng(8)
        for trial in range(20):
            pairs = int(rng.integers(1, 60))
            len_a = rng.integers(1, 50, size=pairs)
            len_b = rng.integers(1, 50, size=pairs)
            order = np.argsort(len_a * len_b, kind="stable")
            chunk_size = int(rng.integers(1, 12))
            budget = int(rng.integers(16, 16 * 12 * 51 * 51))
            engine = MatrixEngine(cache=None, chunk_size=chunk_size,
                                  chunk_bytes=budget)
            plan = engine._plan_chunks(order, len_a, len_b)
            expected, start = [], 0
            while start < len(order):
                stop, max_n, max_m = start, 0, 0
                while stop < len(order) and stop - start < chunk_size:
                    n = max(max_n, int(len_a[order[stop]]))
                    m = max(max_m, int(len_b[order[stop]]))
                    if stop > start and 16 * (stop - start + 1) * (n + 1) * (m + 1) > budget:
                        break
                    max_n, max_m, stop = n, m, stop + 1
                expected.append(order[start:stop].tolist())
                start = stop
            assert [chunk.tolist() for chunk in plan] == expected, trial


class TestExperimentSettingsEngine:
    def test_explicit_strategy_shares_default_cache(self):
        from repro.experiments.runner import ExperimentSettings

        set_default_engine(None)
        explicit = ExperimentSettings(engine_strategy="chunked").make_engine()
        assert explicit.cache is get_default_engine().cache
        assert explicit.strategy == "chunked"

    def test_reference_configuration_is_uncached(self):
        from repro.experiments.runner import ExperimentSettings

        engine = ExperimentSettings(use_vectorized_kernels=False).make_engine()
        assert engine.cache is None
        assert engine.use_kernels is False


class TestEngineExecution:
    def test_small_and_empty_inputs(self):
        engine = MatrixEngine()
        assert engine.pairwise([], "dtw").shape == (0, 0)
        single = engine.pairwise([np.zeros((3, 2))], "dtw")
        assert single.shape == (1, 1) and single[0, 0] == 0.0

    def test_matrix_is_symmetric_with_zero_diagonal(self, trajectories):
        matrix = MatrixEngine(chunk_size=5).pairwise(trajectories, "dtw")
        np.testing.assert_allclose(matrix, matrix.T)
        np.testing.assert_allclose(np.diag(matrix), 0.0, atol=1e-12)

    def test_callable_measure(self, trajectories):
        matrix = MatrixEngine().pairwise(trajectories, D.hausdorff_distance)
        expected = MatrixEngine(strategy="serial", use_kernels=False).pairwise(
            trajectories, "hausdorff")
        np.testing.assert_allclose(matrix, expected)

    def test_violation_statistics_delegates(self, trajectories):
        matrix = MatrixEngine().pairwise(trajectories, "dtw")
        stats = MatrixEngine().violation_statistics(matrix, max_triplets=50, seed=1)
        assert stats == violation_report(matrix, max_triplets=50, seed=1)


class TestMatrixCache:
    def test_fingerprint_sensitivity(self, trajectories):
        base = fingerprint_trajectories(trajectories)
        assert base == fingerprint_trajectories([t.copy() for t in trajectories])
        perturbed = [t.copy() for t in trajectories]
        perturbed[0][0, 0] += 1e-9
        assert base != fingerprint_trajectories(perturbed)

    def test_cache_key_depends_on_measure_and_kwargs(self):
        fp = "abc"
        assert cache_key(fp, "dtw", {}) != cache_key(fp, "edr", {})
        assert cache_key(fp, "edr", {"epsilon": 0.1}) != cache_key(fp, "edr", {"epsilon": 0.2})
        assert cache_key(fp, "dtw", {}) != cache_key(fp, "dtw", {}, kind="cross:3")

    def test_engine_cache_hit(self, trajectories):
        engine = MatrixEngine(cache=MatrixCache())
        first = engine.pairwise(trajectories, "dtw")
        assert engine.cache.misses == 1
        second = engine.pairwise(trajectories, "dtw")
        assert engine.cache.hits == 1
        np.testing.assert_allclose(first, second)
        second[0, 1] = -1.0  # cached copies must be isolated from caller mutation
        np.testing.assert_allclose(engine.pairwise(trajectories, "dtw"), first)

    def test_disk_persistence(self, tmp_path, trajectories):
        first_cache = MatrixCache(directory=tmp_path)
        engine = MatrixEngine(cache=first_cache)
        matrix = engine.pairwise(trajectories, "dtw")
        fresh = MatrixEngine(cache=MatrixCache(directory=tmp_path))
        np.testing.assert_allclose(fresh.pairwise(trajectories, "dtw"), matrix)
        assert fresh.cache.hits == 1

    def test_lru_eviction(self):
        cache = MatrixCache(max_entries=2)
        for index in range(3):
            cache.put(str(index), np.full((1, 1), float(index)))
        assert cache.get("0") is None
        assert cache.get("2") is not None

    def test_callable_measures_not_cached(self, trajectories):
        engine = MatrixEngine(cache=MatrixCache())
        engine.pairwise(trajectories, D.hausdorff_distance)
        assert len(engine.cache) == 0


class TestTripletSampling:
    def test_near_exhaustive_sample_is_fast_and_unique(self):
        count = 12
        total = math.comb(count, 3)
        triplets = triplet_array(count, total - 1, np.random.default_rng(0))
        assert len(triplets) == total - 1
        assert len({tuple(row) for row in triplets.tolist()}) == total - 1

    def test_sample_rows_are_sorted(self):
        triplets = triplet_array(30, 200, np.random.default_rng(1))
        assert np.all(triplets[:, 0] < triplets[:, 1])
        assert np.all(triplets[:, 1] < triplets[:, 2])

    def test_exhaustive_matches_combinations(self):
        from itertools import combinations

        triplets = triplet_array(7)
        assert [tuple(row) for row in triplets.tolist()] == list(combinations(range(7), 3))

    def test_deterministic_for_seeded_rng(self):
        first = triplet_array(25, 100, np.random.default_rng(42))
        second = triplet_array(25, 100, np.random.default_rng(42))
        np.testing.assert_array_equal(first, second)

    def test_unranking_covers_every_triplet(self):
        from repro.violation.metrics import _unrank_triplets

        count = 10
        total = math.comb(count, 3)
        everything = _unrank_triplets(np.arange(total), count)
        assert len({tuple(row) for row in everything.tolist()}) == total

    def test_iter_triplets_matches_array_sampling(self):
        listed = list(iter_triplets(15, 40, np.random.default_rng(3)))
        array = triplet_array(15, 40, np.random.default_rng(3))
        assert listed == [tuple(row) for row in array.tolist()]

    def test_small_count_yields_nothing(self):
        assert triplet_array(2).shape == (0, 3)
        assert list(iter_triplets(2)) == []


class TestKnnValidation:
    def test_k_larger_than_candidates_raises(self):
        matrix = np.random.default_rng(0).random((4, 4))
        with pytest.raises(ValueError, match="exceeds"):
            D.knn_from_matrix(matrix, 4, exclude_self=True)
        with pytest.raises(ValueError, match="exceeds"):
            D.knn_from_matrix(matrix, 5, exclude_self=False)

    def test_k_at_limit_is_allowed(self):
        matrix = np.random.default_rng(0).random((4, 4))
        assert D.knn_from_matrix(matrix, 3, exclude_self=True).shape == (4, 3)
        assert D.knn_from_matrix(matrix, 4, exclude_self=False).shape == (4, 4)


class TestEfficiencyProbe:
    def test_matrix_build_latency_reports_strategy(self, trajectories):
        result = matrix_build_latency(trajectories, "dtw",
                                      engine=MatrixEngine(strategy="chunked"),
                                      repeats=1)
        assert result["latency_seconds"] > 0.0
        assert result["num_trajectories"] == len(trajectories)
        assert result["strategy"] == "chunked"
