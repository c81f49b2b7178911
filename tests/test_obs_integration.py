"""Cross-layer telemetry integration: cell accounting, stats schema, training.

Three contracts live here:

* **No double-counting** — ``engine.dp_cells`` grows by exactly the same
  amount per run for every strategy × backend combination, including after a shared-pool
  worker is killed and the pool restarts mid-dispatch.  Worker registries
  come back as deltas and are merged exactly once.
* **Pinned stats schema** — ``SearchStats.as_dict()`` and
  ``SearchService.stats()`` expose an exact, typed key set.  Any field added
  to the dataclass must show up here (and in ``merge``) deliberately.
* **Training telemetry** — with ``REPRO_OBS=on`` the trainer records
  per-epoch timing metrics into ``TrainingHistory`` and streams each epoch
  through the JSONL exporter.
"""

import dataclasses
import json
import os
import signal

import numpy as np
import pytest

import repro.engine.backends as backends
import repro.engine.backends.numba_kernels as numba_kernels
from repro.data import generate_dataset
from repro.distances import normalize_matrix, pairwise_distance_matrix
from repro.engine import MatrixEngine, get_shared_pool, reset_shared_pool
from repro.models import MeanPoolEncoder
from repro.obs import get_registry
from repro.obs.export import JSONL_ENV, set_jsonl_path
from repro.obs.spans import OBS_ENV, obs_mode, set_obs_mode
from repro.search import SearchService, SearchStats, TrajectoryIndex
from repro.training import SimilarityTrainer, TrainingHistory


@pytest.fixture(autouse=True)
def _restore_obs_state(monkeypatch):
    previous_mode = obs_mode()
    monkeypatch.delenv(OBS_ENV, raising=False)
    monkeypatch.delenv(JSONL_ENV, raising=False)
    yield
    set_obs_mode(previous_mode)
    set_jsonl_path(None)


@pytest.fixture(scope="module")
def spatial():
    rng = np.random.default_rng(0)
    return [rng.random((int(rng.integers(3, 15)), 2)) for _ in range(12)]


@pytest.fixture
def numba_stub(monkeypatch):
    """Pretend numba imported so the compiled backend is selectable; its
    kernels then run as pure Python through the njit stub.  Only valid for
    in-process strategies — pool workers do not inherit the monkeypatch."""
    monkeypatch.setattr(numba_kernels, "NUMBA_AVAILABLE", True)
    monkeypatch.setattr(backends, "_ACTIVE", None)
    monkeypatch.setattr(backends, "_FALLBACK_WARNED", False)
    monkeypatch.delenv(backends.BACKEND_ENV, raising=False)
    yield


def _engine(strategy: str, **overrides) -> MatrixEngine:
    options = dict(strategy=strategy, cache=None, chunk_size=4)
    if strategy == "shared":
        options["max_workers"] = 2
    options.update(overrides)
    return MatrixEngine(**options)


def _counters() -> dict:
    return get_registry().snapshot()["counters"]


def _cells_for_run(engine, trajectories, measure="dtw", runs=1):
    before = _counters().get("engine.dp_cells", 0)
    for _ in range(runs):
        engine.pairwise(trajectories, measure)
    return _counters()["engine.dp_cells"] - before


class TestCellAccounting:
    """`engine.dp_cells` must never double-count, for any strategy × backend."""

    @pytest.mark.parametrize("strategy", ["serial", "chunked", "shared"])
    def test_numpy_runs_are_additive(self, strategy, spatial):
        engine = _engine(strategy, backend="numpy")
        once = _cells_for_run(engine, spatial)
        twice = _cells_for_run(engine, spatial, runs=2)
        assert once > 0
        assert twice == 2 * once

    def test_parallel_strategies_count_like_chunked(self, spatial):
        # Same chunk size → identical padded batches → identical cell counts,
        # whether the chunks run in-process or in pool workers (whose counts
        # come back as registry deltas).  Serial is excluded on purpose: it
        # runs unpadded per-pair kernels, so its exact count is lower.
        chunked = _cells_for_run(_engine("chunked", backend="numpy"), spatial)
        assert chunked > 0
        assert _cells_for_run(_engine("shared", backend="numpy"),
                              spatial) == chunked

    @pytest.mark.parametrize("strategy", ["serial", "chunked"])
    def test_numba_backend_runs_are_additive(self, strategy, spatial,
                                             numba_stub):
        engine = _engine(strategy, backend="numba")
        once = _cells_for_run(engine, spatial)
        twice = _cells_for_run(engine, spatial, runs=2)
        assert once > 0
        assert twice == 2 * once

    def test_per_measure_counters_partition_the_total(self, spatial):
        before = _counters()
        engine = _engine("shared")
        engine.pairwise(spatial, "dtw")
        engine.pairwise(spatial, "erp")
        delta = {name: value - before.get(name, 0)
                 for name, value in _counters().items()
                 if name.startswith("engine.dp_cells")}
        total = delta["engine.dp_cells"]
        per_measure = {name: value for name, value in delta.items()
                       if name.startswith("engine.dp_cells.") and value}
        assert total > 0
        assert sum(per_measure.values()) == total
        assert per_measure["engine.dp_cells.dtw"] > 0
        assert per_measure["engine.dp_cells.erp"] > 0

    def test_worker_deltas_survive_pool_restart_without_double_count(
            self, spatial):
        engine = _engine("shared")
        try:
            clean_cells = _cells_for_run(engine, spatial)
            pool = get_shared_pool(engine.max_workers)
            victim = next(iter(pool._processes))
            os.kill(victim, signal.SIGKILL)
            # The next dispatch hits BrokenProcessPool, restarts the pool and
            # retries; deltas from the aborted attempt must not be merged.
            dtw_before = _counters().get("engine.dp_cells.dtw", 0)
            assert _cells_for_run(engine, spatial) == clean_cells
            assert _counters()["engine.dp_cells.dtw"] - dtw_before == clean_cells
        finally:
            reset_shared_pool(engine.max_workers)


#: stats() contract: exactly these keys, of exactly these types.
SERVICE_STATS_SCHEMA = {
    "database_size": int,
    "measure": str,
    "batch_size": int,
    "queries_served": int,
    "cache_hits": int,
    "cache_misses": int,
    "batches_flushed": int,
    "batch_fill": dict,
    "total_latency_seconds": float,
    "mean_latency_seconds": float,
    "num_database": int,
    "num_candidates": int,
    "num_refined": int,
    "num_pruned": int,
    "num_abandoned": int,
    "num_batches": int,
    "pruned_fraction": float,
    "lower_bound_seconds": float,
    "refine_seconds": float,
    "kernel_backend": str,
}

#: SearchStats field inventory; `merge` and `as_dict` must cover all of it.
SEARCH_STATS_FIELDS = {
    "num_database", "num_candidates", "num_refined", "num_pruned",
    "num_abandoned", "num_batches", "lower_bound_seconds", "refine_seconds",
    "kernel_backend",
}


class TestStatsSchema:
    def test_dataclass_fields_are_pinned(self):
        assert {field.name for field in dataclasses.fields(SearchStats)} \
            == SEARCH_STATS_FIELDS, (
                "SearchStats grew or lost a field: update merge(), as_dict(), "
                "SERVICE_STATS_SCHEMA and this inventory together")

    def test_as_dict_keys_are_fields_plus_pruned_fraction(self):
        assert set(SearchStats().as_dict()) \
            == SEARCH_STATS_FIELDS | {"pruned_fraction"}

    def test_merge_sums_counts_and_keeps_first_backend(self):
        first = SearchStats(num_database=10, num_candidates=8, num_refined=5,
                            num_pruned=3, num_abandoned=1, num_batches=2,
                            lower_bound_seconds=0.5, refine_seconds=1.5,
                            kernel_backend="numpy")
        second = SearchStats(num_database=10, num_candidates=6, num_refined=2,
                             num_pruned=4, num_abandoned=0, num_batches=1,
                             lower_bound_seconds=0.25, refine_seconds=0.75,
                             kernel_backend="numba")
        first.merge(second)
        assert first.num_candidates == 14 and first.num_refined == 7
        assert first.num_pruned == 7 and first.num_batches == 3
        assert first.lower_bound_seconds == 0.75
        assert first.refine_seconds == 2.25
        assert first.kernel_backend == "numpy"
        # An empty aggregate adopts the first real pass's backend.
        empty = SearchStats()
        empty.merge(second)
        assert empty.kernel_backend == "numba"

    def test_service_stats_matches_schema_exactly(self, spatial):
        service = SearchService(TrajectoryIndex(spatial), measure="dtw", k=3,
                                batch_size=4)
        service.search_many(spatial[:3], exclude_self=True)
        service.search(spatial[0], exclude=0)  # cache hit
        stats = service.stats()
        assert set(stats) == set(SERVICE_STATS_SCHEMA)
        for key, expected_type in SERVICE_STATS_SCHEMA.items():
            assert isinstance(stats[key], expected_type), (
                f"stats()[{key!r}] is {type(stats[key]).__name__}, "
                f"expected {expected_type.__name__}")
        assert stats["queries_served"] == 4
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 3
        assert stats["batch_fill"]["count"] == stats["batches_flushed"]
        assert stats["kernel_backend"] in ("numpy", "numba")

    def test_service_snapshot_mirrors_stats(self, spatial):
        service = SearchService(TrajectoryIndex(spatial), measure="dtw", k=2)
        service.search(spatial[1])
        snap = service.snapshot()
        assert snap["counters"]["service.queries"] \
            == service.stats()["queries_served"] == 1


class TestTrainingTelemetry:
    @pytest.fixture(scope="class")
    def tiny_training(self):
        dataset = generate_dataset("chengdu", size=8, seed=0)
        trajectories = dataset.point_arrays(spatial_only=True)
        truth = normalize_matrix(pairwise_distance_matrix(trajectories, "dtw"),
                                 method="mean")
        return dataset, truth

    def _fit_one_epoch(self, tiny_training):
        dataset, truth = tiny_training
        encoder = MeanPoolEncoder.build(dataset, embedding_dim=4,
                                        hidden_dim=6, seed=0)
        return SimilarityTrainer(encoder, seed=0).fit(dataset, truth, epochs=2)

    def test_epoch_timings_recorded_when_observing(self, tiny_training):
        set_obs_mode("on")
        before = get_registry().histogram("train.epoch_seconds").state()["count"]
        history = self._fit_one_epoch(tiny_training)
        for metrics in history.metrics:
            assert {"epoch_seconds", "encode_seconds", "loss_seconds",
                    "step_seconds"} <= set(metrics)
            assert metrics["epoch_seconds"] >= metrics["encode_seconds"]
        after = get_registry().histogram("train.epoch_seconds").state()["count"]
        assert after - before == len(history)

    def test_no_timing_metrics_when_off(self, tiny_training):
        set_obs_mode("off")
        history = self._fit_one_epoch(tiny_training)
        for metrics in history.metrics:
            assert "epoch_seconds" not in metrics

    def test_loss_unchanged_by_observability(self, tiny_training):
        set_obs_mode("off")
        baseline = self._fit_one_epoch(tiny_training).losses
        set_obs_mode("on")
        observed = self._fit_one_epoch(tiny_training).losses
        assert observed == baseline

    def test_history_streams_epochs_to_jsonl(self, tmp_path):
        sink = tmp_path / "train.jsonl"
        set_obs_mode("on")
        set_jsonl_path(str(sink))
        history = TrainingHistory()
        history.record(1, 0.5, {"hr10": 0.9})
        history.record(2, 0.25)
        events = [json.loads(line) for line in sink.read_text().splitlines()]
        assert [event["kind"] for event in events] == ["training_epoch"] * 2
        assert events[0]["epoch"] == 1 and events[0]["loss"] == 0.5
        assert events[0]["metrics"] == {"hr10": 0.9}
        assert events[1]["metrics"] == {}

    def test_history_does_not_stream_when_off(self, tmp_path):
        sink = tmp_path / "quiet.jsonl"
        set_obs_mode("off")
        set_jsonl_path(str(sink))
        TrainingHistory().record(1, 0.5)
        assert not sink.exists()
