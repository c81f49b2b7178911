"""The benchmark's four workloads over the public :mod:`repro` API.

Each workload is a closed loop with one client: :func:`run.run_workload`
issues the next operation from :meth:`Workload.schedule` only after the
previous one returned.  A workload builds everything it needs in
:meth:`Workload.setup` (timed as ``setup_s``, warm-up included), runs
operations in :meth:`Workload.execute`, and checks the outputs against an
independent oracle in :meth:`Workload.check` after the clock stopped.

Inputs come only from the seed: every generator below is seeded from
:func:`derive_seed`, so one seed always yields the same databases, queries,
write batches and tick schedule, while the operations the clock admits
decide how far into the schedule a run gets.  The first ``min_ops``
operations always run; they are the *count window* over which the
deterministic counters (DP cells, refined candidates, training loss, HR@10)
are read, so those repeat exactly for a given seed.

Sizes were chosen so one run fits the benchmark's time budget on a 2-core
machine with the numpy kernel backend; ``smoke=True`` shrinks every size so
the four workloads finish in seconds (used by the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import DynamicFusion, LHPlugin, LHPluginConfig
from repro.data import BoundingBox, generate_dataset, generate_stream_workload
from repro.distances import (
    cross_distance_matrix,
    dtw_distance,
    knn_from_matrix,
    normalize_matrix,
)
from repro.engine import (
    MatrixEngine,
    get_batch_kernel,
    reset_arena_cache,
    shutdown_shared_pools,
)
from repro.eval import database_memory_bytes, evaluate_retrieval
from repro.models import get_model
from repro.nn import Tensor, no_grad
from repro.search import SearchService, StreamMonitor, TrajectoryIndex, embedding_topk
from repro.training import SimilarityTrainer

__all__ = ["Op", "Workload", "WORKLOADS", "derive_seed", "same_topk"]

#: Pool size of the engine's ``shared`` strategy: the core count of the
#: 2-core machine the sizes were calibrated on.
MAX_WORKERS = 2

K = 10


@dataclass
class Op:
    """One operation of a workload's schedule."""

    kind: str
    payload: object = None


def derive_seed(seed: int, purpose: int) -> int:
    """An independent generator seed for one purpose of one run seed."""
    return int(np.random.SeedSequence([seed, purpose]).generate_state(1)[0])


def same_topk(indices, reference_distances: np.ndarray, k: int,
              tolerance: float = 1e-9) -> bool:
    """Whether ``indices`` are a valid top-``k`` under ``reference_distances``.

    Equal to the stable-argsort top-k, or — where the two distance
    computations round differently — made of items whose reference distances
    match the ``k`` smallest ones within ``tolerance`` (ties reordered).
    """
    indices = np.asarray(indices)
    expected = np.argsort(reference_distances, kind="stable")[:k]
    if np.array_equal(indices, expected):
        return True
    if len(np.unique(indices)) != k:
        return False
    got = np.sort(reference_distances[indices])
    want = np.sort(reference_distances)[:k]
    return bool(np.all(np.abs(got - want) <= tolerance * np.maximum(1.0, np.abs(want))))


def _overlap(indices, expected) -> float:
    return len(set(np.asarray(indices).tolist()) & set(np.asarray(expected).tolist())) / K


def _frac(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Workload:
    """Base class: a setup, a schedule of operations and an oracle."""

    name = ""
    #: The operation kind whose latencies are the end-to-end samples.
    primary = ""

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.params = dict(self.SMOKE if smoke else self.FULL)
        self.min_ops = self.params["min_ops"]
        self.tracer = None

    # Subclasses define FULL / SMOKE parameter dicts (each with ``min_ops``).
    FULL: dict = {}
    SMOKE: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release pools and shared memory so the next setup pays them again."""
        shutdown_shared_pools()
        reset_arena_cache()

    def schedule(self):
        raise NotImplementedError

    def execute(self, op: Op):
        """Run one operation; may return a callable run after the clock stops."""
        raise NotImplementedError

    def instrument(self, tracer) -> None:
        """Install the span wrappers of a traced run (after the last setup)."""

    def _call(self, name: str, func, *args, **kwargs):
        """Call a function the workload itself invokes, as span ``name`` when traced."""
        if self.tracer is None:
            return func(*args, **kwargs)
        return self.tracer.call(name, func, *args, **kwargs)

    def check(self) -> dict:
        """Oracle verdict: ``passed``, ``checks``, ``mismatches`` and ``hr10``."""
        raise NotImplementedError

    def throughput(self, samples, wall: float) -> float:
        raise NotImplementedError

    def layers(self, tracer, requests: int, counters: dict, samples) -> dict:
        """Per-layer metrics this workload exercises (others report 0).

        ``requests`` is the number of traced primary operations: span times
        are reported as seconds per such request.  ``counters`` are registry
        deltas over the count window.
        """
        raise NotImplementedError

    def deterministic(self, counters: dict) -> dict:
        """Counters that repeat exactly for a given seed (count window)."""
        raise NotImplementedError


def _per(totals: dict, name: str, field: str, requests: int) -> float:
    """Seconds of span ``name`` per traced request (0 when never called)."""
    entry = totals.get(name)
    return entry[field] / requests if entry and requests else 0.0


#: Ground-truth entries per pipeline the offline oracle recomputes.
TRUTH_CHECKS = 10


def _retries(counters: dict) -> float:
    return counters.get("resilience.retries", 0) + counters.get(
        "resilience.fallback_chunks", 0)


# --------------------------------------------------------------------------
class OfflinePipeline(Workload):
    """Ground truth → LH-plugin training → held-out retrieval quality.

    One operation is one whole pipeline on a fresh dataset (its own derived
    seed): generate trajectories, build the DTW matrix through the shared
    engine, train NeuTraj with the full plugin on the first ``train``
    trajectories, and score HR@10 / NDCG@10 on the rest.  The oracle
    recomputes ``TRUTH_CHECKS`` sampled truth entries of every pipeline with
    the textbook DTW (at least 200 over the count window).
    """

    name = "offline_pipeline"
    primary = "pipeline"
    FULL = {"size": 128, "train": 32, "epochs": 1, "min_ops": 20}
    SMOKE = {"size": 40, "train": 16, "epochs": 1, "min_ops": 1}

    def setup(self) -> None:
        self.engine = MatrixEngine(strategy="shared", max_workers=MAX_WORKERS,
                                   cache=None)
        # Warm-up: one miniature pipeline starts the pool, resolves the
        # backend, packs a first arena and runs every training and
        # evaluation path once.
        self.pipelines: list[dict] = []
        self._pipeline(derive_seed(self.seed, 0), size=24, n_train=8)
        self.pipelines = []

    def schedule(self):
        index = 0
        while True:
            yield Op("pipeline", index)
            index += 1

    def execute(self, op: Op):
        self._pipeline(derive_seed(self.seed, 1000 + op.payload),
                       size=self.params["size"], n_train=self.params["train"])
        return None

    def _pipeline(self, seed: int, size: int, n_train: int) -> None:
        tracer = self.tracer
        epochs = self.params["epochs"]
        dataset = generate_dataset("chengdu", size=size, seed=seed)
        arrays = dataset.point_arrays(spatial_only=True)
        train = dataset.subset(range(n_train))
        held_out = dataset.subset(range(n_train, size))
        encoder = get_model("neutraj").build(train, embedding_dim=16, hidden_dim=24,
                                             seed=seed)
        plugin = LHPlugin(LHPluginConfig(factor_dim=8, fusion_hidden=16, seed=seed))
        trainer = SimilarityTrainer(encoder, plugin=plugin, seed=seed)
        if tracer is not None:
            tracer.wrap(self.engine, "pairwise", "engine.pairwise")
            tracer.wrap(trainer, "fit", "train.fit")
            tracer.wrap(encoder, "prepare_dataset", "models.prepare_dataset")
            tracer.wrap(encoder, "encode_batch", "models.encode_batch")
            tracer.wrap(plugin, "pair_distances_from", "core.pair_distances_from")
            tracer.wrap(plugin.fusion, "factors_batch", "core.factors_batch")
            tracer.wrap(trainer.optimizer, "step", "nn.optim_step")
        try:
            raw = self.engine.pairwise(arrays, "dtw")
            truth = normalize_matrix(raw, method="mean")
            history = trainer.fit(train, truth[:n_train, :n_train], epochs=epochs)
            predicted = self._call("eval.model_matrix", trainer.model_distance_matrix,
                                   held_out)
            quality = self._call("eval.retrieval", evaluate_retrieval, predicted,
                                 truth[n_train:, n_train:], hr_ks=(K,), ndcg_ks=(K,))
        finally:
            if tracer is not None:
                tracer.restore()
        dispatch = self.engine.last_dispatch or {}
        # Keep only the oracle's sample of truth entries, not the matrix.
        pairs = np.random.default_rng(seed).integers(size, size=(TRUTH_CHECKS, 2))
        self.pipelines.append({
            "seed": seed,
            "truth": [(arrays[i], arrays[j], float(raw[i, j])) for i, j in pairs],
            "hr10": float(quality[f"hr@{K}"]), "ndcg10": float(quality[f"ndcg@{K}"]),
            "final_loss": float(history.losses[-1]),
            "chunks": int(dispatch.get("num_chunks", 0)),
            "bytes_shipped": int(dispatch.get("payload_bytes", 0)
                                 + dispatch.get("arena_bytes", 0)),
        })

    def check(self) -> dict:
        mismatches = []
        checks = 0
        for pipeline in self.pipelines:
            for a, b, got in pipeline["truth"]:
                want = dtw_distance(a, b)
                checks += 1
                if abs(got - want) > 1e-9:
                    mismatches.append(f"truth entry {got!r} != dtw {want!r} "
                                      f"(pipeline seed {pipeline['seed']})")
        return {"passed": not mismatches, "checks": checks, "mismatches": mismatches,
                "hr10": self._window_mean("hr10")}

    def _window_mean(self, field: str) -> float:
        window = self.pipelines[:self.min_ops]
        return float(np.mean([pipeline[field] for pipeline in window]))

    def throughput(self, samples, wall: float) -> float:
        pipelines = [seconds for kind, seconds, _ in samples if kind == "pipeline"]
        return self.params["size"] * len(pipelines) / sum(pipelines)

    def layers(self, tracer, requests, counters, samples) -> dict:
        totals = tracer.totals()
        within_fit = tracer.totals(within="train.fit")
        n = requests
        train_distance = (_per(within_fit, "core.pair_distances_from", "wall", n)
                          + _per(within_fit, "core.factors_batch", "wall", n))
        window = self.pipelines[:self.min_ops]
        return {
            "engine.pairwise_s": _per(totals, "engine.pairwise", "wall", n),
            "engine.chunks": sum(p["chunks"] for p in window),
            "engine.bytes_shipped": sum(p["bytes_shipped"] for p in window),
            "engine.dp_cells": counters.get("engine.dp_cells", 0),
            "engine.retries": _retries(counters),
            "core.train_distance_s": train_distance,
            "train.epoch_s": (_per(totals, "train.fit", "wall", n)
                              - _per(within_fit, "models.prepare_dataset", "wall", n))
            / self.params["epochs"],
            "models.encode_batch_s": _per(within_fit, "models.encode_batch", "wall", n),
            "nn.optim_step_s": _per(within_fit, "nn.optim_step", "wall", n),
            "train.backward_self_s": _per(totals, "train.fit", "self", n),
            "train.final_loss": self._window_mean("final_loss"),
            "eval.model_matrix_s": _per(totals, "eval.model_matrix", "wall", n),
            "eval.retrieval_s": _per(totals, "eval.retrieval", "wall", n),
        }

    def deterministic(self, counters) -> dict:
        return {"engine.dp_cells": counters.get("engine.dp_cells", 0),
                "train.final_loss": self._window_mean("final_loss"),
                "hr10": self._window_mean("hr10")}


#: Generated cities a kNN fleet is drawn from.  Each generator seed lays
#: out its own road network, and pruning depends on it; interleaving several
#: cities keeps one seed's layout from setting the whole run's cost.
CITIES = 8


def _fleet(seed: int, size: int) -> list[np.ndarray]:
    """``size`` trajectories interleaved from :data:`CITIES` generated cities."""
    per_city = -(-size // CITIES)
    cities = [generate_dataset("chengdu", size=per_city, seed=derive_seed(seed, 100 + m))
              .point_arrays(spatial_only=True) for m in range(CITIES)]
    return [city[i] for i in range(per_city) for city in cities][:size]


# --------------------------------------------------------------------------
class KnnServing(Workload):
    """Exact DTW top-k serving with reads and writes on one live index.

    The database, the query pool and the write batches are disjoint parts
    of one fleet; a quarter of the queries repeat a query issued since the
    last write (so they can hit the result cache), and every
    ``write_every``-th operation inserts ``write_size`` new trajectories and
    evicts the ``write_size`` oldest.
    """

    name = "knn_serving"
    primary = "query"
    FULL = {"database": 2000, "pool": 600, "writes": 30, "write_every": 41,
            "write_size": 20, "chunk_size": 64, "refine_batch_size": 256,
            "check_every": 16, "min_ops": 120}
    SMOKE = {"database": 120, "pool": 40, "writes": 4, "write_every": 6,
             "write_size": 4, "chunk_size": 8, "refine_batch_size": 32,
             "check_every": 4, "min_ops": 12}

    def setup(self) -> None:
        p = self.params
        fleet = _fleet(self.seed, p["database"] + p["pool"] + 1
                       + p["writes"] * p["write_size"])
        self.database = fleet[:p["database"]]
        # The pool's extra last member is the warm-up query.
        self.queries = fleet[p["database"]:p["database"] + p["pool"] + 1]
        self.inserts = fleet[p["database"] + p["pool"] + 1:]
        self.engine = MatrixEngine(strategy="shared", max_workers=MAX_WORKERS,
                                   chunk_size=p["chunk_size"], cache=None)
        self.service = SearchService(TrajectoryIndex(self.database), measure="dtw",
                                     k=K, engine=self.engine, batch_size=1,
                                     refine_batch_size=p["refine_batch_size"])
        # Warm-up query (the pool's extra member, never scheduled): starts the
        # pool and packs the index's cached arena.
        self.service.search(self.queries[-1])
        self.served: list[tuple] = []
        self.writes_done = 0

    def teardown(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.close()
        super().teardown()

    def schedule(self):
        p = self.params
        rng = np.random.default_rng(derive_seed(self.seed, 13))
        fresh = 0
        since_write: list[int] = []
        writes = 0
        queries = 0
        while True:
            if (queries + writes + 1) % p["write_every"] == 0:
                if writes == p["writes"]:
                    return
                writes += 1
                since_write = []
                yield Op("write")
                continue
            if since_write and rng.random() < 0.25:
                index = since_write[int(rng.integers(len(since_write)))]
            else:
                if fresh == p["pool"]:
                    return
                index = fresh
                fresh += 1
                since_write.append(index)
            queries += 1
            yield Op("query", index)

    def execute(self, op: Op):
        service = self.service
        if op.kind == "write":
            size = self.params["write_size"]
            start = self.writes_done * size
            service.insert(self.inserts[start:start + size])
            service.evict(np.arange(size))
            self.writes_done += 1
            return None
        result = service.search(self.queries[op.payload])
        number = len(self.served)
        self.served.append(None)
        if number % self.params["check_every"]:
            return None

        def keep_for_oracle():
            # The index as it stood when this query was served.
            self.served[number] = (op.payload, list(service.index.arrays),
                                   result.indices.copy(), result.distances.copy())
        return keep_for_oracle

    def instrument(self, tracer) -> None:
        index = self.service.index
        tracer.wrap(self.service, "search", "search.request")
        tracer.wrap(index, "lower_bounds", "search.lower_bounds")
        tracer.wrap(index, "insert", "search.index_write")
        tracer.wrap(index, "evict", "search.index_write")
        tracer.wrap(self.engine, "pairs", "engine.pairs")

    def check(self) -> dict:
        serial = MatrixEngine(strategy="serial", cache=None)
        mismatches = []
        overlaps = []
        kept = [entry for entry in self.served if entry is not None]
        for query_index, arrays, indices, distances in kept:
            row = cross_distance_matrix([self.queries[query_index]], arrays, "dtw",
                                        engine=serial)[0]
            expected = knn_from_matrix(row[None, :], K)[0]
            overlaps.append(_overlap(indices, expected))
            if not np.array_equal(indices, expected) or not np.allclose(
                    distances, row[expected], rtol=0.0, atol=1e-9):
                mismatches.append(f"query {query_index}: served {indices.tolist()} "
                                  f"!= serial {expected.tolist()}")
        return {"passed": bool(kept) and not mismatches, "checks": len(kept),
                "mismatches": mismatches,
                "hr10": float(np.mean(overlaps)) if overlaps else 0.0}

    def throughput(self, samples, wall: float) -> float:
        return sum(1 for kind, _, _ in samples if kind == "query") / wall

    def layers(self, tracer, requests, counters, samples) -> dict:
        totals = tracer.totals()
        n = requests
        hits = counters.get("engine.arena.hits", 0)
        return {
            "engine.pairs_s": _per(totals, "engine.pairs", "wall", n),
            "engine.dp_cells": counters.get("engine.dp_cells", 0),
            "engine.abandoned_frac": _frac(counters.get("search.abandoned", 0),
                                           counters.get("search.refined", 0)),
            "engine.arena_hit_frac": _frac(hits, hits
                                           + counters.get("engine.arena.misses", 0)
                                           + counters.get("engine.arena.appends", 0)),
            "engine.retries": _retries(counters),
            "search.lower_bounds_s": _per(totals, "search.lower_bounds", "wall", n),
            "search.request_self_s": _per(totals, "search.request", "self", n),
            "search.pruned_frac": _frac(counters.get("search.pruned", 0),
                                        counters.get("search.candidates", 0)),
            "search.refined_per_query": _frac(counters.get("search.refined", 0),
                                              counters.get("service.cache_misses", 0)),
            "search.result_cache_hit_frac": _frac(counters.get("service.cache_hits", 0),
                                                  counters.get("service.queries", 0)),
            "search.index_write_s": _per(totals, "search.index_write", "wall", n),
        }

    def deterministic(self, counters) -> dict:
        return {"engine.dp_cells": counters.get("engine.dp_cells", 0),
                "search.refined": counters.get("search.refined", 0),
                "service.cache_hits": counters.get("service.cache_hits", 0)}


# --------------------------------------------------------------------------
class EmbedRetrieval(Workload):
    """Table V online retrieval: LH-plugin top-k against plain Euclidean top-k.

    The database embeddings and 8-point factor sequences are synthesised as
    the Table V experiment does and pre-embedded in setup.  Each batch of
    query embeddings is answered twice, back to back: through the plugin
    (``embed_database`` → ``distance_matrix`` → ``knn_from_matrix``) and
    through :func:`repro.search.embedding_topk`.
    """

    name = "embed_retrieval"
    primary = "plugin"
    FULL = {"database": 20000, "dim": 128, "batch": 20, "sequence": 8, "min_ops": 200}
    SMOKE = {"database": 500, "dim": 32, "batch": 5, "sequence": 8, "min_ops": 8}

    def setup(self) -> None:
        p = self.params
        rng = np.random.default_rng(derive_seed(self.seed, 20))
        self.plugin = LHPlugin(LHPluginConfig(factor_dim=8))
        self.database = rng.normal(size=(p["database"], p["dim"]))
        sequences = [rng.random((p["sequence"], 2)) for _ in range(p["database"])]
        self.database_plugin = self.plugin.embed_database(self.database, sequences)
        # Warm-up request on both paths.
        queries, query_sequences = self._batch(-1)
        self._plugin_request(queries, query_sequences)
        embedding_topk(queries, self.database, K)
        self.first: dict = {}

    def _batch(self, index: int):
        p = self.params
        rng = np.random.default_rng([derive_seed(self.seed, 21), index + 1])
        queries = rng.normal(size=(p["batch"], p["dim"]))
        sequences = [rng.random((p["sequence"], 2)) for _ in range(p["batch"])]
        return queries, sequences

    def schedule(self):
        index = 0
        while True:
            batch = self._batch(index)
            yield Op("plugin", (index, batch))
            yield Op("euclid", (index, batch))
            index += 1

    def _plugin_request(self, queries, sequences):
        query_db = self.plugin.embed_database(queries, sequences)
        matrix = self.plugin.distance_matrix(query_db, self.database_plugin)
        return query_db, matrix, self._call("distances.topk", knn_from_matrix, matrix, K)

    def execute(self, op: Op):
        index, (queries, sequences) = op.payload
        if op.kind == "plugin":
            query_db, matrix, top = self._plugin_request(queries, sequences)
            if index == 0:
                self.first["plugin"] = (queries, query_db, matrix, top)
            return None
        top, _ = self._call("search.embedding_topk", embedding_topk, queries,
                            self.database, K)
        if index == 0:
            self.first["euclid"] = (queries, top)
        return None

    def instrument(self, tracer) -> None:
        tracer.wrap(self.plugin, "embed_database", "core.embed_query")
        tracer.wrap(self.plugin, "distance_matrix", "core.distance_matrix")
        # distance_matrix calls it through the class.
        tracer.wrap(DynamicFusion, "alpha_matrix", "core.alpha_matrix")

    def check(self) -> dict:
        mismatches = []
        overlaps = []
        queries, query_db, matrix, top = self.first["plugin"]
        db = self.database_plugin
        db_factors = tuple(Tensor(part) for part in db["factors"])
        count = len(self.database)
        with no_grad():
            for row in range(len(queries)):
                factors = tuple(Tensor(np.repeat(part[row:row + 1], count, axis=0))
                                for part in query_db["factors"])
                oracle = self.plugin.pair_distances_from(
                    Tensor(np.repeat(queries[row:row + 1], count, axis=0)),
                    Tensor(self.database), factors, db_factors).data
                expected = np.argsort(oracle, kind="stable")[:K]
                overlaps.append(_overlap(top[row], expected))
                error = np.abs(matrix[row] - oracle) / np.maximum(1.0, np.abs(oracle))
                if error.max() > 1e-9:
                    mismatches.append(f"plugin row {row}: max relative error "
                                      f"{error.max():.3e}")
                if not same_topk(top[row], oracle, K):
                    mismatches.append(f"plugin row {row}: top-{K} {top[row].tolist()} "
                                      f"!= oracle {expected.tolist()}")
        queries, top = self.first["euclid"]
        for row in range(len(queries)):
            norms = np.linalg.norm(self.database - queries[row], axis=1)
            if not same_topk(top[row], norms, K):
                mismatches.append(f"euclid row {row}: top-{K} {top[row].tolist()} != "
                                  f"{np.argsort(norms, kind='stable')[:K].tolist()}")
        return {"passed": not mismatches, "checks": 2 * len(queries),
                "mismatches": mismatches, "hr10": float(np.mean(overlaps))}

    def throughput(self, samples, wall: float) -> float:
        plugin = [seconds for kind, seconds, _ in samples if kind == "plugin"]
        return self.params["batch"] * len(plugin) / sum(plugin)

    def layers(self, tracer, requests, counters, samples) -> dict:
        totals = tracer.totals()
        n = requests
        untraced = {kind: [seconds for k, seconds, traced in samples
                           if k == kind and not traced]
                    for kind in ("plugin", "euclid")}
        return {
            "core.embed_query_s": _per(totals, "core.embed_query", "wall", n),
            "core.distance_matrix_s": _per(totals, "core.distance_matrix", "self", n),
            "core.alpha_matrix_s": _per(totals, "core.alpha_matrix", "wall", n),
            "core.plugin_overhead_frac": float(np.median(untraced["plugin"])
                                               / np.median(untraced["euclid"]) - 1.0),
            "core.db_bytes_overhead_frac": database_memory_bytes(self.database_plugin)
            / database_memory_bytes(self.database) - 1.0,
            "distances.topk_s": _per(totals, "distances.topk", "wall", n),
            "engine.retries": _retries(counters),
        }

    def deterministic(self, counters) -> dict:
        return {"core.db_bytes": database_memory_bytes(self.database_plugin)}


# --------------------------------------------------------------------------
class StreamMonitoring(Workload):
    """Continuous EDR top-k standing queries over live fleets.

    ``fleets`` independent fleets (each its own generated city and tick
    schedule) are each watched by a :class:`StreamMonitor` with its own
    pattern; one operation applies one tick of every fleet's schedule to its
    monitor.  A single standing query's cost swings with how its pattern
    happens to relate to the fleet (the refined-candidate count varies
    threefold across seeds), so several independent queries keep one draw
    from setting the run's cost.  The first tick, which builds every
    in-region DP frontier, runs in setup.  Every window intersects the
    watched region, so ``range_query`` prunes nothing here.
    """

    name = "stream_monitor"
    primary = "tick"
    REGION = (0.5, 0.5, 1.5, 1.5)
    FULL = {"fleets": 4, "streams": 50, "initial_points": 256, "ticks": 900,
            "pattern": 32, "min_ops": 150}
    SMOKE = {"fleets": 2, "streams": 15, "initial_points": 24, "ticks": 40,
             "pattern": 12, "min_ops": 10}

    def setup(self) -> None:
        p = self.params
        self.region = BoundingBox(*self.REGION)
        self.fleets = []
        self.monitors = []
        for fleet in range(p["fleets"]):
            schedule = generate_stream_workload(
                "chengdu", streams=p["streams"], ticks=p["ticks"],
                seed=derive_seed(self.seed, 300 + fleet),
                initial_points=p["initial_points"], update_fraction=0.15,
                mean_appends=2.0, evict_fraction=0.25)
            pattern = generate_dataset("chengdu", size=1,
                                       seed=derive_seed(self.seed, 400 + fleet))[0]
            monitor = StreamMonitor(schedule.initial,
                                    pattern.resample(p["pattern"]).coordinates,
                                    self.region, measure="edr", k=K, epsilon=0.25)
            first = schedule.ticks[0]
            monitor.tick(first.appends, first.evicts)
            self.fleets.append(schedule)
            self.monitors.append(monitor)
        self.ticks_done = 1

    def schedule(self):
        for tick in range(1, self.params["ticks"]):
            yield Op("tick", tick)

    def execute(self, op: Op):
        for schedule, monitor in zip(self.fleets, self.monitors):
            tick = schedule.ticks[op.payload]
            monitor.tick(tick.appends, tick.evicts)
        self.ticks_done += 1
        return None

    def instrument(self, tracer) -> None:
        for monitor in self.monitors:
            tracer.wrap(monitor, "tick", "search.tick")
            tracer.wrap(monitor.engine, "value", "stream.value")
            tracer.wrap(monitor.index, "range_query", "search.range_query")
            tracer.wrap(monitor.index, "update", "search.index_write")

    def check(self) -> dict:
        mismatches = []
        overlaps = []
        for fleet, (schedule, monitor) in enumerate(zip(self.fleets, self.monitors)):
            expected = self._brute_force(schedule, monitor.pattern)
            got = [(distance, stream) for stream, distance in monitor.topk()]
            overlaps.append(_overlap([s for _, s in got], [s for _, s in expected]))
            if ([s for _, s in got] != [s for _, s in expected] or not np.allclose(
                    [d for d, _ in got], [d for d, _ in expected], rtol=0.0, atol=1e-9)):
                mismatches.append(f"fleet {fleet}: monitor top-{K} {got} != "
                                  f"brute force {expected}")
        return {"passed": not mismatches, "checks": len(self.monitors),
                "mismatches": mismatches, "hr10": float(np.mean(overlaps))}

    def _brute_force(self, schedule, pattern) -> list[tuple[float, int]]:
        """Top-k over the final in-region windows, replayed on plain arrays."""
        windows = [np.array(window, dtype=np.float64) for window in schedule.initial]
        for tick in schedule.ticks[:self.ticks_done]:
            for stream, points in tick.appends.items():
                windows[stream] = np.concatenate([windows[stream], points])
            for stream, count in tick.evicts.items():
                windows[stream] = windows[stream][count:]
        box = self.region
        inside = [stream for stream, window in enumerate(windows)
                  if window[:, 0].min() <= box.max_lon and window[:, 0].max() >= box.min_lon
                  and window[:, 1].min() <= box.max_lat and window[:, 1].max() >= box.min_lat]
        values = get_batch_kernel("edr")([pattern] * len(inside),
                                         [windows[s] for s in inside], epsilon=0.25)
        return sorted(zip(np.asarray(values).tolist(), inside))[:K]

    def throughput(self, samples, wall: float) -> float:
        ticks = range(1, 1 + len(samples))
        points = sum(len(points) for schedule in self.fleets for tick in ticks
                     for points in schedule.ticks[tick].appends.values())
        return points / wall

    def layers(self, tracer, requests, counters, samples) -> dict:
        totals = tracer.totals()
        n = requests
        promotions = counters.get("stream.checkpoint_promotions", 0)
        skipped = counters.get("monitor.skipped_bound", 0)
        return {
            "stream.value_s": _per(totals, "stream.value", "wall", n),
            "stream.dp_cells": counters.get("stream.dp_cells", 0),
            "stream.replay_columns": counters.get("stream.replay_columns", 0),
            "stream.promotion_frac": _frac(promotions, promotions
                                           + counters.get("stream.replays", 0)),
            "search.index_write_s": _per(totals, "search.index_write", "wall", n),
            "search.range_query_s": _per(totals, "search.range_query", "wall", n),
            "search.monitor_skip_frac": _frac(skipped, skipped
                                              + counters.get("monitor.refined", 0)),
            "search.tick_self_s": _per(totals, "search.tick", "self", n),
            "engine.retries": _retries(counters),
        }

    def deterministic(self, counters) -> dict:
        return {"stream.dp_cells": counters.get("stream.dp_cells", 0),
                "stream.replay_columns": counters.get("stream.replay_columns", 0),
                "monitor.refined": counters.get("monitor.refined", 0)}


WORKLOADS = {workload.name: workload for workload in
             (OfflinePipeline, KnnServing, EmbedRetrieval, StreamMonitoring)}
