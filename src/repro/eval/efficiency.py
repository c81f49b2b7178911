"""Latency and memory probes for the efficiency experiment (Table V).

The paper's efficiency study pre-embeds the trajectory database offline and measures
the *online* retrieval cost: given a query embedding, compute its distance to every
database embedding and take the top-k.  Both paths share the Gram matmul and the
top-k selection (``knn_from_matrix``); the plugin adds O(nm) element-wise work on
top (the Lorentz distances from the Gram matrix, the fusion weights α and the blend;
projection is folded into the pre-embedding, whose entry holds ``‖x‖²`` and the
space-like scale per trajectory).  The plugin reads the database's squared norms
from that entry, while the Euclidean baseline recomputes them on every call, so
the baseline is not the cheapest possible Euclidean path.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from ..core import LHPlugin
from ..distances import knn_from_matrix
from .retrieval import euclidean_distance_matrix

__all__ = [
    "time_callable",
    "database_memory_bytes",
    "retrieval_latency",
    "retrieval_overhead",
    "matrix_build_latency",
    "search_latency",
    "EfficiencyResult",
]


class EfficiencyResult(dict):
    """Dict-like result of one efficiency measurement (keeps key order for reporting)."""


def time_callable(func: Callable[[], object], repeats: int = 3) -> float:
    """Median wall-clock time of ``func()`` over ``repeats`` runs (seconds)."""
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def database_memory_bytes(database: dict | np.ndarray) -> int:
    """Bytes consumed by a pre-embedded database (plain embeddings or plugin dict)."""
    if isinstance(database, np.ndarray):
        return int(database.nbytes)
    total = 0
    for value in database.values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, tuple):
            total += sum(item.nbytes for item in value if isinstance(item, np.ndarray))
    return int(total)


def matrix_build_latency(trajectories, measure: str = "dtw", engine=None,
                         repeats: int = 3, **measure_kwargs) -> EfficiencyResult:
    """Wall-clock cost of building the pairwise ground-truth matrix with an engine.

    This is the offline counterpart of :func:`retrieval_latency`: the dominant
    pre-processing cost of every experiment is the O(n²) ground-truth matrix, and
    this probe is how the engine micro-benchmarks compare execution strategies.
    Caching is bypassed (each run recomputes) so the measurement reflects compute,
    not cache hits.
    """
    from ..engine import MatrixEngine

    engine = engine or MatrixEngine()
    probe = MatrixEngine(strategy=engine.strategy, use_kernels=engine.use_kernels,
                         cache=None, chunk_size=engine.chunk_size,
                         max_workers=engine.max_workers,
                         # engine.chunk_bytes is the *resolved* budget (None =
                         # disabled); -1 re-disables it on the probe copy.
                         chunk_bytes=engine.chunk_bytes
                         if engine.chunk_bytes is not None else -1)
    latency = time_callable(
        lambda: probe.pairwise(trajectories, measure, **measure_kwargs),
        repeats=repeats)
    return EfficiencyResult(
        latency_seconds=latency,
        num_trajectories=len(trajectories),
        measure=measure,
        strategy=probe.strategy,
        use_kernels=probe.use_kernels,
        max_workers=probe.max_workers,
    )


def search_latency(trajectories, queries, k: int = 10, measure: str = "dtw",
                   engine=None, batch_size: int | None = None, repeats: int = 3,
                   exclude_self: bool = False, **measure_kwargs) -> EfficiencyResult:
    """Online top-k latency through the filter-and-refine search service.

    The index is built once (offline, like the paper's pre-embedding step) and the
    measurement covers serving every query through a fresh
    :class:`~repro.search.SearchService`, so *result* cache effects across
    repeats are excluded while pruning statistics reflect a cold service.  The
    shared-memory arena cache is deliberately left on (it is keyed by index
    content, not by service): under the ``shared`` strategy repeats after the
    first reuse the packed database segment, exactly as a warm deployment
    would, and the probe reports the hit/miss split.  The last service is
    closed after the measurement so the probe leaks no shared memory.
    Alongside latency, the result reports how many candidate refinements the
    lower bounds avoided — the quantity the search micro-benchmark gates on.
    """
    from ..engine.arena_cache import get_arena_cache
    from ..search import SearchService, TrajectoryIndex

    index = trajectories if isinstance(trajectories, TrajectoryIndex) \
        else TrajectoryIndex(trajectories)
    last_service: dict = {}

    def run() -> None:
        service = SearchService(index, measure=measure, k=k, engine=engine,
                                batch_size=batch_size, **measure_kwargs)
        service.search_many(queries, k=k, exclude_self=exclude_self)
        last_service["service"] = service

    arena_cache = get_arena_cache()
    arena_before = (arena_cache.hits, arena_cache.misses)
    try:
        latency = time_callable(run, repeats=repeats)
        stats = last_service["service"].stats()
    finally:
        service = last_service.get("service")
        if service is not None:
            service.close()
    return EfficiencyResult(
        latency_seconds=latency,
        latency_per_query_seconds=latency / max(len(queries), 1),
        database_size=len(index),
        num_queries=len(queries),
        k=k,
        measure=measure,
        num_candidates=stats["num_candidates"],
        num_refined=stats["num_refined"],
        num_pruned=stats["num_pruned"],
        pruned_fraction=stats["pruned_fraction"],
        index_generation=index.generation,
        index_shards=getattr(index, "num_shards", 1),
        arena_hits=arena_cache.hits - arena_before[0],
        arena_misses=arena_cache.misses - arena_before[1],
    )


def retrieval_latency(query_embeddings: np.ndarray, database_embeddings: np.ndarray,
                      k: int = 10, plugin: LHPlugin | None = None,
                      query_sequences=None, database_sequences=None,
                      repeats: int = 3) -> EfficiencyResult:
    """Measure top-k retrieval latency and database memory, with or without the plugin.

    Without a plugin, retrieval is brute-force Euclidean top-k.  With a plugin, the
    database is pre-embedded once (projection + factor vectors, excluded from the
    online latency, as in the paper) and the online step computes the fused distance
    matrix before the top-k selection.
    """
    run, result = _retrieval_probe(query_embeddings, database_embeddings, k, plugin,
                                   query_sequences, database_sequences)
    result["latency_seconds"] = time_callable(run, repeats=repeats)
    return result


def retrieval_overhead(query_embeddings: np.ndarray, database_embeddings: np.ndarray,
                       plugin: LHPlugin, query_sequences, database_sequences,
                       k: int = 10, repeats: int = 3
                       ) -> tuple[EfficiencyResult, EfficiencyResult, list[float]]:
    """Time Euclidean and plugin retrieval interleaved on the same arrays.

    Both paths run once untimed (warm-up), then each repeat times one call of
    each, alternating which goes first, so machine drift lands on both sides
    of every repeat.  Returns the baseline and plugin results (median
    latencies, as :func:`retrieval_latency` reports them) and the per-repeat
    ``plugin / baseline`` latency ratios.
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    probes = [_retrieval_probe(query_embeddings, database_embeddings, k, None,
                               None, None),
              _retrieval_probe(query_embeddings, database_embeddings, k, plugin,
                               query_sequences, database_sequences)]
    for run, _ in probes:
        run()
    samples: list[list[float]] = [[], []]
    for repeat in range(repeats):
        for side in ((0, 1) if repeat % 2 == 0 else (1, 0)):
            start = time.perf_counter()
            probes[side][0]()
            samples[side].append(time.perf_counter() - start)
    (_, baseline), (_, plugged) = probes
    baseline["latency_seconds"] = float(np.median(samples[0]))
    plugged["latency_seconds"] = float(np.median(samples[1]))
    ratios = [with_plugin / without for without, with_plugin in zip(*samples)]
    return baseline, plugged, ratios


def _retrieval_probe(query_embeddings, database_embeddings, k: int,
                     plugin: LHPlugin | None, query_sequences, database_sequences
                     ) -> tuple[Callable[[], np.ndarray], EfficiencyResult]:
    """The online top-k step as a callable, and its result without a latency."""
    query_embeddings = np.asarray(query_embeddings, dtype=np.float64)
    database_embeddings = np.asarray(database_embeddings, dtype=np.float64)
    k = min(k, len(database_embeddings))

    if plugin is None:
        database: dict | np.ndarray = database_embeddings

        def run() -> np.ndarray:
            return knn_from_matrix(
                euclidean_distance_matrix(query_embeddings, database_embeddings), k)
    else:
        database = plugin.embed_database(database_embeddings, database_sequences)
        query_db = plugin.embed_database(query_embeddings, query_sequences)

        def run() -> np.ndarray:
            return knn_from_matrix(plugin.distance_matrix(query_db, database), k)

    return run, EfficiencyResult(
        latency_seconds=None,
        memory_bytes=database_memory_bytes(database),
        database_size=len(database_embeddings),
        num_queries=len(query_embeddings),
        k=k,
        with_plugin=plugin is not None,
    )
