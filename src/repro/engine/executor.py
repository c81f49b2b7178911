"""Pluggable matrix-construction engine (serial / chunked / shared strategies).

:class:`MatrixEngine` owns the two hot paths of every experiment: building pairwise
and cross distance matrices, and computing triplet violation statistics.  Layers
above (``distances.matrix``, ``experiments.runner``, ``eval.efficiency``) route
through an engine instance instead of looping in place, so execution policy is a
configuration knob rather than a code path:

* ``serial`` — one pair at a time; with ``use_kernels=False`` this is exactly the
  historical reference loop (it remains the baseline of the parity suite and the
  micro-benchmarks).
* ``chunked`` — pairs are grouped into chunks and each chunk is dispatched to a
  batched wavefront kernel (:mod:`repro.engine.kernels`) when the measure has one,
  which amortises NumPy call overhead across the whole chunk.
* ``shared`` — chunks are distributed over a persistent worker pool (started
  lazily, reused across calls, shut down via ``atexit`` or
  :meth:`MatrixEngine.close`) fed through a packed
  :class:`~repro.engine.shared.TrajectoryArena` — every point array of the call
  published once through ``multiprocessing.shared_memory``, so each chunk ships
  only integer pair indices and threshold slices instead of pickled arrays.
  Measures must be picklable (registered names always are).

Results are cached in an optional :class:`~repro.engine.cache.MatrixCache` keyed by
the trajectory content fingerprint, the measure and its kwargs.

Two knobs bound resource use per chunk: ``chunk_size`` caps the pair count, and
``chunk_bytes`` (environment variable ``REPRO_ENGINE_CHUNK_BYTES``) caps the
padded DP tensor footprint, so a handful of very long trajectories cannot blow
up peak RSS just because they share a chunk.  ``max_workers`` (environment
variable ``REPRO_ENGINE_MAX_WORKERS``) sizes the ``shared`` pool.
:meth:`MatrixEngine.pairs` additionally forwards per-pair ``thresholds`` into
the τ-aware batch kernels — the refinement half of the search subsystem's
bound → τ → in-kernel-abandon cascade.

Pool workers return per-chunk ``(values, obs_delta)`` pairs: the chunk's
distances and a serialized :mod:`repro.obs` registry delta covering *every*
counter and histogram the chunk touched (the total and per-measure
``engine.dp_cells`` counters among them).  The parent folds each delta
exactly once after the whole dispatch resolves, which keeps the telemetry
snapshot equal under every strategy, including across a
``BrokenProcessPool`` retry.

Telemetry spans (on when ``REPRO_OBS`` says so) bracket each public call
(``engine.pairs`` / ``engine.pairwise`` / ``engine.cross``, tagged with
measure and strategy), the shared-memory arena pack (``engine.pack``), each
pool dispatch (``engine.dispatch``) and each batch-kernel invocation
(``engine.kernel``, tagged with measure and backend).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..config import EnvError, env_int, env_raw
from ..distances.base import get_distance, get_kernel
from ..obs import registry as obs_registry
from ..obs import spans as obs_spans
from ..obs.spans import span
from ..resilience import faults
from ..resilience.errors import (
    DeadlineExceededError,
    RetryBudgetExceededError,
    TransientFaultError,
)
from ..resilience.breaker import DegradationLadder
from ..resilience.policy import ResiliencePolicy
from . import shared
from .backends import resolve_backend
from .cache import MatrixCache, cache_key, fingerprint_trajectories
from .kernels import get_batch_kernel

__all__ = ["MatrixEngine", "get_default_engine", "set_default_engine", "STRATEGIES",
           "DEFAULT_CHUNK_BYTES", "CanonicalArrays", "as_canonical_arrays"]

STRATEGIES = ("serial", "chunked", "shared")

#: Worker-side failures a retry round may fix.  Everything else raised by a
#: chunk is a bug in the measure or the caller's data and propagates.
_RETRYABLE = (BrokenProcessPool, TransientFaultError)

_STRATEGY_ENV = "REPRO_ENGINE_STRATEGY"
_CHUNK_BYTES_ENV = "REPRO_ENGINE_CHUNK_BYTES"
_MAX_WORKERS_ENV = "REPRO_ENGINE_MAX_WORKERS"

#: Default cap on the padded per-chunk DP tensor footprint (cost + table), in
#: bytes.  Generous enough that typical workloads keep their full
#: ``chunk_size`` batches; very long trajectories split into smaller chunks
#: instead of blowing up peak RSS.
DEFAULT_CHUNK_BYTES = 64 * 1024 * 1024


def _default_chunk_bytes() -> int | None:
    """Chunk byte budget from ``REPRO_ENGINE_CHUNK_BYTES`` (≤ 0 disables)."""
    parsed = env_int(_CHUNK_BYTES_ENV, DEFAULT_CHUNK_BYTES)
    return parsed if parsed > 0 else None


def _default_max_workers() -> int:
    """Pool size from ``REPRO_ENGINE_MAX_WORKERS`` (must be a positive integer)."""
    return env_int(_MAX_WORKERS_ENV, min(4, os.cpu_count() or 1), minimum=1)


def _default_strategy() -> str:
    """Strategy from ``REPRO_ENGINE_STRATEGY`` (one of :data:`STRATEGIES`)."""
    strategy = env_raw(_STRATEGY_ENV) or "chunked"
    if strategy not in STRATEGIES:
        raise EnvError(f"{_STRATEGY_ENV} must be one of {STRATEGIES}, "
                       f"got {strategy!r}")
    return strategy


class CanonicalArrays(list):
    """A list of point arrays already in the engine's canonical form.

    Elements are guaranteed to be 2-D ``float64`` NumPy arrays, so
    :func:`_point_arrays` passes the list through untouched.  Long-lived
    holders of trajectory collections (:class:`~repro.search.TrajectoryIndex`)
    convert once at build time and tag the result, which stops every
    ``engine.pairs`` refinement batch from re-walking the same database
    trajectories through ``np.asarray``.
    """

    __slots__ = ()


def as_canonical_arrays(trajectories: Sequence) -> CanonicalArrays:
    """Convert a trajectory collection to canonical point arrays, once.

    Canonical means C-contiguous ``float64``: the compiled backends index
    row-major, so coercing here (``np.ascontiguousarray`` returns the input
    object unchanged when it already qualifies) guarantees jitted kernels
    never silently copy the same database trajectory on every refinement call.
    """
    if isinstance(trajectories, CanonicalArrays):
        return trajectories
    return CanonicalArrays(
        np.ascontiguousarray(getattr(t, "points", t), dtype=np.float64)
        for t in trajectories)


def _pair_function(measure, use_kernels: bool, backend=None):
    """Per-pair distance callable: vectorized kernel if allowed, else the reference.

    ``backend`` (a resolved :class:`~repro.engine.backends.KernelBackend`) gets
    first pick; a measure the backend does not cover falls through to the
    reference numpy kernel, then to the reference distance function.
    """
    if callable(measure):
        return measure
    if use_kernels:
        kernel = backend.pair_kernel(measure) if backend is not None else None
        if kernel is None:
            kernel = get_kernel(measure)
        if kernel is not None:
            return kernel
    return get_distance(measure)


def _chunk_values(list_a: Sequence, list_b: Sequence, measure, measure_kwargs: dict,
                  use_kernels: bool, thresholds=None, backend=None) -> np.ndarray:
    """Distances for aligned trajectory lists, batched when a batch kernel exists.

    ``thresholds`` (per-pair abandon thresholds) only reach a batch kernel —
    they are an optimisation contract, not a semantic one, so reference loops
    and callable measures simply compute the full distance.  ``backend`` is a
    resolved :class:`~repro.engine.backends.KernelBackend` (None means the
    numpy reference lookup, preserving the historical path).
    """
    if use_kernels and isinstance(measure, str):
        batch = backend.batch_kernel(measure) if backend is not None else None
        if batch is None:
            batch = get_batch_kernel(measure)
        if batch is not None:
            with span("engine.kernel", measure=measure,
                      backend=backend.name if backend is not None else "numpy"):
                if thresholds is not None:
                    return np.asarray(batch(list_a, list_b, thresholds=thresholds,
                                            **measure_kwargs), dtype=np.float64)
                return np.asarray(batch(list_a, list_b, **measure_kwargs),
                                  dtype=np.float64)
    func = _pair_function(measure, use_kernels, backend)
    return np.array([func(a, b, **measure_kwargs) for a, b in zip(list_a, list_b)],
                    dtype=np.float64)


@dataclass(frozen=True)
class _DispatchContext:
    """What every chunk of one ``shared`` dispatch has in common.

    Built once per dispatch and shipped with each task
    ``(_worker_chunk, context, idx_a, idx_b, taus)``.  ``backend`` is the
    parent's *resolved backend name*; ``obs_mode`` and ``fault_spec`` are the
    parent's observability mode and :func:`repro.resilience.current_spec`
    token at submit time — persistent pool workers may have been forked
    before the parent (or a test) switched either, so each chunk re-aligns
    explicitly instead of trusting fork inheritance.  ``extras`` are the
    arrays outside the arena, addressed by negative slots ``-1 - e``.
    """

    arena_name: str
    measure: object
    measure_kwargs: dict
    use_kernels: bool
    backend: str | None
    obs_mode: int
    fault_spec: tuple | None
    extras: tuple


def _worker_chunk(context: _DispatchContext, idx_a, idx_b, thresholds):
    """Pool worker entrypoint, top-level so its tasks pickle.

    Aligns the fault plan, attaches the arena (the ``shm_attach_fail`` site),
    passes the ``worker_crash`` and ``slow_worker`` sites, aligns the obs
    mode, then re-resolves the backend (non-strict: a worker without numba
    degrades to numpy with a warning instead of poisoning the pool) and pays
    JIT warm-up once per process, outside any timed chunk the caller
    measures.  Returns ``(values, obs_delta)``: the chunk's distances and a
    picklable ``Registry.delta_since`` dict covering every telemetry
    instrument the chunk touched (the DP cells its kernels computed, split
    per measure, and any span histograms when observability is on), which
    the parent merges exactly once.
    """
    faults.ensure_plan(context.fault_spec)
    list_a, list_b = shared.attach_pairs(context.arena_name, idx_a, idx_b,
                                         context.extras)
    faults.fault_point("worker_crash")
    faults.fault_point("slow_worker")
    if context.obs_mode != obs_spans.obs_mode():
        obs_spans.set_obs_mode(context.obs_mode)
    resolved = None
    if context.backend is not None and context.use_kernels:
        resolved = resolve_backend(context.backend, strict=False)
        if resolved.compiled:
            resolved.warmup()
    registry = obs_registry.get_registry()
    mark = registry.checkpoint()
    values = _chunk_values(list_a, list_b, context.measure,
                           context.measure_kwargs, context.use_kernels,
                           thresholds=thresholds, backend=resolved)
    return values, registry.delta_since(mark)


def _slot_tables(arrays_a, arrays_b, packed=None):
    """Arena slot vectors for both sides, plus the arrays they ship as extras.

    An array takes its slot in the pinned arena ``packed`` when it has one;
    every other array is deduplicated by object identity into ``extras`` and
    addressed by the negative slot ``-1 - e`` — so an array appearing many
    times (the repeated query of a ``pairs`` refinement batch, or both sides
    of a pairwise call) is shipped once.
    """
    extras: list = []
    extra_slots: dict[int, int] = {}

    def table(arrays) -> np.ndarray:
        out = np.empty(len(arrays), dtype=np.int64)
        for position, array in enumerate(arrays):
            index = None if packed is None else packed.slot_of(array)
            if index is None:
                key = id(array)
                extra = extra_slots.get(key)
                if extra is None:
                    extra = extra_slots[key] = len(extras)
                    extras.append(array)
                index = -1 - extra
            out[position] = index
        return out

    slot_a = table(arrays_a)
    slot_b = slot_a if arrays_b is arrays_a else table(arrays_b)
    return slot_a, slot_b, extras


class MatrixEngine:
    """Compute engine for distance matrices and batched violation statistics."""

    def __init__(self, strategy: str = "chunked", use_kernels: bool = True,
                 cache: MatrixCache | None = None, chunk_size: int = 128,
                 max_workers: int | None = None, chunk_bytes: int | None = None,
                 backend: str | None = None,
                 policy: ResiliencePolicy | None = None):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy '{strategy}'; options: {STRATEGIES}")
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.strategy = strategy
        # ``policy`` bounds failure handling on pool dispatch (deadline, retry
        # budget, backoff, degradation).  None reads REPRO_ENGINE_DEADLINE /
        # REPRO_ENGINE_RETRIES; the defaults subsume the historical behaviour
        # (one whole-dispatch BrokenProcessPool retry, no deadline).
        self.policy = policy if policy is not None else ResiliencePolicy.from_env()
        self._breaker = (DegradationLadder(self.policy.breaker_threshold,
                                           self.policy.probe_interval)
                         if self.policy.degrade else None)
        self.use_kernels = use_kernels
        # ``backend`` names the kernel backend ("numpy", "numba", "auto" or a
        # registered third party); None defers to set_backend() / the
        # REPRO_KERNEL_BACKEND environment variable / auto at call time, so a
        # long-lived engine follows process-wide backend switches.  An explicit
        # unknown name fails here; availability is checked when work runs.
        self.backend = backend
        if backend is not None:
            resolve_backend(backend, strict=False)  # validate the name early
        self.cache = cache
        self.chunk_size = chunk_size
        # ``max_workers`` sizes the shared pool.  None defers to
        # REPRO_ENGINE_MAX_WORKERS / min(4, cpu_count); an explicit value must
        # be positive (a silent fallback here once masked max_workers=0 bugs).
        if max_workers is None:
            self.max_workers = _default_max_workers()
        else:
            self.max_workers = int(max_workers)
            if self.max_workers <= 0:
                raise ValueError(f"max_workers must be a positive integer, "
                                 f"got {max_workers!r}")
        #: Dispatch accounting of the most recent multi-chunk run: strategy,
        #: chunk count, per-task payload bytes (the index/threshold metadata
        #: ``shared`` ships, plus any extras riding along) and the bytes
        #: published once through the shared-memory arena.  The parallel
        #: micro-benchmark reads this to record bytes-shipped reductions.
        self.last_dispatch: dict | None = None
        # ``chunk_bytes`` caps the padded DP tensor footprint of one chunk (an
        # adaptive memory budget complementing the fixed pair-count cap).  None
        # defers to REPRO_ENGINE_CHUNK_BYTES / the default; <= 0 disables the cap.
        if chunk_bytes is None:
            self.chunk_bytes: int | None = _default_chunk_bytes()
        else:
            self.chunk_bytes = int(chunk_bytes) if chunk_bytes > 0 else None

    def __repr__(self) -> str:
        return (f"MatrixEngine(strategy={self.strategy!r}, use_kernels={self.use_kernels}, "
                f"backend={self.backend or 'auto'!r}, "
                f"chunk_size={self.chunk_size}, chunk_bytes={self.chunk_bytes}, "
                f"cache={'on' if self.cache is not None else 'off'})")

    def resolved_backend(self):
        """The :class:`~repro.engine.backends.KernelBackend` this engine's next
        call will use (None when kernels are disabled entirely)."""
        if not self.use_kernels:
            return None
        return resolve_backend(self.backend)

    # ------------------------------------------------------------- matrix API
    def pairwise(self, trajectories: Sequence, measure="dtw", arena=None,
                 **measure_kwargs) -> np.ndarray:
        """Symmetric matrix of distances between every pair of ``trajectories``.

        ``arena`` — an optional pinned :class:`~repro.engine.arena_cache.CachedArena`
        already packing (some of) the trajectories; under the ``shared``
        strategy the dispatch reuses it instead of packing a per-call arena.
        """
        with span("engine.pairwise", measure=_measure_tag(measure),
                  strategy=self.strategy):
            arrays = _point_arrays(trajectories)
            n = len(arrays)
            key = self._cache_lookup_key(arrays, measure, measure_kwargs, "pairwise")
            if key is not None:
                cached = self.cache.get(key)
                if cached is not None:
                    return cached
            matrix = np.zeros((n, n))
            if n >= 2:
                rows, cols = np.triu_indices(n, k=1)
                values = self._run(arrays, arrays, rows, cols, measure,
                                   measure_kwargs, arena=arena)
                matrix[rows, cols] = values
                matrix[cols, rows] = values
            if key is not None:
                self.cache.put(key, matrix)
            return matrix

    def cross(self, queries: Sequence, database: Sequence, measure="dtw",
              arena=None, **measure_kwargs) -> np.ndarray:
        """Matrix of distances from every query to every database trajectory.

        ``arena`` — optional pinned cached arena, as on :meth:`pairwise`.
        """
        with span("engine.cross", measure=_measure_tag(measure),
                  strategy=self.strategy):
            query_arrays = _point_arrays(queries)
            database_arrays = _point_arrays(database)
            key = self._cache_lookup_key(query_arrays + database_arrays, measure,
                                         measure_kwargs, f"cross:{len(query_arrays)}")
            if key is not None:
                cached = self.cache.get(key)
                if cached is not None:
                    return cached
            matrix = np.zeros((len(query_arrays), len(database_arrays)))
            if matrix.size:
                grid = np.indices(matrix.shape)
                rows, cols = grid[0].ravel(), grid[1].ravel()
                values = self._run(query_arrays, database_arrays, rows, cols,
                                   measure, measure_kwargs, arena=arena)
                matrix[rows, cols] = values
            if key is not None:
                self.cache.put(key, matrix)
            return matrix

    def pairs(self, list_a: Sequence, list_b: Sequence, measure="dtw",
              thresholds=None, arena=None, **measure_kwargs) -> np.ndarray:
        """Distances for aligned trajectory pairs ``(list_a[i], list_b[i])``.

        This is the refinement primitive of the search subsystem: a top-k query
        refines a *subset* of candidates against one query, which is a ragged pair
        list rather than a full matrix.  Runs under the configured strategy and
        kernel policy; results are never cached (the pair lists are query-shaped
        and would only pollute the matrix cache).

        ``thresholds`` — optional ``(len(list_a),)`` per-pair abandon thresholds
        (the kNN heap's τ) forwarded into the batched wavefront kernels, which
        stop a pair's DP sweep — reporting ``+inf`` — as soon as its running
        lower bound strictly exceeds its threshold.  The chunked and shared
        strategies slice the vector per chunk (slices ride along to pool
        workers); the serial strategy threads one threshold per pair.  Measures
        without a batch kernel (and ``use_kernels=False``) compute full
        distances, so thresholds are purely an optimisation: a finite result is
        always the exact distance.

        ``arena`` — an optional pinned
        :class:`~repro.engine.arena_cache.CachedArena` that already packs the
        database side of the pairs (the serving fast path): under the
        ``shared`` strategy, multi-chunk dispatch resolves each array to its
        cached arena slot instead of packing a fresh per-call arena, and the
        few arrays outside the arena (typically just the query) ride along
        in every task.  Other strategies ignore it.
        """
        with span("engine.pairs", measure=_measure_tag(measure),
                  strategy=self.strategy):
            arrays_a = _point_arrays(list_a)
            arrays_b = _point_arrays(list_b)
            if len(arrays_a) != len(arrays_b):
                raise ValueError("pairs() needs aligned lists of equal length")
            if not arrays_a:
                return np.zeros(0)
            if thresholds is not None:
                thresholds = np.asarray(thresholds, dtype=np.float64)
                if thresholds.shape != (len(arrays_a),):
                    raise ValueError(f"thresholds must have shape ({len(arrays_a)},), "
                                     f"got {thresholds.shape}")
            positions = np.arange(len(arrays_a))
            return self._run(arrays_a, arrays_b, positions, positions, measure,
                             measure_kwargs, thresholds=thresholds, arena=arena)

    def violation_statistics(self, matrix: np.ndarray, max_triplets: int | None = None,
                             seed: int = 0, tolerance: float = 1e-12,
                             vectorized: bool = True) -> dict:
        """Triplet statistics (RV / ARVS) via the batched broadcasting path.

        Independent of ``use_kernels``: that flag selects distance kernels, which
        the triplet statistics never touch.  Pass ``vectorized=False`` to force the
        scalar reference walk.
        """
        from ..violation.metrics import violation_report

        return violation_report(matrix, max_triplets=max_triplets, seed=seed,
                                tolerance=tolerance, vectorized=vectorized)

    # --------------------------------------------------------------- internals
    def _cache_lookup_key(self, arrays, measure, measure_kwargs, kind) -> str | None:
        # Callable measures are not cached: their identity cannot be fingerprinted
        # reliably (two different lambdas share a qualname).
        if self.cache is None or not isinstance(measure, str):
            return None
        return cache_key(fingerprint_trajectories(arrays), measure, measure_kwargs, kind)

    def _plan_chunks(self, order, len_a, len_b) -> list[np.ndarray]:
        """Split the size-sorted pair order into chunks under both caps.

        A chunk closes at ``chunk_size`` pairs or as soon as adding the next
        pair would push the padded DP tensor footprint — cost plus table, both
        float64, every pair padded to the chunk's maximum lengths — past
        ``chunk_bytes``.  The estimate is ``16·count·(max_n+1)·(max_m+1)``;
        chunk membership only changes padding, never any pair's arithmetic.
        ``len_a``/``len_b`` are the per-pair trajectory lengths in the same
        (unsorted) indexing as ``order``.
        """
        if self.chunk_bytes is None:
            return [order[start:start + self.chunk_size]
                    for start in range(0, len(order), self.chunk_size)]
        sorted_n = len_a[order]
        sorted_m = len_b[order]
        chunks = []
        start = 0
        while start < len(order):
            cap = min(start + self.chunk_size, len(order))
            window_n = np.maximum.accumulate(sorted_n[start:cap])
            window_m = np.maximum.accumulate(sorted_m[start:cap])
            counts = np.arange(1, cap - start + 1)
            projected = 16 * counts * (window_n + 1) * (window_m + 1)
            over = projected > self.chunk_bytes
            # First pair over budget closes the chunk; a chunk always takes at
            # least one pair, however tight the budget.
            take = max(int(np.argmax(over)), 1) if over.any() else cap - start
            chunks.append(order[start:start + take])
            start += take
        return chunks

    def _run_serial(self, arrays_a, arrays_b, rows, cols, measure,
                    measure_kwargs, thresholds, backend) -> np.ndarray:
        """The one-pair-at-a-time reference path (and the ladder's last rung)."""
        func = _pair_function(measure, self.use_kernels, backend)
        # The per-pair kernels expose abandoning as a scalar threshold=;
        # only a measure whose *resolved* callable came from a backend that
        # declares threshold support for it is known to honour the keyword
        # — the reference fallback must never see it.
        if (thresholds is not None and isinstance(measure, str)
                and backend is not None
                and func is backend.pair_kernel(measure)
                and backend.supports_threshold(measure)):
            return np.array([
                func(arrays_a[i], arrays_b[j],
                     threshold=float(thresholds[index]), **measure_kwargs)
                for index, (i, j) in enumerate(zip(rows, cols))
            ], dtype=np.float64)
        return np.array([func(arrays_a[i], arrays_b[j], **measure_kwargs)
                         for i, j in zip(rows, cols)], dtype=np.float64)

    def _run(self, arrays_a, arrays_b, rows, cols, measure, measure_kwargs,
             thresholds=None, arena=None) -> np.ndarray:
        # Resolve the kernel backend once per run (cheap dict lookups): the
        # engine's explicit backend, else set_backend()/env/auto.  Kernel-less
        # engines never resolve — the reference loop is backend-free.
        backend = resolve_backend(self.backend) if self.use_kernels else None
        # The degradation ladder may substitute a humbler strategy than the
        # one requested; every rung is bit-identical, so this is invisible in
        # the values (the one-time RuntimeWarning and resilience.* counters
        # are the record).
        breaker = self._breaker if self.strategy == "shared" else None
        effective = (breaker.effective_strategy()
                     if breaker is not None else self.strategy)
        if effective == "serial":
            return self._run_serial(arrays_a, arrays_b, rows, cols, measure,
                                    measure_kwargs, thresholds, backend)
        # Group pairs of similar size into the same chunk: the batch kernels pad every
        # pair in a chunk to the chunk's maximum lengths, so sorting bounds the wasted
        # padded work regardless of how skewed the length distribution is.
        len_a = np.fromiter((len(arrays_a[i]) for i in rows), dtype=np.int64,
                            count=len(rows))
        len_b = np.fromiter((len(arrays_b[j]) for j in cols), dtype=np.int64,
                            count=len(rows))
        order = np.argsort(len_a * len_b, kind="stable")
        plan = self._plan_chunks(order, len_a, len_b)

        def inline_chunk(positions) -> np.ndarray:
            return _chunk_values([arrays_a[rows[p]] for p in positions],
                                 [arrays_b[cols[p]] for p in positions],
                                 measure, measure_kwargs, self.use_kernels,
                                 thresholds=None if thresholds is None
                                 else thresholds[positions], backend=backend)

        if effective == "chunked" or len(plan) == 1:
            # Single-chunk work never leaves the process, whatever the strategy:
            # a pool round-trip (let alone an arena) cannot pay for itself on one
            # chunk, and small ``pairs`` refinement batches hit this constantly.
            parts = [(positions, inline_chunk(positions)) for positions in plan]
            if breaker is not None and effective != "shared" and len(plan) > 1:
                # A degraded in-process call counts toward the probe streak:
                # multi-chunk calls are the ones that would exercise the pool
                # again after recovery.
                breaker.record_success()
        else:
            try:
                parts = self._run_shared(arrays_a, arrays_b, rows, cols, plan,
                                         measure, measure_kwargs, thresholds,
                                         backend, packed=arena)
            except RetryBudgetExceededError as error:
                # The budget drained.  Fold the deltas of the chunks that DID
                # land (their work is real and must count exactly once),
                # then either surface the failure or — with the ladder on —
                # finish the unfinished chunks in-process and step down.
                registry = obs_registry.get_registry()
                for _positions, _values, delta in error.partial:
                    registry.merge_delta(delta)
                if breaker is None:
                    raise
                breaker.record_failure()
                registry.counter("resilience.fallback_chunks").add(
                    len(error.pending))
                parts = [(positions, values)
                         for positions, values, _delta in error.partial]
                parts.extend((positions, inline_chunk(positions))
                             for positions in error.pending)
                if self.last_dispatch is not None:
                    self.last_dispatch["fallback_chunks"] = len(error.pending)
            else:
                if breaker is not None:
                    breaker.record_success()
        values = np.zeros(len(rows))
        for positions, part in parts:
            values[positions] = part
        return values

    def _run_shared(self, arrays_a, arrays_b, rows, cols, plan, measure,
                    measure_kwargs, thresholds, backend=None,
                    packed=None) -> list[tuple[np.ndarray, np.ndarray]]:
        """Persistent pool fed through a packed shared-memory arena.

        With ``packed`` (a pinned :class:`~repro.engine.arena_cache.CachedArena`
        covering the database side) the dispatch reuses the cached segment:
        arrays outside it ride along as extras, and nothing is packed or
        unlinked here — the cache owns the segment's lifetime and the pin
        keeps it valid across every chunk and across a ``BrokenProcessPool``
        retry.

        Otherwise a per-call arena publishes every distinct point array of
        this call once; chunks ship only ``(context, pair-index vectors,
        threshold slice)``, and the arena is closed *and unlinked* in a
        ``finally`` block after every future has settled, so worker
        exceptions cannot leak shared memory.  A pool whose worker died
        (``BrokenProcessPool``) is discarded and the *unfinished* chunks
        re-dispatched on a fresh pool within the policy's retry budget — the
        arena stays valid across every round.
        """
        if packed is not None:
            slot_a, slot_b, extras = _slot_tables(arrays_a, arrays_b, packed)
            obs_registry.get_registry().counter("engine.arena.reused_dispatches").add(1)
            return self._dispatch_shared(plan, packed.arena, rows, cols,
                                         slot_a, slot_b, measure, measure_kwargs,
                                         thresholds, backend, extras, reused=True)
        with span("engine.pack", strategy="shared"):
            slot_a, slot_b, arena_arrays = _slot_tables(arrays_a, arrays_b)
            arena_cm = shared.TrajectoryArena(arena_arrays)
        # With nothing pinned every array is an extra, packed in order:
        # extra ``e`` is arena slot ``e``.
        with arena_cm as arena:
            return self._dispatch_shared(plan, arena, rows, cols, -1 - slot_a,
                                         -1 - slot_b, measure, measure_kwargs,
                                         thresholds, backend, [], reused=False)

    def _dispatch_shared(self, plan, arena, rows, cols, slot_a, slot_b, measure,
                         measure_kwargs, thresholds, backend, extras,
                         reused) -> list[tuple[np.ndarray, np.ndarray]]:
        backend_name = None if backend is None else backend.name
        context = _DispatchContext(arena.name, measure, measure_kwargs,
                                   self.use_kernels, backend_name,
                                   obs_spans.obs_mode(), faults.current_spec(),
                                   tuple(extras))
        extras_bytes = sum(a.nbytes for a in extras)
        payload = 0
        tasks = []
        for positions in plan:
            taus = None if thresholds is None else thresholds[positions]
            idx_a = slot_a[rows[positions]]
            idx_b = slot_b[cols[positions]]
            payload += idx_a.nbytes + idx_b.nbytes + extras_bytes
            payload += 0 if taus is None else taus.nbytes
            tasks.append((positions, (_worker_chunk, context, idx_a, idx_b, taus)))
        # ``arena_bytes`` counts bytes this call *published*: a reused cached
        # arena publishes nothing new, which is exactly the saving the serving
        # benchmark measures.
        self.last_dispatch = {"strategy": "shared", "num_chunks": len(tasks),
                              "payload_bytes": int(payload),
                              "arena_bytes": 0 if reused else arena.size,
                              "arena_reused": bool(reused),
                              "kernel_backend": backend_name}
        return self._dispatch_resilient(tasks)

    def _dispatch_resilient(self, tasks) -> list[tuple[np.ndarray, np.ndarray]]:
        """Submit chunk tasks to the shared pool with deadline, retry-budget
        and exactly-once folds.

        ``tasks`` is a list of ``(positions, submit_args)``.  Each round
        submits only the chunks without a result yet, then waits for *every*
        submitted future to settle (no stray running workers survive this
        call, which is what lets a caller unlink a per-call arena the moment
        it returns or raises):

        * all futures succeeded → done; fold one telemetry delta per chunk.
        * a retryable failure (``BrokenProcessPool``, ``TransientFaultError``)
          → burn one round of the policy's retry budget, reset the pool if it
          broke, sleep the deterministic backoff, re-dispatch the remainder.
          Completed chunks keep their results — they are never re-run, so
          their deltas fold exactly once however many rounds the rest takes.
        * any other worker exception is a bug and propagates immediately.
        * the policy deadline elapsing raises
          :class:`~repro.resilience.DeadlineExceededError` (cancelling what
          has not started and waiting out what has).  Deadlines are never
          retried.

        Draining the budget raises :class:`~repro.resilience.
        RetryBudgetExceededError` carrying the completed chunks, so ``_run``'s
        ladder fallback finishes only the missing ones in-process.
        """
        policy = self.policy
        registry = obs_registry.get_registry()
        started = time.monotonic()
        deadline_at = (None if policy.deadline is None
                       else started + policy.deadline)
        results: dict[int, tuple] = {}
        attempt = 0
        while True:
            pending = [i for i in range(len(tasks)) if i not in results]
            futures: dict[int, object] = {}
            retry_error = None
            try:
                pool = shared.get_shared_pool(self.max_workers)
                with span("engine.dispatch", strategy="shared"):
                    try:
                        for i in pending:
                            futures[i] = pool.submit(*tasks[i][1])
                    except BrokenProcessPool as error:
                        # The pool died before accepting the whole round; the
                        # futures that were accepted settle below, the round
                        # retries as usual.
                        retry_error = error
                    if futures:
                        timeout = (None if deadline_at is None else
                                   max(deadline_at - time.monotonic(), 0.0))
                        _done, not_done = wait(list(futures.values()),
                                               timeout=timeout)
                        if not_done:
                            raise DeadlineExceededError(
                                policy.deadline, time.monotonic() - started)
            except DeadlineExceededError:
                self._settle(futures.values())
                registry.counter("resilience.deadline_hits").add(1)
                if self.last_dispatch is not None:
                    self.last_dispatch["retries"] = attempt
                raise
            except BaseException:
                self._settle(futures.values())
                raise
            # Every submitted future has settled: harvest and classify.
            fatal = None
            for i, future in futures.items():
                error = future.exception()
                if error is None:
                    positions = tasks[i][0]
                    values, delta = future.result()
                    results[i] = (positions, values, delta)
                elif isinstance(error, _RETRYABLE):
                    retry_error = retry_error or error
                else:
                    fatal = fatal or error
            if fatal is not None:
                raise fatal
            if retry_error is None:
                break
            if isinstance(retry_error, BrokenProcessPool):
                shared.reset_shared_pool(self.max_workers)
            attempt += 1
            registry.counter("resilience.retries").add(1)
            if attempt > policy.max_retries:
                if self.last_dispatch is not None:
                    self.last_dispatch["retries"] = attempt
                pending_positions = [tasks[i][0] for i in range(len(tasks))
                                     if i not in results]
                raise RetryBudgetExceededError(
                    policy.max_retries, pending_positions,
                    [results[i] for i in sorted(results)], cause=retry_error)
            delay = policy.backoff_delay(attempt)
            if deadline_at is not None:
                room = deadline_at - time.monotonic()
                if room <= 0:
                    registry.counter("resilience.deadline_hits").add(1)
                    if self.last_dispatch is not None:
                        self.last_dispatch["retries"] = attempt
                    raise DeadlineExceededError(
                        policy.deadline, time.monotonic() - started)
                delay = min(delay, room)
            if delay > 0:
                time.sleep(delay)
        # Success: fold one delta per chunk, exactly once, after the whole
        # dispatch resolved.
        if self.last_dispatch is not None:
            self.last_dispatch["retries"] = attempt
        parts = []
        for i in sorted(results):
            positions, values, delta = results[i]
            parts.append((positions, values))
            registry.merge_delta(delta)
        return parts

    @staticmethod
    def _settle(futures) -> None:
        """Cancel what has not started and wait out the rest (error paths only).

        The shared arena must outlive every running worker chunk; on the first
        failure the remaining futures are cancelled and awaited before the
        caller's ``finally`` unlinks the arena.
        """
        futures = list(futures)
        for future in futures:
            future.cancel()
        wait(futures)

    def close(self) -> None:
        """Release the persistent ``shared``-strategy pool sized for this engine.

        Idempotent and safe to skip: pools are process-wide singletons shut
        down via ``atexit`` anyway, and the next ``shared`` call simply starts
        a fresh one.
        """
        shared.reset_shared_pool(self.max_workers)


def _measure_tag(measure) -> str:
    """Span-tag spelling of a measure (callables tag by name, not identity)."""
    if isinstance(measure, str):
        return measure
    return getattr(measure, "__name__", "callable")


def _point_arrays(trajectories: Sequence) -> list[np.ndarray]:
    if isinstance(trajectories, CanonicalArrays):
        return trajectories
    return [np.asarray(getattr(t, "points", t), dtype=np.float64) for t in trajectories]


_default_engine: MatrixEngine | None = None


def get_default_engine() -> MatrixEngine:
    """Process-wide engine used when callers do not pass one explicitly.

    The strategy can be pre-selected with the ``REPRO_ENGINE_STRATEGY`` environment
    variable (``serial``, ``chunked`` or ``shared``; any other value raises
    :class:`~repro.config.EnvError`); it defaults to ``chunked`` with an
    in-memory matrix cache.
    """
    global _default_engine
    if _default_engine is None:
        _default_engine = MatrixEngine(strategy=_default_strategy(),
                                       cache=MatrixCache(max_entries=32))
    return _default_engine


def set_default_engine(engine: MatrixEngine | None) -> MatrixEngine | None:
    """Replace the process-wide default engine (None resets to lazy construction)."""
    global _default_engine
    _default_engine = engine
    return engine
