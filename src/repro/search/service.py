"""Batched query serving on top of the exact filter-and-refine path.

:class:`SearchService` is the front door a query-heavy deployment talks to.  It
owns one :class:`~repro.search.index.TrajectoryIndex` and a compute engine, and
adds the serving-side concerns the bare :func:`~repro.search.knn_search` call
does not have:

* **micro-batching** — :meth:`submit` enqueues a query and returns a
  :class:`PendingQuery` handle; the queue is flushed either when it reaches the
  service batch size (``REPRO_SEARCH_BATCH_SIZE`` environment variable, mirroring
  ``REPRO_ENGINE_STRATEGY``) or when a handle's result is demanded.  Queries in
  one flush share the engine's kernel dispatch and the result cache, which is how
  concurrent traffic amortises fixed costs;
* **result caching** — answers are cached under the same content-addressed
  scheme as the matrix cache (query fingerprint + index fingerprint + measure +
  kwargs + k), so repeated queries are served without touching the engine; a
  time-to-live (``cache_ttl=`` or the ``REPRO_SEARCH_CACHE_TTL`` environment
  variable, seconds) bounds staleness for long-lived deployments — expiry is
  enforced lazily on lookup (no background thread), with an opportunistic
  LRU-front sweep on insert so dead entries do not crowd the capacity budget;
* **statistics** — per-service totals (queries, cache hits/misses, latency,
  batch-fill and pruning ratios) consumed by ``eval.efficiency.search_latency``
  and the search micro-benchmark;
* **arena reuse** — under the ``shared`` engine strategy each flush pins the
  process-wide :class:`~repro.engine.arena_cache.ArenaCache` entry for the
  index (packing it on the first flush, appending only the delta after an
  index mutation), so refinement batches across queries and flushes dispatch
  against one persistent shared-memory segment; :meth:`SearchService.close`
  (or the context-manager form) evicts the segments the service caused, so a
  shut-down service leaves ``live_arena_names()`` empty;
* **admission control** — the pending queue is bounded
  (``max_pending=`` / ``REPRO_SEARCH_MAX_PENDING``); a submit past the bound
  raises a typed :class:`~repro.resilience.OverloadedError` instead of growing
  the queue without limit, counted as ``service.overloaded`` /
  ``resilience.overloaded``;
* **live-index mutation** — :meth:`SearchService.insert` /
  :meth:`SearchService.evict` mutate the owned sharded
  :class:`~repro.search.index.TrajectoryIndex` in place (flushing pending
  queries first), and the index generation counter invalidates the result
  cache so a post-mutation query can never be answered from a pre-mutation
  entry.

Serving statistics live in a per-service :class:`repro.obs.Registry` (so two
services never blur each other's traffic) and are mirrored into the
process-wide registry under the same ``service.*`` names for unified
snapshots.  :meth:`SearchService.stats` is a **pinned flat schema** — its
exact key set and types are asserted by ``tests/test_obs_integration.py`` —
while
:meth:`SearchService.snapshot` exposes the raw registry (counters plus full
batch-fill / flush-latency histograms).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Sequence

import numpy as np

from ..config import env_float, env_int
from ..engine.cache import cache_key, fingerprint_trajectories
from ..obs.registry import Registry, get_registry
from ..resilience import OverloadedError
from .index import TrajectoryIndex
from .knn import SearchResult, SearchStats, _normalise_exclude, knn_search

__all__ = ["SearchService", "PendingQuery", "DEFAULT_BATCH_SIZE", "CACHE_TTL_ENV",
           "MAX_PENDING_ENV", "DEFAULT_MAX_PENDING"]

_BATCH_ENV = "REPRO_SEARCH_BATCH_SIZE"

#: Seconds a cached result stays servable (``<= 0`` or unset: no expiry).
CACHE_TTL_ENV = "REPRO_SEARCH_CACHE_TTL"

#: Admission-control bound on the pending queue (``<= 0`` disables).
MAX_PENDING_ENV = "REPRO_SEARCH_MAX_PENDING"

DEFAULT_BATCH_SIZE = 8

#: Default pending-queue bound.  Generous — the queue drains at every
#: ``batch_size``-th submit, so only a caller deferring flushes (or a huge
#: batch size) can approach it — but finite, so a stuck producer gets a typed
#: :class:`~repro.resilience.OverloadedError` instead of unbounded memory.
DEFAULT_MAX_PENDING = 1024


class PendingQuery:
    """Handle for a submitted query; resolving it flushes the service if needed."""

    __slots__ = ("_service", "_result", "_error")

    def __init__(self, service: "SearchService"):
        self._service = service
        self._result: SearchResult | None = None
        self._error: Exception | None = None

    @property
    def done(self) -> bool:
        return self._result is not None or self._error is not None

    def result(self) -> SearchResult:
        """The query's :class:`SearchResult`, flushing the pending batch if needed.

        A query that failed (e.g. an invalid ``k``) raises its own error here —
        at resolution time, not at :meth:`SearchService.submit` time — and never
        disturbs the other queries of its batch.
        """
        if not self.done:
            self._service.flush()
        if self._error is not None:
            raise self._error
        assert self._result is not None  # flush() resolves every pending handle
        return self._result


class SearchService:
    """Micro-batching, caching front end over exact trajectory top-k search."""

    def __init__(self, index: TrajectoryIndex | Sequence, measure: str = "dtw",
                 k: int = 10, engine=None, batch_size: int | None = None,
                 refine_batch_size: int = 8, cache_entries: int = 256,
                 cache_ttl: float | None = None,
                 abandon: bool | None = None, arena_reuse: bool | None = None,
                 max_pending: int | None = None, policy=None,
                 **measure_kwargs):
        self.index = index if isinstance(index, TrajectoryIndex) else TrajectoryIndex(index)
        self.measure = measure
        self.default_k = k
        self.abandon = abandon
        #: Shared-memory arena reuse across flushes: None auto-detects (shared
        #: strategy + multi-chunk refinement batches), False disables, True
        #: pins the process arena cache for the index on every flush.
        self.arena_reuse = arena_reuse
        if engine is None:
            if policy is not None:
                # A dedicated engine carries the service's resilience policy
                # (deadline / retry budget / ladder) without mutating the
                # process default one.
                from ..engine import MatrixEngine

                engine = MatrixEngine(policy=policy)
            else:
                from ..engine import get_default_engine

                engine = get_default_engine()
        elif policy is not None:
            raise ValueError("pass either engine= (carrying its own policy) "
                             "or policy=, not both")
        self.engine = engine
        if batch_size is None:
            batch_size = env_int(_BATCH_ENV, DEFAULT_BATCH_SIZE)
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.batch_size = batch_size
        self.refine_batch_size = refine_batch_size
        self.measure_kwargs = dict(measure_kwargs)
        if cache_entries < 0:
            raise ValueError("cache_entries must be non-negative")
        self._cache_entries = cache_entries
        if cache_ttl is None:
            cache_ttl = env_float(CACHE_TTL_ENV)
        # Admission control: submits past this bound are turned away with a
        # typed OverloadedError instead of growing the queue without limit.
        # None reads REPRO_SEARCH_MAX_PENDING; <= 0 disables the bound.
        if max_pending is None:
            max_pending = env_int(MAX_PENDING_ENV, DEFAULT_MAX_PENDING)
        self.max_pending = max_pending if max_pending and max_pending > 0 else None
        #: Result time-to-live in seconds; None or <= 0 disables expiry.
        #: Enforced lazily at lookup (plus an opportunistic LRU-front sweep on
        #: insert) — no background thread, so an idle service holds expired
        #: entries but can never *serve* one.
        self.cache_ttl = cache_ttl if cache_ttl is not None and cache_ttl > 0 \
            else None
        self._clock = time.monotonic  # swappable in tests
        self._cache: OrderedDict[str, tuple[SearchResult, float]] = OrderedDict()
        self._pending: list[tuple[str, object, int, object, PendingQuery]] = []
        self._totals = SearchStats()
        self._index_generation = self.index.generation
        # Every index fingerprint this service ever pinned an arena for;
        # close() evicts them all so shutdown leaves live_arena_names() clean.
        self._pinned_fingerprints: set[str] = set()
        self._closed = False
        #: Per-service telemetry scope; every ``service.*`` instrument is also
        #: mirrored into the process-wide registry for unified snapshots.
        self.registry = Registry()

    def __repr__(self) -> str:
        return (f"SearchService(size={len(self.index)}, measure={self.measure!r}, "
                f"batch_size={self.batch_size}, served={self.queries_served})")

    # ------------------------------------------------------------- telemetry
    def _count(self, name: str, amount: int = 1) -> None:
        self.registry.counter(name).add(amount)
        get_registry().counter(name).add(amount)

    def _observe(self, name: str, value: float) -> None:
        self.registry.histogram(name).observe(value)
        get_registry().histogram(name).observe(value)

    @property
    def queries_served(self) -> int:
        """Queries resolved (cache hits included; failed queries excluded)."""
        return self.registry.counter("service.queries").value

    @property
    def cache_hits(self) -> int:
        """Queries answered straight from the content-addressed result cache."""
        return self.registry.counter("service.cache_hits").value

    @property
    def cache_misses(self) -> int:
        """Queries that had to run the filter-and-refine path."""
        return self.registry.counter("service.cache_misses").value

    @property
    def batches_flushed(self) -> int:
        """Micro-batch flushes (size-triggered and on-demand alike)."""
        return self.registry.counter("service.flushes").value

    @property
    def total_latency_seconds(self) -> float:
        """Wall-clock spent inside :meth:`flush` (the flush-histogram sum)."""
        return self.registry.histogram("service.flush_seconds").total

    # ------------------------------------------------------------------ serving
    def submit(self, query, k: int | None = None, exclude=None) -> PendingQuery:
        """Enqueue a query; the batch flushes at ``batch_size`` or on demand.

        Raises :class:`~repro.resilience.OverloadedError` when the pending
        queue is already at ``max_pending`` — admission control turns work
        away at the door instead of queueing without bound.  The rejected
        query is never enqueued; queries already pending are unaffected.
        """
        if self.max_pending is not None and len(self._pending) >= self.max_pending:
            self._count("service.overloaded")
            get_registry().counter("resilience.overloaded").add(1)
            raise OverloadedError(len(self._pending), self.max_pending)
        k = self.default_k if k is None else k
        handle = PendingQuery(self)
        # Canonicalize the query once here: the cache key, the lower-bound pass
        # and every refinement batch all reuse the same float64 point array.
        query = np.asarray(getattr(query, "points", query), dtype=np.float64)
        key = self._result_key(query, k, exclude)
        self._pending.append((key, query, k, exclude, handle))
        if len(self._pending) >= self.batch_size:
            self.flush()
        return handle

    def search(self, query, k: int | None = None, exclude=None) -> SearchResult:
        """Answer one query immediately (submit + flush)."""
        return self.submit(query, k=k, exclude=exclude).result()

    def search_many(self, queries: Sequence, k: int | None = None,
                    exclude_self: bool = False) -> list[SearchResult]:
        """Answer a query list through the micro-batcher, preserving order.

        With ``exclude_self`` query ``i`` excludes database index ``i`` — the
        convention for queries drawn from the database itself.
        """
        handles = [self.submit(query, k=k, exclude=index if exclude_self else None)
                   for index, query in enumerate(queries)]
        return [handle.result() for handle in handles]

    def flush(self) -> int:
        """Resolve every pending query; returns how many were processed."""
        pending, self._pending = self._pending, []
        if not pending:
            return 0
        self._sync_index_generation()
        start = time.perf_counter()
        self._observe("service.batch_fill", len(pending))
        # One arena pin covers the whole flush: every cache-missing query of
        # the batch refines against the same packed database segment.
        arena_cache, arena = self._pin_arena()
        try:
            for key, query, k, exclude, handle in pending:
                cached = self._cache_get(key)
                if cached is not None:
                    self._count("service.cache_hits")
                    handle._result = cached
                else:
                    self._count("service.cache_misses")
                    try:
                        result = knn_search(self.index, query, k, measure=self.measure,
                                            engine=self.engine,
                                            batch_size=self.refine_batch_size,
                                            exclude=exclude, abandon=self.abandon,
                                            arena=arena if arena is not None else False,
                                            **self.measure_kwargs)
                    except Exception as error:  # a bad query must not orphan its batch
                        handle._error = error
                        continue
                    self._totals.merge(result.stats)
                    self._cache_put(key, result)
                    handle._result = result
                self._count("service.queries")
        finally:
            if arena_cache is not None:
                arena_cache.unpin(arena)
        self._count("service.flushes")
        self._observe("service.flush_seconds", time.perf_counter() - start)
        return len(pending)

    # ------------------------------------------------------------ index mutation
    def _sync_index_generation(self) -> None:
        """Drop cached results when the index mutated underneath the service.

        Result keys embed the index fingerprint, so stale entries could never
        be *served* — but they could never be hit again either, so clearing
        them keeps the LRU from carrying dead weight and makes the
        invalidation observable (``service.index_invalidations``).
        """
        generation = self.index.generation
        if generation != self._index_generation:
            self._index_generation = generation
            self._cache.clear()
            self._count("service.index_invalidations")

    def insert(self, trajectories) -> np.ndarray:
        """Insert into the owned index (flushing pending queries first).

        Pending queries resolve against the pre-mutation database — the
        answer they were submitted against — and the result cache is
        invalidated for the new generation.  Returns the new trajectory ids.
        """
        if self._pending:
            self.flush()
        ids = self.index.insert(trajectories)
        self._sync_index_generation()
        return ids

    def evict(self, ids) -> int:
        """Evict ids from the owned index (flushing pending queries first)."""
        if self._pending:
            self.flush()
        removed = self.index.evict(ids)
        self._sync_index_generation()
        return removed

    # ------------------------------------------------------------ arena lifetime
    def _pin_arena(self):
        """Pin the process arena cache for this flush — ``(cache, entry)`` or Nones."""
        if self.arena_reuse is False or self._closed:
            return None, None
        engine = self.engine
        if getattr(engine, "strategy", None) != "shared":
            return None, None
        if self.arena_reuse is None and \
                self.refine_batch_size <= getattr(engine, "chunk_size", 0):
            # Refinement batches would never split into multiple chunks, so
            # dispatch stays in-process and packing an arena buys nothing.
            return None, None
        from ..engine.arena_cache import get_arena_cache

        cache = get_arena_cache()
        if not cache.enabled:
            return None, None
        fingerprint = self.index.fingerprint
        entry = cache.pin(self.index.arrays, fingerprint=fingerprint)
        if entry is None:
            return None, None
        self._pinned_fingerprints.add(fingerprint)
        return cache, entry

    def close(self) -> None:
        """Flush pending work and evict this service's cached arenas.

        After ``close()`` the service still answers queries (without arena
        reuse), but every shared-memory segment it caused to be cached is
        evicted — pinned entries are doomed and unlink at their last unpin —
        so a shut-down service leaks nothing (``live_arena_names()`` drains).

        Idempotent — a double close, or a close racing the atexit cache drain,
        is a no-op — and exception-safe: arena eviction runs even when the
        final flush raises, so an error on the way down cannot leak segments.
        """
        try:
            if self._pending:
                self.flush()
        finally:
            self._closed = True
            if self._pinned_fingerprints:
                from ..engine.arena_cache import get_arena_cache

                cache = get_arena_cache()
                for fingerprint in self._pinned_fingerprints:
                    cache.evict(fingerprint)
                self._pinned_fingerprints.clear()

    def __enter__(self) -> "SearchService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------------------------- cache
    def _result_key(self, points: np.ndarray, k: int, exclude) -> str:
        # ``submit`` already canonicalized the query to a float64 point array.
        fingerprint = fingerprint_trajectories([points]) + self.index.fingerprint
        # Canonicalize the exclusion set: ``repr`` of a large numpy array
        # truncates ("...") and would collide two different exclusion sets.
        # Invalid exclude values keep a repr-based key — knn_search raises for
        # them at flush time and errors are never cached, so a collision
        # between two invalid excludes is harmless.
        try:
            excluded = tuple(sorted(_normalise_exclude(exclude)))
        except TypeError:
            excluded = repr(exclude)
        return cache_key(fingerprint, self.measure, self.measure_kwargs,
                         kind=f"knn:{k}:{excluded!r}")

    def _expired(self, stored_at: float) -> bool:
        return (self.cache_ttl is not None
                and self._clock() - stored_at > self.cache_ttl)

    def _cache_get(self, key: str) -> SearchResult | None:
        entry = self._cache.get(key)
        if entry is None:
            return None
        result, stored_at = entry
        if self._expired(stored_at):
            del self._cache[key]
            self._count("service.cache_expired")
            return None
        self._cache.move_to_end(key)
        return SearchResult(result.indices.copy(), result.distances.copy(),
                            result.stats)

    def _cache_put(self, key: str, result: SearchResult) -> None:
        if self._cache_entries == 0:
            return
        self._cache[key] = (result, self._clock())
        self._cache.move_to_end(key)
        # Opportunistic sweep: expired entries at the LRU front would only be
        # reaped on their own (unlikely) lookup, so drop them here before they
        # crowd live entries out of the capacity budget.
        while self._cache and self._expired(next(iter(self._cache.values()))[1]):
            self._cache.popitem(last=False)
            self._count("service.cache_expired")
        while len(self._cache) > self._cache_entries:
            self._cache.popitem(last=False)

    # -------------------------------------------------------------------- stats
    def stats(self) -> dict:
        """Serving totals: traffic, latency and aggregated pruning statistics.

        This flat dict is a **pinned schema** (see ``tests/test_obs_integration.py``):
        the service-level keys below plus exactly ``SearchStats.as_dict()``.
        ``batch_fill`` summarises the micro-batch occupancy histogram
        (count/sum/min/max/mean over flushes).  ``kernel_backend`` and the
        result tie-break semantics are documented on :class:`SearchStats`.
        """
        served = max(self.queries_served, 1)
        report = {
            "database_size": len(self.index),
            "measure": self.measure,
            "batch_size": self.batch_size,
            "queries_served": self.queries_served,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "batches_flushed": self.batches_flushed,
            "batch_fill": self.registry.histogram("service.batch_fill").summary(),
            "total_latency_seconds": self.total_latency_seconds,
            "mean_latency_seconds": self.total_latency_seconds / served,
        }
        report.update(self._totals.as_dict())
        return report

    def snapshot(self) -> dict:
        """This service's raw telemetry registry snapshot (counters + histograms)."""
        return self.registry.snapshot()
