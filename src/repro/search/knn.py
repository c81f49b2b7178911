"""Exact filter-and-refine top-k search.

:func:`knn_search` answers a top-k query without materialising the full
query-to-database distance row.  Candidates are first scored with the cheap
per-measure lower bounds (:mod:`repro.search.bounds`), then refined in
ascending-bound order through the compute engine's batched kernels while a
best-so-far heap tracks the current k-th distance τ.  As soon as the next bound
exceeds τ the remaining candidates are abandoned: their true distances can only
be larger, so the pruned tail provably contains no neighbour.

Refinement is itself τ-aware: once the heap is full, every refinement batch
carries per-pair abandon thresholds (the current τ) down through
``MatrixEngine.pairs`` into the wavefront kernels, which stop a candidate's DP
sweep — reporting ``+inf`` — the moment its running in-kernel lower bound
strictly exceeds τ.  The full cascade is bound → τ-sorted batch → in-kernel
abandon.  An abandoned candidate is treated exactly like one pruned by its
bound: its true distance provably exceeds τ (and τ only shrinks), so it can
never belong to the final top-k.

The result is **identical** to ``knn_from_matrix`` on the full cross matrix,
including tie-breaking: candidates are only abandoned when their bound is
*strictly* above τ, and refined survivors are ordered by ``(distance, index)`` —
the same ascending ``(distance, index)`` order ``knn_from_matrix`` returns (it
computes that order by partition plus a tie fix-up).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..engine.executor import CanonicalArrays
from ..obs import counter
from ..obs.spans import span
from .index import TrajectoryIndex

__all__ = ["SearchStats", "SearchResult", "knn_search", "DEFAULT_ABANDON_MEASURES",
           "COMPILED_ABANDON_MEASURES", "default_abandon_measures"]

#: Measures where in-kernel abandoning is on by default (``abandon=None``)
#: under the *interpreted* numpy backend.  The bound arithmetic costs roughly
#: one extra sweep per anti-diagonal, so it pays off where the in-kernel bound
#: is strong or cheap — the min-plus cost measures (DTW, DITA) and Fréchet's
#: min-max — and is opt-in for the edit/gap measures (ERP, EDR, LCSS), whose
#: border-heavy bounds cost more wall-clock than their weaker pruning saves on
#: typical workloads.  Cell-work always shrinks either way; this default
#: trades on latency.
DEFAULT_ABANDON_MEASURES = frozenset({"dtw", "dita", "frechet"})

#: The same default under a *compiled* backend, where the per-row bound check
#: is a handful of native instructions instead of an interpreter sweep:
#: abandoning also wins wall-clock for the edit/gap measures, so they join in.
COMPILED_ABANDON_MEASURES = DEFAULT_ABANDON_MEASURES | frozenset({"erp", "edr", "lcss"})


def default_abandon_measures(backend=None) -> frozenset:
    """Measures that abandon by default under ``backend``.

    ``backend`` is a resolved :class:`~repro.engine.backends.KernelBackend`
    (None resolves the process-wide active backend): compiled backends get
    :data:`COMPILED_ABANDON_MEASURES`, interpreted ones the conservative
    :data:`DEFAULT_ABANDON_MEASURES`.
    """
    if backend is None:
        from ..engine.backends import active_backend

        backend = active_backend()
    return (COMPILED_ABANDON_MEASURES if getattr(backend, "compiled", False)
            else DEFAULT_ABANDON_MEASURES)


@dataclass
class SearchStats:
    """Instrumentation of one (or, aggregated, many) filter-and-refine passes.

    This dataclass is a **pinned schema**: :meth:`as_dict` is the stable
    contract the query service's ``stats()`` endpoint (and the future HTTP
    ``/stats``) is built on, and ``tests/test_obs_integration.py`` asserts its
    exact key set and types.  Two fields deserve spelling out:

    * ``kernel_backend`` — the backend name the refinement engine resolved for
      the pass (``"numpy"`` / ``"numba"``; ``""`` until a pass runs).
      :meth:`merge` keeps the *first non-empty* name, so an aggregate reports
      the backend its earliest pass used rather than pretending to aggregate
      heterogeneous backends.
    * Result ordering (tie-break): neighbours are ordered by
      ``(distance, index)`` ascending — equal distances break toward the
      smaller database index, matching ``knn_from_matrix``'s ascending
      ``(distance, index)`` order bit for bit.  The counts here
      (``num_refined`` vs ``num_pruned``) are defined relative to that
      deterministic order.
    """

    num_database: int = 0
    num_candidates: int = 0
    num_refined: int = 0
    num_pruned: int = 0
    num_abandoned: int = 0
    num_batches: int = 0
    lower_bound_seconds: float = 0.0
    refine_seconds: float = 0.0
    #: Name of the kernel backend the refinement engine resolved ("" until a
    #: pass runs; merges keep the first non-empty name).
    kernel_backend: str = ""

    @property
    def pruned_fraction(self) -> float:
        """Share of candidates never refined (0.0 when there were no candidates)."""
        if self.num_candidates == 0:
            return 0.0
        return self.num_pruned / self.num_candidates

    def merge(self, other: "SearchStats") -> None:
        """Accumulate another pass into this one (used by the query service)."""
        self.num_database += other.num_database
        self.num_candidates += other.num_candidates
        self.num_refined += other.num_refined
        self.num_pruned += other.num_pruned
        self.num_abandoned += other.num_abandoned
        self.num_batches += other.num_batches
        self.lower_bound_seconds += other.lower_bound_seconds
        self.refine_seconds += other.refine_seconds
        if not self.kernel_backend:
            self.kernel_backend = other.kernel_backend

    def as_dict(self) -> dict:
        """The pinned stats schema: these exact keys (plus the derived
        ``pruned_fraction``) and no others — extend deliberately, with the
        schema test, never ad hoc."""
        return {
            "num_database": self.num_database,
            "num_candidates": self.num_candidates,
            "num_refined": self.num_refined,
            "num_pruned": self.num_pruned,
            "num_abandoned": self.num_abandoned,
            "num_batches": self.num_batches,
            "pruned_fraction": self.pruned_fraction,
            "lower_bound_seconds": self.lower_bound_seconds,
            "refine_seconds": self.refine_seconds,
            "kernel_backend": self.kernel_backend,
        }


@dataclass
class SearchResult:
    """Top-k neighbours of one query: indices, distances and the pass statistics."""

    indices: np.ndarray
    distances: np.ndarray
    stats: SearchStats

    def __len__(self) -> int:
        return len(self.indices)


def _normalise_exclude(exclude) -> frozenset[int]:
    if exclude is None:
        return frozenset()
    if isinstance(exclude, (int, np.integer)):
        return frozenset((int(exclude),))
    if isinstance(exclude, Iterable):
        return frozenset(int(item) for item in exclude)
    raise TypeError("exclude must be None, an int or an iterable of ints")


def _auto_pin_arena(index: TrajectoryIndex, engine, batch_size: int):
    """Pin the process arena cache for ``index`` when reuse can actually help.

    Reuse only matters when refinement batches can leave the process: the
    engine must run the ``shared`` strategy with shared memory available, the
    cache must be enabled, and a batch must be able to split into multiple
    chunks (the engine short-circuits single-chunk work in-process).  Returns
    ``(cache, entry)`` — both None when any condition fails.
    """
    if getattr(engine, "strategy", None) != "shared":
        return None, None
    if batch_size <= getattr(engine, "chunk_size", batch_size):
        return None, None
    from ..engine.arena_cache import get_arena_cache

    cache = get_arena_cache()
    if not cache.enabled:
        return None, None
    entry = cache.pin(index.arrays, fingerprint=index.fingerprint)
    return (cache, entry) if entry is not None else (None, None)


def knn_search(index: TrajectoryIndex | Sequence, query, k: int, measure: str = "dtw",
               engine=None, batch_size: int = 8, exclude=None,
               abandon: bool | None = None, arena=None,
               **measure_kwargs) -> SearchResult:
    """Exact k nearest neighbours of ``query`` under a registered measure.

    Parameters
    ----------
    index:
        A prebuilt :class:`TrajectoryIndex` (reusable across queries, which
        amortises the per-trajectory summaries) or any trajectory sequence, which
        is indexed on the fly.
    query:
        Trajectory or point array; spatio-temporal measures need a time column.
    k:
        Number of neighbours; like ``knn_from_matrix`` it must not exceed the
        number of non-excluded candidates.
    engine:
        :class:`~repro.engine.MatrixEngine` used for refinement (default engine
        when omitted), so kernel selection matches matrix construction exactly.
    batch_size:
        Candidates refined per engine call.  1 maximises pruning (τ tightens
        after every distance); larger batches amortise kernel dispatch.
    exclude:
        Index / indices never returned (e.g. the query itself when it belongs to
        the database) — the counterpart of ``knn_from_matrix(exclude_self=True)``.
    abandon:
        Whether refinement batches carry the heap's τ into the kernels as
        per-pair abandon thresholds (in-kernel early abandoning).  ``None``
        defers to :func:`default_abandon_measures` for the engine's resolved
        kernel backend — a compiled backend abandons for the edit/gap measures
        too; ``False`` always computes full DP tables — the baseline of
        ``benchmarks/prune_speedup.py``.  Either way the result is identical;
        abandoning only changes how much of a losing candidate's table is built.
    arena:
        Shared-memory reuse policy for the refinement batches.  ``None``
        (default) auto-pins the process-wide
        :class:`~repro.engine.arena_cache.ArenaCache` when the engine runs the
        ``shared`` strategy and batches can actually dispatch to the pool, so
        repeated queries against the same index reuse one packed database
        segment instead of re-packing per call.  ``False`` disables reuse
        (per-call arenas, the pre-cache behaviour).  A pinned
        :class:`~repro.engine.arena_cache.CachedArena` (as the
        :class:`~repro.search.SearchService` passes per flush) is used as-is
        and not unpinned here.  Results are bit-identical either way.
    """
    if not isinstance(index, TrajectoryIndex):
        index = TrajectoryIndex(index)
    if engine is None:
        from ..engine import get_default_engine

        engine = get_default_engine()
    if k <= 0:
        raise ValueError("k must be positive")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    backend = engine.resolved_backend() if hasattr(engine, "resolved_backend") else None
    if abandon is None:
        abandon = (isinstance(measure, str)
                   and measure.lower() in default_abandon_measures(backend))
    excluded = _normalise_exclude(exclude)
    num_candidates = sum(1 for i in range(len(index)) if i not in excluded)
    if k > num_candidates:
        raise ValueError(f"k={k} exceeds the {num_candidates} available candidates "
                         f"({len(index)} indexed{', after exclusions' if excluded else ''})")

    # Phase spans mirror the perf_counter fields of SearchStats rather than
    # replace them: SearchStats must stay populated with REPRO_OBS=off, and a
    # disabled span measures nothing.
    start = time.perf_counter()
    with span("search.lower_bound", measure=measure):
        bounds = index.lower_bounds(query, measure, **measure_kwargs)
    lower_bound_seconds = time.perf_counter() - start
    with span("search.index_probe", measure=measure):
        order = np.argsort(bounds, kind="stable")
        if excluded:
            order = order[~np.isin(order, list(excluded))]

    query_points = np.asarray(getattr(query, "points", query), dtype=np.float64)
    owner_cache = None
    if arena is None:
        owner_cache, arena = _auto_pin_arena(index, engine, batch_size)
    elif arena is False:
        arena = None
    heap: list[tuple[float, int]] = []  # (-distance, -index): root = current worst
    refined: list[tuple[float, int]] = []
    refine_seconds = 0.0
    num_batches = 0
    num_abandoned = 0
    position = 0
    try:
        with span("search.refine", measure=measure):
            while position < len(order):
                tau = -heap[0][0] if len(heap) == k else np.inf
                batch: list[int] = []
                while (position < len(order) and len(batch) < batch_size
                       and (len(heap) < k or bounds[order[position]] <= tau)):
                    batch.append(int(order[position]))
                    position += 1
                if not batch:
                    break  # every remaining bound is strictly above τ — abandon the tail
                # With a full heap, refine under per-pair abandon thresholds: a pair
                # whose in-kernel lower bound exceeds τ comes back as +inf, which —
                # because τ only shrinks — can never displace a heap entry nor reach
                # the top-k.
                thresholds = (np.full(len(batch), tau)
                              if abandon and np.isfinite(tau) else None)
                start = time.perf_counter()
                # Both sides ride through as CanonicalArrays: the engine skips its
                # per-call asarray walk over database trajectories it has seen
                # before.  ``arena`` (when pinned) is the cached shared-memory
                # pack of those same arrays, joined by object identity.
                distances = engine.pairs(CanonicalArrays([query_points] * len(batch)),
                                         CanonicalArrays([index.arrays[i] for i in batch]),
                                         measure, thresholds=thresholds, arena=arena,
                                         **measure_kwargs)
                refine_seconds += time.perf_counter() - start
                num_batches += 1
                if thresholds is not None:
                    num_abandoned += int(np.isinf(distances).sum())
                for candidate, distance in zip(batch, distances):
                    distance = float(distance)
                    refined.append((distance, candidate))
                    item = (-distance, -candidate)
                    if len(heap) < k:
                        heapq.heappush(heap, item)
                    elif item > heap[0]:
                        heapq.heapreplace(heap, item)
    finally:
        if owner_cache is not None:
            owner_cache.unpin(arena)

    refined.sort()
    top = refined[:k]
    stats = SearchStats(
        num_database=len(index),
        num_candidates=len(order),
        num_refined=len(refined),
        num_pruned=len(order) - len(refined),
        num_abandoned=num_abandoned,
        num_batches=num_batches,
        lower_bound_seconds=lower_bound_seconds,
        refine_seconds=refine_seconds,
        kernel_backend=backend.name if backend is not None else "",
    )
    # Always-on registry counters (cheap integer adds, REPRO_OBS-independent):
    # the search-layer traffic totals every snapshot reports.
    counter("search.queries").add(1)
    counter("search.candidates").add(stats.num_candidates)
    counter("search.refined").add(stats.num_refined)
    counter("search.pruned").add(stats.num_pruned)
    counter("search.abandoned").add(stats.num_abandoned)
    counter("search.batches").add(stats.num_batches)
    return SearchResult(
        indices=np.array([candidate for _, candidate in top], dtype=np.int64),
        distances=np.array([distance for distance, _ in top]),
        stats=stats,
    )
