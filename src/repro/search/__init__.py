"""``repro.search`` — the top-k query-serving subsystem.

Layered on the engine and data layers, this package turns the repo's offline
distance matrices into an online search path:

* :mod:`repro.search.bounds` — cheap per-measure lower bounds (LB_Keogh-style
  envelopes, MBR/endpoint separation, length-difference and reference-point
  bounds) behind a ``register_batch_lower_bound`` registry, plus cheaper
  ``register_filter_stage`` stages (DTW's endpoint and row envelopes) that
  exact search cascades through; each bound scores a query against every
  candidate of a :class:`StackedSummaries` in a few array passes, and fleets
  mixing 2-D and 3-D trajectories stack at their common width;
* :mod:`repro.search.index` — :class:`TrajectoryIndex`, an inverted cell index
  (grid or quadtree) plus per-trajectory summaries;
* :mod:`repro.search.knn` — :func:`knn_search`, exact filter-and-refine top-k
  guaranteed identical to ``knn_from_matrix`` on the full matrix;
* :mod:`repro.search.embedding` — brute-force and IVF-style approximate search
  over trained embeddings, with recall measurement;
* :mod:`repro.search.service` — :class:`SearchService`, the micro-batching,
  caching query front end;
* :mod:`repro.search.monitor` — :class:`StreamMonitor`, continuous exact
  top-k over live streams (region screen → stacked bounds → incremental DP
  frontier refinement), emitting :class:`StreamAlert` membership changes.
"""

from .bounds import (
    TrajectorySummary,
    StackedSummaries,
    register_batch_lower_bound,
    register_filter_stage,
    get_batch_lower_bound,
    filter_stages,
    available_batch_lower_bounds,
)
from .index import TrajectoryIndex
from .knn import (COMPILED_ABANDON_MEASURES, DEFAULT_ABANDON_MEASURES, SearchStats,
                  SearchResult, default_abandon_measures, knn_search)
from .embedding import embedding_topk, IVFEmbeddingIndex, recall_at_k
from .monitor import StreamAlert, StreamMonitor
from .service import SearchService, PendingQuery, DEFAULT_BATCH_SIZE, CACHE_TTL_ENV

__all__ = [
    "TrajectorySummary", "StackedSummaries",
    "register_batch_lower_bound", "register_filter_stage", "get_batch_lower_bound",
    "filter_stages", "available_batch_lower_bounds",
    "TrajectoryIndex",
    "COMPILED_ABANDON_MEASURES", "DEFAULT_ABANDON_MEASURES", "SearchStats",
    "SearchResult", "default_abandon_measures", "knn_search",
    "embedding_topk", "IVFEmbeddingIndex", "recall_at_k",
    "StreamAlert", "StreamMonitor",
    "SearchService", "PendingQuery", "DEFAULT_BATCH_SIZE", "CACHE_TTL_ENV",
]
