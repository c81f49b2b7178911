"""``repro.eval`` — retrieval quality (HR@k, NDCG@k) and efficiency probes."""

from .retrieval import (
    hit_rate,
    per_query_hit_rate,
    ndcg,
    evaluate_retrieval,
    euclidean_distance_matrix,
)
from .efficiency import (
    time_callable,
    database_memory_bytes,
    retrieval_latency,
    retrieval_overhead,
    matrix_build_latency,
    search_latency,
    EfficiencyResult,
)

__all__ = [
    "hit_rate", "per_query_hit_rate", "ndcg", "evaluate_retrieval",
    "euclidean_distance_matrix",
    "time_callable", "database_memory_bytes", "retrieval_latency",
    "retrieval_overhead", "matrix_build_latency", "search_latency", "EfficiencyResult",
]
