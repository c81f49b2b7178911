"""Table V — retrieval latency and memory overhead of the LH-plugin.

The experiment pre-embeds databases of increasing size and measures the online
top-k retrieval latency and database memory with and without the plugin.

Memory: the plugin stores two projection scalars and two ``factor_dim`` factor
vectors per trajectory next to its embedding, so the memory increase is exactly
``(2 + 2·factor_dim) / embedding_dim`` (7.8% at the defaults) at every size.

Latency: both paths share the Gram matmul and the top-k selection
(``knn_from_matrix``, a partition-based top-k whose cost is negligible next to the
matmul).  What remains of the gap is the plugin's O(nm) element-wise work on top of
the shared matmul — the Lorentz distances, the fusion weights α and the blend — so
the relative increase does not vanish with database size at these scales; it is
measured, not assumed (about +45% at 5k and 20k on a 2-core numpy box).

Database sizes are scaled down (the paper uses 10k/100k/1m) so the benchmark runs in
seconds.
"""

from __future__ import annotations

import numpy as np

from ..core import LHPlugin, LHPluginConfig
from ..eval import retrieval_latency
from .reporting import format_percent, format_table

__all__ = ["run", "format_result"]

DEFAULT_SIZES = (1000, 5000, 20000)


def run(database_sizes=DEFAULT_SIZES, num_queries: int = 20, embedding_dim: int = 128,
        factor_dim: int = 4, k: int = 10, repeats: int = 3, seed: int = 0) -> dict:
    """Measure retrieval latency/memory for each database size, original vs plugin.

    Embeddings and factor vectors are synthesised directly (the base encoder is
    irrelevant here: the paper's measurement also starts from pre-embedded databases).
    """
    rng = np.random.default_rng(seed)
    plugin = LHPlugin(LHPluginConfig(factor_dim=factor_dim))
    rows = []
    for size in database_sizes:
        database_embeddings = rng.normal(size=(size, embedding_dim))
        query_embeddings = rng.normal(size=(num_queries, embedding_dim))
        # Factor vectors are what the fusion encoder would have produced offline; a
        # short random positive sequence per trajectory keeps the probe self-contained.
        database_sequences = [rng.random((8, 2)) for _ in range(size)]
        query_sequences = [rng.random((8, 2)) for _ in range(num_queries)]

        baseline = retrieval_latency(query_embeddings, database_embeddings, k=k,
                                     repeats=repeats)
        plugged = retrieval_latency(query_embeddings, database_embeddings, k=k,
                                    plugin=plugin, query_sequences=query_sequences,
                                    database_sequences=database_sequences,
                                    repeats=repeats)
        rows.append({
            "database_size": size,
            "original": baseline,
            "lh-plugin": plugged,
            "latency_increase": (plugged["latency_seconds"] - baseline["latency_seconds"])
            / baseline["latency_seconds"],
            "memory_increase": (plugged["memory_bytes"] - baseline["memory_bytes"])
            / baseline["memory_bytes"],
        })
    return {"rows": rows, "k": k, "num_queries": num_queries}


def format_result(result: dict) -> str:
    """Render the Table V analogue."""
    headers = ["database size", "original (s / MB)", "LH-plugin (s / MB)",
               "%latency increase", "%memory increase"]
    rows = []
    for row in result["rows"]:
        original = row["original"]
        plugged = row["lh-plugin"]
        rows.append([
            row["database_size"],
            f"{original['latency_seconds']:.4f}s / {original['memory_bytes'] / 1e6:.2f}MB",
            f"{plugged['latency_seconds']:.4f}s / {plugged['memory_bytes'] / 1e6:.2f}MB",
            format_percent(row["latency_increase"]),
            format_percent(row["memory_increase"]),
        ])
    return format_table(headers, rows,
                        title="Table V: retrieval consumption, original vs LH-plugin")
