"""Table V — retrieval latency and memory overhead of the LH-plugin.

The experiment pre-embeds databases of increasing size and measures the online
top-k retrieval latency and database memory with and without the plugin.

Memory: the plugin stores two projection scalars (the squared norm ``‖x‖²`` and the
space-like scale ``s``; the time-like coordinate is derived from ``‖x‖²`` per query)
and two ``factor_dim`` factor vectors per trajectory next to its embedding, so the
memory increase is exactly ``(2 + 2·factor_dim) / embedding_dim`` (7.8% at the
defaults) at every size.

Latency: both paths share the Gram matmul and the top-k selection
(``knn_from_matrix``, a partition-based top-k whose cost is negligible next to the
matmul).  On top of it the plugin does O(nm) element-wise work — the Lorentz
distances, the fusion weights α and the blend — in place, reading the stored
``‖x‖²``; the Euclidean baseline (:func:`repro.eval.euclidean_distance_matrix`)
still recomputes the database's squared norms on every call (about 4 ms at 20k ×
128-d).  The measured increase is therefore near zero or negative — about 0% at
1k, −7% at 5k and −17% at 20k on a 2-core numpy box — only because of that
baseline recomputation, not because the plugin's extra work is free; a baseline
with cached norms would show the plugin's real cost.  Both paths are timed
interleaved on the same arrays after a warm-up
(:func:`repro.eval.retrieval_overhead`), and the reported increase is the median
of the per-repeat latency ratios, so machine drift between two separate timing
runs cannot masquerade as plugin overhead (or as a plugin speed-up).

Database sizes are scaled down (the paper uses 10k/100k/1m) so the benchmark runs in
seconds.
"""

from __future__ import annotations

import numpy as np

from ..core import LHPlugin, LHPluginConfig
from ..eval import retrieval_overhead
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

        baseline, plugged, ratios = retrieval_overhead(
            query_embeddings, database_embeddings, plugin, query_sequences,
            database_sequences, k=k, repeats=repeats)
        rows.append({
            "database_size": size,
            "original": baseline,
            "lh-plugin": plugged,
            "latency_ratios": ratios,
            "latency_increase": float(np.median(ratios)) - 1.0,
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
