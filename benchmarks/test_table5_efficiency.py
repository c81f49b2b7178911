"""Benchmark for Table V: retrieval latency / memory overhead of the LH-plugin.

The memory overhead is deterministic — two projection scalars (``‖x‖²`` and the
space-like scale) plus two factor vectors per trajectory — and is checked exactly.
The latency overhead is the plugin's O(nm) element-wise work on top of the matmul
and top-k both paths share, less the database norms the baseline recomputes per
call and the plugin reads from its entry; it is only bounded loosely here (the
paper reports <0.05% at million-trajectory scale; at these sizes it reads near
zero or negative).  Plugin and baseline are timed interleaved, repeat by repeat,
on the same arrays after a warm-up, and the bound applies to the median of the
per-repeat plugin/baseline ratios.
"""

import numpy as np

from repro.experiments import table5_efficiency as experiment

from conftest import run_once


def test_table5_efficiency(benchmark, save_result):
    embedding_dim, factor_dim = 128, 4
    result = run_once(
        benchmark,
        lambda: experiment.run(database_sizes=(1000, 5000, 20000), num_queries=20,
                               embedding_dim=embedding_dim, factor_dim=factor_dim,
                               repeats=7),
    )
    table = experiment.format_result(result)
    save_result("table5_efficiency", table)

    for row in result["rows"]:
        assert row["memory_increase"] == (2 + 2 * factor_dim) / embedding_dim
        ratios = row["latency_ratios"]  # plugin / baseline, one per repeat
        assert len(ratios) == 7
        assert np.median(ratios) - 1.0 < 1.0
