"""Benchmark for Table V: retrieval latency / memory overhead of the LH-plugin.

The memory overhead is deterministic — two projection scalars plus two factor
vectors per trajectory — and is checked exactly.  The latency overhead is the
plugin's O(nm) element-wise work on top of the matmul and top-k both paths share;
it is only bounded loosely here (the paper reports <0.05% at million-trajectory
scale; at these sizes it is tens of percent and wall-clock noise is large).
"""

from repro.experiments import table5_efficiency as experiment

from conftest import run_once


def test_table5_efficiency(benchmark, save_result):
    embedding_dim, factor_dim = 128, 4
    result = run_once(
        benchmark,
        lambda: experiment.run(database_sizes=(1000, 5000, 20000), num_queries=20,
                               embedding_dim=embedding_dim, factor_dim=factor_dim,
                               repeats=3),
    )
    table = experiment.format_result(result)
    save_result("table5_efficiency", table)

    for row in result["rows"]:
        assert row["memory_increase"] == (2 + 2 * factor_dim) / embedding_dim
        assert row["latency_increase"] < 1.0
