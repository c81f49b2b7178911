"""Micro-benchmark: τ-aware in-kernel early abandoning vs full refinement.

``knn_search`` already prunes candidates whose *static* lower bound exceeds the
heap's τ, but every refined candidate used to pay for its entire DP table.
This benchmark measures what the in-kernel cascade (bound → τ-sorted batch →
in-kernel abandon) saves on top: it runs the same kNN workload with and
without ``abandon=`` and compares the **DP cell-work** the kernels actually
performed (via the ``engine.dp_cells`` registry counter — deterministic, so safe
to gate on) plus wall-clock (informational).  Both runs are verified
bit-identical to ``knn_from_matrix`` on the full cross matrix, ties included.

Run with::

    PYTHONPATH=src python benchmarks/prune_speedup.py [--size 200] [--queries 20]

Results land in ``benchmarks/results/prune_speedup.json``.  The acceptance
floor for this PR is ≥2× fewer DP cells computed on DTW kNN at n=200; smaller
smoke runs (CI) gate on exactness only, like the other speedup benchmarks.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.data import generate_dataset
from repro.distances import knn_from_matrix
from repro.engine import MatrixEngine, backend_provenance
from repro.search import TrajectoryIndex, knn_search
from repro.obs import get_registry
from repro.obs import snapshot as obs_snapshot

RESULTS_PATH = Path(__file__).parent / "results" / "prune_speedup.json"

#: Minimum acceptable DP cell-work reduction (full refinement / abandoning).
FLOORS = {"dtw": 2.0}


def benchmark_measure(index: TrajectoryIndex, trajectories, measure: str,
                      num_queries: int, k: int, batch_size: int,
                      engine: MatrixEngine) -> dict:
    matrix = engine.cross(trajectories[:num_queries], trajectories, measure)
    expected = knn_from_matrix(matrix, k, exclude_self=True)

    cells = get_registry().counter("engine.dp_cells")

    def run(abandon: bool) -> tuple[int, float, int, bool]:
        before = cells.value
        start = time.perf_counter()
        exact = True
        abandoned = 0
        for query in range(num_queries):
            result = knn_search(index, trajectories[query], k, measure=measure,
                                engine=engine, exclude=query, abandon=abandon,
                                batch_size=batch_size)
            exact &= bool(np.array_equal(result.indices, expected[query]))
            exact &= bool(np.allclose(result.distances,
                                      matrix[query][result.indices],
                                      rtol=0, atol=0))
            abandoned += result.stats.num_abandoned
        return cells.value - before, time.perf_counter() - start, abandoned, exact

    full_cells, full_seconds, _, full_exact = run(abandon=False)
    abandoning_cells, abandoning_seconds, abandoned, abandoning_exact = run(abandon=True)
    return {
        "exact_match": full_exact and abandoning_exact,
        "full_cells": full_cells,
        "abandoning_cells": abandoning_cells,
        "cell_reduction": full_cells / max(abandoning_cells, 1),
        "num_abandoned": abandoned,
        "full_seconds": full_seconds,
        "abandoning_seconds": abandoning_seconds,
        "latency_ratio": full_seconds / max(abandoning_seconds, 1e-12),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=200,
                        help="database size (default 200)")
    parser.add_argument("--queries", type=int, default=20,
                        help="queries drawn from the database (default 20)")
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--batch-size", type=int, default=2,
                        help="refinement batch size (small batches refresh τ "
                             "often, which is where abandoning bites)")
    parser.add_argument("--preset", default="chengdu")
    parser.add_argument("--measures", nargs="+", default=["dtw", "erp"])
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero when exactness fails or (at "
                             "n>=200) a cell-reduction floor is missed; cell "
                             "counts are deterministic, wall-clock is "
                             "informational")
    args = parser.parse_args()

    dataset = generate_dataset(args.preset, size=args.size, seed=0)
    trajectories = dataset.point_arrays(spatial_only=True)
    engine = MatrixEngine(cache=None)
    # Resolve + warm the active backend before anything is timed: JIT
    # compilation must never ride inside a measured kNN pass.
    provenance = backend_provenance()
    index = TrajectoryIndex(trajectories)

    rows = {measure: benchmark_measure(index, trajectories, measure,
                                       args.queries, args.k, args.batch_size,
                                       engine)
            for measure in args.measures}

    record = {
        "preset": args.preset,
        "size": args.size,
        "num_queries": args.queries,
        "k": args.k,
        "batch_size": args.batch_size,
        "platform": platform.platform(),
        # Active backend + numba version (or "absent") + warm-up seconds, so
        # latency trajectories across boxes/backends stay comparable.
        **provenance,
        "measures": rows,
    }
    # Embed the process-wide telemetry snapshot: counters (DP cell work,
    # abandons, search traffic) plus any span histograms REPRO_OBS captured,
    # so the perf trajectory is machine-readable across PRs.
    record["telemetry"] = obs_snapshot()
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(record, indent=2) + "\n")

    print(f"n={args.size} ({args.preset}), {args.queries} queries, "
          f"k={args.k}, refine batch {args.batch_size}")
    for measure, row in rows.items():
        print(f"  {measure:8s} cells {row['full_cells']:8d} -> "
              f"{row['abandoning_cells']:8d} ({row['cell_reduction']:.2f}x fewer, "
              f"{row['num_abandoned']} abandoned), "
              f"wall {row['full_seconds']:.3f}s -> {row['abandoning_seconds']:.3f}s, "
              f"exact={row['exact_match']}")
    print(f"saved {RESULTS_PATH}")

    failures = [f"{measure} not identical to knn_from_matrix"
                for measure, row in rows.items() if not row["exact_match"]]
    # Cell-reduction floors are calibrated for the default scale: abandoning
    # power grows with the candidate pool, so tiny smoke runs gate exactness only.
    if args.size >= 200:
        for measure, floor in FLOORS.items():
            if measure in rows and rows[measure]["cell_reduction"] < floor:
                failures.append(f"{measure} cell reduction below {floor}x")
    for failure in failures:
        print(f"WARNING: {failure}")
    return 1 if failures and args.strict else 0


if __name__ == "__main__":
    raise SystemExit(main())
