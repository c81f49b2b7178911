"""Micro-benchmark: compiled (numba) kernel backend vs the numpy reference.

Two questions, one script:

1. **Exactness** — the compiled DP kernels must agree with the numpy
   wavefront kernels bitwise for the DP measures (and to 1e-12 relative for
   the mean-based SSPD/TP, whose summation order differs), with and without
   abandon thresholds.  This is checked *always*, whichever backend is
   installed — without numba the compiled kernels run as pure Python through
   the no-op ``njit`` stub, which exercises the same arithmetic.
2. **Speed** — with numba installed, the compiled backend must beat numpy by
   ≥3× wall-clock on the n=200 DTW matrix build, and τ-abandoning kNN must be
   strictly *faster* than non-abandoning (latency_ratio > 1.0) with
   bit-identical results vs ``knn_from_matrix`` — the cell-count win finally
   cashing out as latency.  Without numba the speed section is skipped (and
   recorded as such), so the benchmark stays green on numpy-only boxes.

Run with::

    PYTHONPATH=src python benchmarks/backend_speedup.py [--size 200] [--strict]

Results land in ``benchmarks/results/backend_speedup.json``.
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
from repro.engine import MatrixEngine, backend_available, backend_provenance
from repro.engine.backends import numba_kernels
from repro.engine.kernels import get_batch_kernel
from repro.eval import matrix_build_latency
from repro.search import TrajectoryIndex, knn_search
from repro.obs import snapshot as obs_snapshot

RESULTS_PATH = Path(__file__).parent / "results" / "backend_speedup.json"

#: Minimum compiled-vs-numpy wall-clock speedup on the n=200 DTW matrix build.
SPEEDUP_FLOOR = 3.0

#: Measures whose compiled kernels must agree with numpy *bitwise*.  SSPD and
#: TP average sub-distances with ``np.mean`` (pairwise summation) on the numpy
#: side but sequentially in the jitted loop, so they get 1e-12 relative.
BITWISE_MEASURES = ("dtw", "erp", "edr", "lcss", "frechet", "dita", "hausdorff")
CLOSE_MEASURES = ("sspd", "tp")

_MEASURE_KWARGS = {"edr": {"epsilon": 0.25}, "lcss": {"epsilon": 0.25}}
_NEEDS_TIME = {"dita", "tp"}


def _reference_values(measure, pairs_a, pairs_b, thresholds=None):
    """Numpy-side values: the batch kernel when one exists, else the serial
    reference loop (hausdorff/sspd/tp have no numpy batch kernel)."""
    kwargs = _MEASURE_KWARGS.get(measure, {})
    batch = get_batch_kernel(measure)
    if batch is not None:
        if thresholds is not None:
            return np.asarray(batch(pairs_a, pairs_b, thresholds=thresholds, **kwargs))
        return np.asarray(batch(pairs_a, pairs_b, **kwargs))
    from repro.distances.base import get_distance

    func = get_distance(measure)
    return np.array([func(a, b, **kwargs) for a, b in zip(pairs_a, pairs_b)])


def check_exactness(seed: int = 0) -> dict:
    """Cross-backend parity on a mixed-length pair set, thresholds included."""
    rng = np.random.default_rng(seed)
    trajs = [rng.random((n, 3)) for n in (5, 17, 9, 2, 23, 11, 1, 8)]
    spatial = [t[:, :2] for t in trajs]
    rows = {}
    for measure in BITWISE_MEASURES + CLOSE_MEASURES:
        pa, pb = ((trajs, trajs[::-1]) if measure in _NEEDS_TIME
                  else (spatial, spatial[::-1]))
        kwargs = _MEASURE_KWARGS.get(measure, {})
        reference = _reference_values(measure, pa, pb)
        compiled = np.asarray(numba_kernels.BATCH_KERNELS[measure](pa, pb, **kwargs))
        if measure in BITWISE_MEASURES:
            exact = bool(np.array_equal(reference, compiled))
        else:
            exact = bool(np.allclose(reference, compiled, rtol=1e-12, atol=0))
        # Thresholded run: finite values must match the compiled full distance
        # bitwise (thresholds are an optimisation, not a perturbation); an
        # abandoned (+inf) value must correspond to a distance > τ.  The
        # backends may abandon different pairs (both soundly).
        taus = reference * 0.7
        abandoned = np.asarray(
            numba_kernels.BATCH_KERNELS[measure](pa, pb, thresholds=taus, **kwargs))
        finite = np.isfinite(abandoned)
        sound = bool(np.array_equal(abandoned[finite], compiled[finite])
                     and np.all(reference[~finite] > taus[~finite]))
        # Exact-tie: τ equal to the distance must never abandon.
        ties = np.asarray(
            numba_kernels.BATCH_KERNELS[measure](pa, pb, thresholds=reference,
                                                 **kwargs))
        tie_ok = bool(np.array_equal(ties, compiled) and np.isfinite(ties).all())
        rows[measure] = {"exact": exact, "threshold_sound": sound,
                         "tie_never_abandons": tie_ok,
                         "max_abs_difference": float(np.abs(reference - compiled).max())}
    return rows


def benchmark_matrix_build(trajectories, repeats: int) -> dict:
    numpy_engine = MatrixEngine(cache=None, backend="numpy")
    numba_engine = MatrixEngine(cache=None, backend="numba")
    reference = numpy_engine.pairwise(trajectories, "dtw")
    compiled = numba_engine.pairwise(trajectories, "dtw")
    numpy_s = matrix_build_latency(trajectories, "dtw", engine=numpy_engine,
                                   repeats=repeats)["latency_seconds"]
    numba_s = matrix_build_latency(trajectories, "dtw", engine=numba_engine,
                                   repeats=repeats)["latency_seconds"]
    return {
        "numpy_seconds": numpy_s,
        "numba_seconds": numba_s,
        "speedup": numpy_s / max(numba_s, 1e-12),
        "exact_match": bool(np.array_equal(reference, compiled)),
    }


def benchmark_abandoning_knn(trajectories, num_queries: int, k: int) -> dict:
    """τ-abandoning vs full refinement under the compiled backend."""
    engine = MatrixEngine(cache=None, backend="numba")
    index = TrajectoryIndex(trajectories)
    matrix = engine.cross(trajectories[:num_queries], trajectories, "dtw")
    expected = knn_from_matrix(matrix, k, exclude_self=True)

    def run(abandon: bool) -> tuple[float, bool]:
        start = time.perf_counter()
        exact = True
        for query in range(num_queries):
            result = knn_search(index, trajectories[query], k, measure="dtw",
                                engine=engine, exclude=query, abandon=abandon,
                                batch_size=2)
            exact &= bool(np.array_equal(result.indices, expected[query]))
            exact &= bool(np.array_equal(result.distances,
                                         matrix[query][result.indices]))
        return time.perf_counter() - start, exact

    full_seconds, full_exact = run(abandon=False)
    abandoning_seconds, abandoning_exact = run(abandon=True)
    return {
        "full_seconds": full_seconds,
        "abandoning_seconds": abandoning_seconds,
        "latency_ratio": full_seconds / max(abandoning_seconds, 1e-12),
        "exact_match": full_exact and abandoning_exact,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=200,
                        help="database size for the speed section (default 200)")
    parser.add_argument("--queries", type=int, default=20)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--preset", default="chengdu")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on any exactness failure, or — "
                             "with numba installed and size>=200 — on a missed "
                             "speedup/latency floor")
    args = parser.parse_args()

    numba_present = backend_available("numba")
    provenance = backend_provenance()
    exactness = check_exactness()

    record = {
        "preset": args.preset,
        "size": args.size,
        "num_queries": args.queries,
        "k": args.k,
        "repeats": args.repeats,
        "platform": platform.platform(),
        **provenance,
        "numba_present": numba_present,
        "speedup_floor": SPEEDUP_FLOOR,
        "exactness": exactness,
    }

    failures = [f"{measure}: {key} failed"
                for measure, row in exactness.items()
                for key in ("exact", "threshold_sound", "tie_never_abandons")
                if not row[key]]

    if numba_present:
        dataset = generate_dataset(args.preset, size=args.size, seed=0)
        trajectories = dataset.point_arrays(spatial_only=True)
        record["matrix_build"] = build = benchmark_matrix_build(trajectories,
                                                                args.repeats)
        record["abandoning_knn"] = knn = benchmark_abandoning_knn(
            trajectories, args.queries, args.k)
        if not build["exact_match"]:
            failures.append("matrix build not bitwise identical across backends")
        if not knn["exact_match"]:
            failures.append("kNN not identical to knn_from_matrix")
        # Wall-clock floors only gate at the calibrated scale.
        if args.size >= 200:
            if build["speedup"] < SPEEDUP_FLOOR:
                failures.append(f"dtw matrix build speedup "
                                f"{build['speedup']:.2f}x below {SPEEDUP_FLOOR}x")
            if knn["latency_ratio"] <= 1.0:
                failures.append(f"abandoning kNN latency_ratio "
                                f"{knn['latency_ratio']:.2f} not > 1.0")
    else:
        record["matrix_build"] = None
        record["abandoning_knn"] = None

    # Embed the process-wide telemetry snapshot: counters (DP cell work,
    # abandons, search traffic) plus any span histograms REPRO_OBS captured,
    # so the perf trajectory is machine-readable across PRs.
    record["telemetry"] = obs_snapshot()
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(record, indent=2) + "\n")

    print(f"backend={record['kernel_backend']} "
          f"(numba {record['numba_version']}, "
          f"warmup {record['warmup_seconds']:.3f}s)")
    for measure, row in exactness.items():
        flag = "OK " if all(row[k] for k in
                            ("exact", "threshold_sound", "tie_never_abandons")) else "BAD"
        print(f"  {flag} {measure:10s} maxdiff {row['max_abs_difference']:.2e}")
    if numba_present:
        print(f"  dtw matrix build n={args.size}: "
              f"{record['matrix_build']['numpy_seconds']:.3f}s -> "
              f"{record['matrix_build']['numba_seconds']:.3f}s "
              f"({record['matrix_build']['speedup']:.1f}x)")
        print(f"  abandoning kNN: {record['abandoning_knn']['full_seconds']:.3f}s -> "
              f"{record['abandoning_knn']['abandoning_seconds']:.3f}s "
              f"(ratio {record['abandoning_knn']['latency_ratio']:.2f})")
    else:
        print("  numba absent: speed section skipped (exactness checked via "
              "the pure-python stub path)")
    print(f"saved {RESULTS_PATH}")

    for failure in failures:
        print(f"WARNING: {failure}")
    return 1 if failures and args.strict else 0


if __name__ == "__main__":
    raise SystemExit(main())
