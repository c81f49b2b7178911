"""Micro-benchmark: the zero-copy ``shared`` pool vs in-process ``chunked``.

``chunked`` runs every chunk's batch kernel in the calling process.  The
``shared`` strategy spreads the same chunks over a persistent worker pool fed
through a packed shared-memory trajectory arena published once per call, so
chunks carry only integer pair indices instead of pickled point arrays.

This benchmark runs the same pairwise workload under both strategies and
records three things to ``benchmarks/results/parallel_speedup.json``:

* **latency speedup** — median ``chunked`` seconds / median ``shared``
  seconds over interleaved repeats (the two strategies alternate, so host
  drift hits both alike).  The shared pool is warmed once before timing
  (amortized startup *is* the feature).  The ≥1.2× acceptance floor applies
  at the full scale (``--size`` ≥ 200) on machines with ≥ 2 usable cores —
  on a single core the pool's workers share the CPU with nothing to gain,
  and wall-clock is recorded as informational;
* **bytes shipped** — what pickling each pair's point arrays would ship,
  ``Σ_{i<j} nbytes(a_i) + nbytes(a_j)``, versus the index metadata plus one
  arena that ``shared`` actually ships; deterministic, with a ≥8× reduction
  floor whenever the shared path actually dispatched;
* **exactness** — both strategies' matrices are asserted *bitwise identical*
  to the ``serial`` strategy, always.

Run with::

    PYTHONPATH=src python benchmarks/parallel_speedup.py [--size 200] [--workers 4]

``--strict`` exits non-zero on an exactness failure or a missed floor whose
gate applies (mirroring the other speedup benchmarks, whose floors only gate
at their calibrated scales).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.data import generate_dataset
from repro.engine import MatrixEngine, backend_provenance
from repro.obs import snapshot as obs_snapshot

RESULTS_PATH = Path(__file__).parent / "results" / "parallel_speedup.json"

#: Minimum acceptable chunked/shared wall-clock ratio (multi-core, full
#: scale).  Interleaved repeats on a 2-core host measured 1.3–1.75×.
SPEEDUP_FLOOR = 1.2
#: Minimum acceptable pickled/shared bytes-shipped ratio (deterministic).
BYTES_FLOOR = 8.0
#: Floors are calibrated for this workload scale (matching the other benches).
FLOOR_SIZE = 200


def usable_cores() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def benchmark_measure(trajectories, measure: str, workers: int,
                      repeats: int, kwargs: dict) -> dict:
    serial = MatrixEngine(strategy="serial", cache=None)
    chunked = MatrixEngine(strategy="chunked", cache=None)
    shared = MatrixEngine(strategy="shared", cache=None, max_workers=workers)

    reference = serial.pairwise(trajectories, measure, **kwargs)
    chunked_matrix = chunked.pairwise(trajectories, measure, **kwargs)
    shared_matrix = shared.pairwise(trajectories, measure, **kwargs)  # warms the pool

    times = {"chunked": [], "shared": []}
    for _ in range(repeats):
        for name, engine in (("chunked", chunked), ("shared", shared)):
            start = time.perf_counter()
            engine.pairwise(trajectories, measure, **kwargs)
            times[name].append(time.perf_counter() - start)
    chunked_s = float(np.median(times["chunked"]))
    shared_s = float(np.median(times["shared"]))

    # Every trajectory appears in n-1 pairs, so pickling each pair's arrays
    # ships it n-1 times; the arena publishes it once.
    point_bytes = sum(np.asarray(t, dtype=np.float64).nbytes for t in trajectories)
    pickled_bytes = (len(trajectories) - 1) * point_bytes
    # A workload small enough to fit one chunk never leaves the process
    # (``last_dispatch`` stays None): there are no shipped bytes to account for.
    dispatch = shared.last_dispatch or {"payload_bytes": 0, "arena_bytes": 0,
                                        "num_chunks": 1}
    shared_bytes = dispatch["payload_bytes"] + dispatch["arena_bytes"]
    return {
        "exact_match": bool(np.array_equal(shared_matrix, reference)
                            and np.array_equal(chunked_matrix, reference)),
        "chunked_seconds": chunked_s,
        "shared_seconds": shared_s,
        "speedup": chunked_s / max(shared_s, 1e-12),
        "pickled_payload_bytes": int(pickled_bytes),
        "shared_payload_bytes": dispatch["payload_bytes"],
        "shared_arena_bytes": dispatch["arena_bytes"],
        "bytes_reduction": pickled_bytes / max(shared_bytes, 1),
        "num_chunks": dispatch["num_chunks"],
        "shared_memory_used": dispatch["arena_bytes"] > 0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=200,
                        help="number of trajectories (default 200)")
    parser.add_argument("--workers", type=int, default=4,
                        help="shared pool size (default 4)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--preset", default="chengdu")
    parser.add_argument("--measures", nargs="+", default=["dtw", "erp"])
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero when exactness fails, the bytes-"
                             "shipped floor is missed, or (at n>=%d with >=2 "
                             "usable cores) the wall-clock speedup floor is "
                             "missed" % FLOOR_SIZE)
    args = parser.parse_args()

    dataset = generate_dataset(args.preset, size=args.size, seed=0)
    trajectories = dataset.point_arrays(spatial_only=True)
    kwargs_by_measure = {"edr": {"epsilon": 0.25}, "lcss": {"epsilon": 0.25}}

    cores = usable_cores()
    # Warm the active backend before any timed run; provenance keys make the
    # recorded latencies comparable across boxes and backends.
    provenance = backend_provenance()
    rows = {measure: benchmark_measure(trajectories, measure, args.workers,
                                       args.repeats,
                                       kwargs_by_measure.get(measure, {}))
            for measure in args.measures}

    gate_speedup = args.size >= FLOOR_SIZE and cores >= 2
    record = {
        "preset": args.preset,
        "size": args.size,
        "workers": args.workers,
        "repeats": args.repeats,
        "usable_cores": cores,
        "platform": platform.platform(),
        **provenance,
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_floor_gated": gate_speedup,
        "bytes_floor": BYTES_FLOOR,
        "measures": rows,
    }
    # Embed the process-wide telemetry snapshot: counters (DP cell work,
    # abandons, search traffic) plus any span histograms REPRO_OBS captured,
    # so the perf trajectory is machine-readable across PRs.
    record["telemetry"] = obs_snapshot()
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(record, indent=2) + "\n")

    print(f"n={args.size} ({args.preset}), {args.workers} workers, "
          f"{cores} usable core(s), median of {args.repeats} interleaved")
    for measure, row in rows.items():
        print(f"  {measure:8s} chunked {row['chunked_seconds']:.3f}s -> "
              f"shared {row['shared_seconds']:.3f}s ({row['speedup']:.2f}x), "
              f"shipped {row['pickled_payload_bytes']:,} pickled -> "
              f"{row['shared_payload_bytes'] + row['shared_arena_bytes']:,} bytes "
              f"({row['bytes_reduction']:.1f}x less), exact={row['exact_match']}")
    print(f"saved {RESULTS_PATH}")

    failures = []
    for measure, row in rows.items():
        if not row["exact_match"]:
            failures.append(f"{measure} not bitwise identical to serial")
        if row["shared_memory_used"] and row["bytes_reduction"] < BYTES_FLOOR:
            failures.append(f"{measure} bytes-shipped reduction below {BYTES_FLOOR}x")
        if gate_speedup and row["speedup"] < SPEEDUP_FLOOR:
            failures.append(f"{measure} shared speedup over chunked below "
                            f"{SPEEDUP_FLOOR}x")
    if not gate_speedup:
        reason = (f"size {args.size} < {FLOOR_SIZE}" if args.size < FLOOR_SIZE
                  else f"only {cores} usable core(s)")
        print(f"NOTE: speedup floor not gated ({reason}); wall-clock recorded "
              f"as informational")
    for failure in failures:
        print(f"WARNING: {failure}")
    return 1 if failures and args.strict else 0


if __name__ == "__main__":
    raise SystemExit(main())
