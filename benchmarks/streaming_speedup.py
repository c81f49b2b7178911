"""Micro-benchmark: incremental frontier extension vs full recompute.

The streaming PR's claim: on a live fleet with small per-tick deltas, keeping
per-pair DP frontiers (:class:`repro.engine.StreamingEngine`) and extending
them by exactly the new columns beats recomputing every changed (pattern,
window) distance from scratch — while staying **bitwise identical**.

The benchmark replays one generated city workload
(:func:`repro.data.generate_stream_workload`) through two paths, interleaved
tick by tick so machine drift cancels:

* **incremental** — each tick runs the way :class:`repro.search.
  StreamMonitor` drives the engine: lazy ``engine.append`` and ``evict`` per
  updated stream, then one ``engine.values`` call over the changed pairs,
  which advances them in stacked sweeps (one ``n × Δ`` frontier extension
  per changed pair, plus replays after unaligned evicts);
* **recompute** — the *vectorized batch kernel* over the same changed
  windows, one batched from-scratch sweep per tick (``n × m`` cells per
  pair).  This is the strongest honest baseline: a stateless from-scratch
  pass through the same per-pair reference kernels would be another order of
  magnitude slower.

Three gates (``--strict`` exits non-zero on failure):

* every per-tick incremental value equals the recompute value bit-for-bit —
  enforced at **every** scale;
* ``stream.dp_cells`` (what the extensions charged) comes in strictly below
  ``engine.dp_cells`` (what the recomputes charged) — every scale;
* incremental throughput ≥ ``SPEEDUP_FLOOR``× recompute — wall-clock, so
  gated only at the default scale or above (200 streams, windows ≥ 256
  points), where the asymptotic gap dominates constant factors.

Results land in ``benchmarks/results/streaming_speedup.json``.  Run with::

    PYTHONPATH=src python benchmarks/streaming_speedup.py [--streams 200] [--strict]
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.data import generate_dataset, generate_stream_workload
from repro.engine import StreamingEngine, get_batch_kernel
from repro.obs import snapshot as obs_snapshot
from repro.obs import export_snapshot

RESULTS_PATH = Path(__file__).parent / "results" / "streaming_speedup.json"

#: Acceptance floor (gated with --strict at default scale).
SPEEDUP_FLOOR = 5.0
#: Scale at which the wall-clock floor applies.
FLOOR_STREAMS = 200
FLOOR_INITIAL_POINTS = 256

MEASURE_KWARGS = {"edr": {"epsilon": 0.25}, "lcss": {"epsilon": 0.25}}


def _counters():
    return obs_snapshot()["counters"]


def run_workload(args) -> dict:
    workload = generate_stream_workload(
        args.preset, streams=args.streams, ticks=args.ticks, seed=args.seed,
        initial_points=args.initial_points, update_fraction=args.update_fraction,
        mean_appends=args.mean_appends, evict_fraction=args.evict_fraction)
    pattern = generate_dataset(args.preset, size=1, seed=args.seed + 1) \
        .point_arrays(spatial_only=True)[0][:args.pattern_points]
    kwargs = MEASURE_KWARGS.get(args.measure, {})
    batch = get_batch_kernel(args.measure)

    # Incremental path: one stream + one watched pair per trajectory, frontiers
    # warmed outside the clock — a live deployment's steady state.
    engine = StreamingEngine(checkpoint_every=args.checkpoint_every)
    pair_ids = []
    for stream_id, window in enumerate(workload.initial):
        engine.register_stream(stream_id, points=window)
        pair_ids.append(engine.watch(pattern, stream_id, args.measure, **kwargs))
    engine.values(pair_ids)

    # Recompute path: plain windows, re-swept from scratch on every change.
    windows = [window.copy() for window in workload.initial]

    before = _counters()
    stream_cells_0 = before.get("stream.dp_cells", 0)
    engine_cells_0 = before.get("engine.dp_cells", 0)

    incremental_seconds = recompute_seconds = 0.0
    ticks_run = mismatches = updated_pairs = 0
    for tick in workload.ticks:
        if not tick.appends and not tick.evicts:
            continue
        ticks_run += 1
        changed = sorted(set(tick.appends) | set(tick.evicts))

        start = time.perf_counter()
        for stream_id, points in tick.appends.items():
            engine.append(stream_id, points, lazy=True)
        for stream_id, count in tick.evicts.items():
            engine.evict(stream_id, count)
        incremental = engine.values([pair_ids[s] for s in changed])
        incremental_seconds += time.perf_counter() - start

        for stream_id, points in tick.appends.items():
            windows[stream_id] = np.concatenate([windows[stream_id], points])
        for stream_id, count in tick.evicts.items():
            windows[stream_id] = windows[stream_id][count:]
        start = time.perf_counter()
        recomputed = np.asarray(batch([pattern] * len(changed),
                                      [windows[s] for s in changed], **kwargs))
        recompute_seconds += time.perf_counter() - start

        updated_pairs += len(changed)
        mismatches += int(np.count_nonzero(incremental != recomputed))

    after = _counters()
    stream_cells = after.get("stream.dp_cells", 0) - stream_cells_0
    engine_cells = after.get("engine.dp_cells", 0) - engine_cells_0
    points = workload.total_appended_points()
    stats = engine.stats()
    return {
        "measure": args.measure,
        "streams": args.streams,
        "ticks": ticks_run,
        "updated_pairs": updated_pairs,
        "appended_points": points,
        "final_window_mean": float(np.mean(workload.final_lengths)),
        "exact_match": mismatches == 0,
        "mismatches": mismatches,
        "incremental_seconds": incremental_seconds,
        "recompute_seconds": recompute_seconds,
        "incremental_points_per_second": points / max(incremental_seconds, 1e-12),
        "recompute_points_per_second": points / max(recompute_seconds, 1e-12),
        "speedup": recompute_seconds / max(incremental_seconds, 1e-12),
        "stream_dp_cells": stream_cells,
        "recompute_dp_cells": engine_cells,
        "cells_ratio": engine_cells / max(stream_cells, 1),
        "replays": stats["replays"],
        "checkpoint_promotions": stats["checkpoint_promotions"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--streams", type=int, default=200,
                        help="fleet size (default 200)")
    parser.add_argument("--ticks", type=int, default=40)
    parser.add_argument("--initial-points", type=int, default=384,
                        help="starting window length; the recompute baseline "
                             "scales with it, the incremental path does not")
    parser.add_argument("--pattern-points", type=int, default=32)
    parser.add_argument("--update-fraction", type=float, default=0.15,
                        help="per-tick fraction of streams that report")
    parser.add_argument("--mean-appends", type=float, default=2.0,
                        help="mean points per report (small per-tick deltas)")
    parser.add_argument("--evict-fraction", type=float, default=0.0,
                        help="fraction of reports that also slide the window "
                             "head (exercises checkpointed replays)")
    parser.add_argument("--checkpoint-every", type=int, default=None)
    parser.add_argument("--measure", default="dtw",
                        choices=["dtw", "erp", "edr", "lcss", "frechet"])
    parser.add_argument("--preset", default="chengdu")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on an exactness or cell-count "
                             "failure at any scale, or a missed speedup floor "
                             "at the default scale or above")
    args = parser.parse_args()

    result = run_workload(args)

    record = {
        "preset": args.preset,
        "initial_points": args.initial_points,
        "pattern_points": args.pattern_points,
        "update_fraction": args.update_fraction,
        "mean_appends": args.mean_appends,
        "evict_fraction": args.evict_fraction,
        "platform": platform.platform(),
        "streaming": result,
        "telemetry": export_snapshot(benchmark="streaming_speedup"),
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(record, indent=2) + "\n")

    print(f"{args.streams} streams ({args.preset}), {result['ticks']} ticks, "
          f"{result['updated_pairs']} pair updates, "
          f"{result['appended_points']} points appended, "
          f"mean window {result['final_window_mean']:.0f}, "
          f"measure={args.measure}")
    print(f"  incremental : {result['incremental_seconds'] * 1e3:.1f} ms "
          f"({result['incremental_points_per_second']:.0f} points/s)")
    print(f"  recompute   : {result['recompute_seconds'] * 1e3:.1f} ms "
          f"({result['recompute_points_per_second']:.0f} points/s)")
    print(f"  speedup {result['speedup']:.1f}x, dp-cells "
          f"{result['stream_dp_cells']} vs {result['recompute_dp_cells']} "
          f"({result['cells_ratio']:.1f}x fewer), "
          f"exact={result['exact_match']}, replays={result['replays']}, "
          f"promotions={result['checkpoint_promotions']}")
    print(f"saved {RESULTS_PATH}")

    failures = []
    if not result["exact_match"]:
        failures.append(f"{result['mismatches']} incremental values differ "
                        f"from the batch recompute")
    if result["stream_dp_cells"] >= result["recompute_dp_cells"]:
        failures.append(f"streaming dp-cells not below recompute "
                        f"({result['stream_dp_cells']} vs "
                        f"{result['recompute_dp_cells']})")
    if (args.streams >= FLOOR_STREAMS
            and args.initial_points >= FLOOR_INITIAL_POINTS
            and result["speedup"] < SPEEDUP_FLOOR):
        failures.append(f"incremental speedup below {SPEEDUP_FLOOR}x "
                        f"({result['speedup']:.1f}x)")
    for failure in failures:
        print(f"WARNING: {failure}")
    return 1 if failures and args.strict else 0


if __name__ == "__main__":
    raise SystemExit(main())
