"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 bench/run.py --workload knn_serving --seed 0 --seconds 20 --trace 0

``--workload`` is one of ``offline_pipeline``, ``knn_serving``,
``embed_retrieval``, ``stream_monitor`` or ``all`` (each workload in its own
fresh process, one after another).  The run

1. sets the workload up from scratch (pool start, warm-up and
   pre-embedding included), three times;
2. runs a closed loop with one client for ``--seconds`` seconds, never
   fewer than the workload's ``min_ops`` operations;
3. checks the outputs against an independent oracle, outside the clock,
   then sets the workload up three more times and reports the median of
   all six setups as ``setup_s``;
4. writes a JSON record under ``bench/out/`` and prints, as its last line,
   ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
   metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
   with ``--trace 1``;
5. stops and reaps every helper process it started (pool workers and
   multiprocessing's resource tracker) before it exits, on every path.

A traced run wraps each layer's public entry points with in-memory spans
and alternates traced and untraced operations of each kind, so the tracing
overhead is measured inside the same run.  The exit code is 0 when every
oracle passed, 1 when one failed and 2 when the repository's sources are
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCES = ROOT / "src"

#: How many times a run builds its workload from scratch for ``setup_s``:
#: half before the timed loop and half after the oracle, so the median
#: straddles two stretches of machine load instead of one.
SETUP_REPEATS = 6


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one setup: a quick functional check")
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out",
                        help="directory for JSON records (default bench/out)")
    return parser.parse_args(argv)


def _counters() -> dict:
    from repro.obs import snapshot

    return dict(snapshot()["counters"])


def _delta(before: dict, after: dict) -> dict:
    return {name: value - before.get(name, 0) for name, value in after.items()
            if value != before.get(name, 0)}


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def run_workload(workload, seconds: float, trace: bool, setup_repeats: int) -> dict:
    """Set up, run the closed loop and check one workload; returns raw results."""
    from harness import Tracer, peak_rss_mb

    tracer = Tracer()
    setup_times = []
    samples: list[tuple[str, float, bool]] = []
    errors: list[str] = []
    window = None

    def timed_setup(target):
        start = time.perf_counter()
        target.setup()
        setup_times.append(time.perf_counter() - start)

    try:
        for repeat in range((setup_repeats + 1) // 2):
            if repeat:
                workload.teardown()
            timed_setup(workload)
        if trace:
            workload.tracer = tracer
            workload.instrument(tracer)
        seen: dict[str, int] = {}
        before = _counters()
        start = time.perf_counter()
        for number, op in enumerate(workload.schedule()):
            if number == workload.min_ops:
                window = _delta(before, _counters())
            if number >= workload.min_ops and time.perf_counter() - start >= seconds:
                break
            seen[op.kind] = seen.get(op.kind, 0) + 1
            # Alternate per kind, so each kind has traced and untraced samples.
            traced = trace and seen[op.kind] % 2 == 1
            tracer.enabled = traced
            after_clock = None
            began = time.perf_counter()
            try:
                with tracer.request(op.kind):
                    after_clock = workload.execute(op)
            except Exception as error:  # counted as a failed operation
                errors.append(f"{op.kind}: {error!r}")
            elapsed = time.perf_counter() - began
            tracer.enabled = False
            if after_clock is not None:
                after_clock()
            samples.append((op.kind, elapsed, traced))
        wall = time.perf_counter() - start
        if window is None:
            if len(samples) < workload.min_ops:
                raise RuntimeError(f"schedule ended after {len(samples)} operations, "
                                   f"before the {workload.min_ops}-operation window")
            window = _delta(before, _counters())
    finally:
        tracer.restore()
        workload.teardown()
    # Read before the oracle runs: its reference computations are not the
    # program's memory.
    peak = peak_rss_mb()
    verdict = workload.check()
    # A fresh instance, so the measured run's state stays intact for reporting.
    spare = type(workload)(workload.seed, smoke=workload.smoke)
    for _ in range(setup_repeats // 2):
        try:
            timed_setup(spare)
        finally:
            spare.teardown()
    return {"setup": setup_times, "samples": samples, "wall": wall,
            "errors": errors, "window": window, "tracer": tracer,
            "peak_rss_mb": peak, "verdict": verdict}


def _metrics(workload, raw: dict, trace: bool, spec: dict) -> tuple[dict, dict]:
    """The printed metrics plus extra record fields."""
    from harness import summarize

    samples = raw["samples"]
    primary = [seconds for kind, seconds, _ in samples if kind == workload.primary]
    window_primary = sum(1 for kind, _, _ in samples[:workload.min_ops]
                         if kind == workload.primary)
    extra = {"latency": summarize([s * 1e3 for s in primary], window_primary),
             "setup": summarize(raw["setup"])}
    traced = [s for kind, s, flag in samples if kind == workload.primary and flag]
    untraced = [s for kind, s, flag in samples if kind == workload.primary and not flag]
    if trace:
        tracer = raw["tracer"]
        measured = workload.layers(tracer, len(traced), raw["window"], samples)
        extra["trace_overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0
            if traced and untraced else None)
        extra["trace_coverage_frac"] = tracer.coverage()
        values = {name: float(measured.get(name, 0.0)) for name in spec["per_layer"]}
        extra["not_exercised"] = sorted(set(spec["per_layer"]) - set(measured))
        unknown = set(measured) - set(spec["per_layer"])
    else:
        values = {
            "setup_s": extra["setup"]["median"],
            "peak_rss_mb": raw["peak_rss_mb"],
            "latency_p50_ms": extra["latency"]["median"],
            "latency_tail_ms": extra["latency"]["tail"],
            "throughput_per_s": workload.throughput(samples, raw["wall"]),
            "hr10": raw["verdict"]["hr10"],
        }
        unknown = set(values) ^ set(spec["end_to_end"])
    if unknown:
        raise RuntimeError(f"metrics disagree with BENCHMARK.json: {sorted(unknown)}")
    units = spec["per_layer"] if trace else spec["end_to_end"]
    return {name: {"value": values[name], "unit": units[name]} for name in units}, extra


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    return {"end_to_end": {m["name"]: m["unit"] for m in benchmark["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in benchmark["per_layer"]}}


def _write_record(args, workload, raw, metrics, extra) -> Path:
    from repro.engine import backend_provenance

    samples = raw["samples"]
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "git_sha": _git_sha(),
        "backend": backend_provenance(warmup=False),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "params": workload.params,
        "attempted": len(samples),
        "failed": len(raw["errors"]),
        "errors": raw["errors"][:20],
        "timed_wall_s": raw["wall"],
        "oracle": raw["verdict"],
        "metrics": metrics,
        "summaries": extra,
        "samples": {kind: [s for k, s, _ in samples if k == kind]
                    for kind in sorted({k for k, _, _ in samples})},
        "window_counters": raw["window"],
        "deterministic": workload.deterministic(raw["window"]),
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = (f"{workload.name}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    path = args.out / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1, default=float) + "\n")
    if args.trace:
        with open(args.out / f"{stem}.spans.jsonl", "w") as handle:
            for span in raw["tracer"].records():
                handle.write(json.dumps(span) + "\n")
    return path


def _run_all(args) -> int:
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(args.out)]
        if args.smoke:
            command.append("--smoke")
        status = max(status, subprocess.run(command).returncode)
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"error: the repro sources are missing under {SOURCES}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCES))
    warnings.filterwarnings("ignore", message="kernel backend 'auto' requested")
    if args.workload == "all":
        return _run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    try:
        return _run_one(args, WORKLOADS)
    finally:
        _stop_helpers()


def _stop_helpers() -> None:
    """Stop every helper process the run started and wait for each to end.

    The engine's pools are joined and its shared-memory segments unlinked
    first, so nothing is left for multiprocessing's resource tracker to clean
    up; then the tracker itself is stopped and reaped.  Left to exit on its
    own it would outlive this process for a moment, unreaped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    from repro.engine import reset_arena_cache, shutdown_shared_pools

    shutdown_shared_pools()
    reset_arena_cache()
    for child in multiprocessing.active_children():
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _run_one(args, workloads) -> int:
    spec = _spec()
    workload = workloads[args.workload](args.seed, smoke=args.smoke)
    raw = run_workload(workload, args.seconds, bool(args.trace),
                       1 if args.smoke else SETUP_REPEATS)
    metrics, extra = _metrics(workload, raw, bool(args.trace), spec)
    path = _write_record(args, workload, raw, metrics, extra)

    verdict = raw["verdict"]
    latency = extra["latency"]
    print(f"{workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(raw['samples'])} operations ({len(raw['errors'])} failed) in "
          f"{raw['wall']:.1f} s; oracle {'pass' if verdict['passed'] else 'FAIL'} "
          f"({verdict['checks']} checks)")
    for mismatch in verdict["mismatches"][:5]:
        print(f"  mismatch: {mismatch}")
    print(f"  {workload.primary} latency: n={latency['n']} "
          f"p50={latency['median']:.3f} ms "
          f"p{latency['tail_percentile'] or 100:g}={latency['tail']:.3f} ms")
    if args.trace and extra["trace_overhead_frac"] is not None:
        print(f"  trace overhead {extra['trace_overhead_frac']:+.2%}, "
              f"layer coverage {extra['trace_coverage_frac']:.1%}")
    for name, entry in metrics.items():
        print(f"  {name:32s} {entry['value']:.6g} {entry['unit']}")
    print(f"  record: {path}")
    print(json.dumps({"correct": bool(verdict["passed"]),
                      "attempted": len(raw["samples"]),
                      "failed": len(raw["errors"]),
                      "metrics": metrics}))
    return 0 if verdict["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
