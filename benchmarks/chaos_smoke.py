"""Chaos smoke run: seeded faults through the serving engine, gated on parity.

Drives one shared-pool :class:`~repro.engine.MatrixEngine` through four phases
and gates every one of them on the resilience layer's core promise — **a query
that completes is bit-identical to the serial no-fault reference**:

* **A (baseline)** — no faults installed; pool result equals the serial
  reference and the disabled injection hooks left every fault counter at
  zero.
* **B (flaky)** — a seeded ``shm_attach_fail``/``slow_worker`` schedule makes
  workers stumble; the dispatch retries only the unfinished chunks, stays
  inside the policy's retry budget, never degrades, and still matches the
  reference bitwise.
* **C (hard down)** — ``worker_crash@call=1`` crashes every fresh worker's
  first chunk, so the pool is deterministically unusable; the retry budget
  drains, the degradation ladder steps ``shared`` down to in-process
  ``chunked`` with its one-time ``RuntimeWarning``, the in-process fallback
  finishes the call, and the answer is still bitwise-exact.
* **D (recovery)** — faults cleared; after ``probe_interval`` clean calls at
  the degraded rung the ladder probes back up to the requested strategy and
  ``resilience.recoveries`` ticks.

Exit status is strict: any failed check exits non-zero, which is how the CI
chaos job gates.  The per-phase record (checks, counter deltas, retry counts)
lands in ``benchmarks/results/chaos_smoke.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from repro.data import generate_dataset
from repro.engine import MatrixEngine, live_arena_names, reset_shared_pool
from repro.obs import get_registry
from repro.resilience import (
    ResiliencePolicy,
    clear_fault_plan,
    install_fault_plan,
)

RESULTS_DIR = Path(__file__).parent / "results"

#: Registry counters worth recording per phase (deltas, not totals).
COUNTERS = ("resilience.retries", "resilience.deadline_hits",
            "resilience.fallback_chunks", "resilience.breaker_trips",
            "resilience.degradations", "resilience.recoveries",
            "resilience.faults_injected")


def counter_snapshot() -> dict:
    counters = get_registry().snapshot()["counters"]
    return {name: counters.get(name, 0) for name in COUNTERS}


def delta(before: dict, after: dict) -> dict:
    return {name: after[name] - before[name] for name in COUNTERS
            if after[name] != before[name]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=14,
                        help="database size (small: this is a smoke run)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--chunk-size", type=int, default=3)
    parser.add_argument("--seed", type=int, default=42,
                        help="fault-plan seed for the flaky phase")
    parser.add_argument("--out", type=Path,
                        default=RESULTS_DIR / "chaos_smoke.json")
    args = parser.parse_args()

    dataset = generate_dataset("chengdu", size=args.size, seed=0)
    trajectories = dataset.point_arrays(spatial_only=True)
    reference = MatrixEngine(strategy="serial", cache=None).pairwise(
        trajectories, "dtw")

    requested = "shared"
    # A generous budget: the flaky phase must never drain it (worker/chunk
    # scheduling varies across machines, so the exact failure count does
    # too), while the hard-down phase drains any finite budget by design.
    policy = ResiliencePolicy(max_retries=6, backoff_base=0.01,
                              backoff_max=0.05, probe_interval=2)
    engine = MatrixEngine(strategy=requested, cache=None,
                          chunk_size=args.chunk_size,
                          max_workers=args.workers, policy=policy)

    failures: list[str] = []
    record = {"requested_strategy": requested, "size": args.size,
              "workers": args.workers, "seed": args.seed, "phases": {}}

    def check(condition: bool, label: str) -> None:
        if not condition:
            failures.append(label)

    def run_phase(name: str, spec: str | None, expect_warning: bool = False):
        if spec is None:
            clear_fault_plan()
        else:
            install_fault_plan(spec)
        before = counter_snapshot()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values = engine.pairwise(trajectories, "dtw")
        ladder_warnings = [w for w in caught
                           if issubclass(w.category, RuntimeWarning)
                           and "degrading" in str(w.message)]
        exact = bool(np.array_equal(values, reference))
        check(exact, f"phase {name}: values diverged from the serial "
                     f"no-fault reference")
        if expect_warning:
            check(len(ladder_warnings) == 1,
                  f"phase {name}: expected exactly one degradation "
                  f"RuntimeWarning, saw {len(ladder_warnings)}")
        else:
            check(not ladder_warnings,
                  f"phase {name}: unexpected degradation warning")
        phase_record = {
            "spec": spec, "bit_identical": exact,
            "retries": engine.last_dispatch.get("retries", 0),
            "fallback_chunks": engine.last_dispatch.get("fallback_chunks", 0),
            "ladder_offset": engine._breaker.offset,
            "counters": delta(before, counter_snapshot()),
        }
        record["phases"][name] = phase_record
        return phase_record

    try:
        # -- A: clean baseline -- disabled hooks must be invisible.
        phase = run_phase("A_baseline", None)
        check(phase["counters"].get("resilience.faults_injected", 0) == 0,
              "phase A: faults fired with no plan installed")
        check(phase["retries"] == 0, "phase A: clean dispatch retried")

        # -- B: flaky but recoverable -- retries inside the budget, no rung
        # change.  The parent-side schedule is seeded, so a failing run
        # replays exactly from the recorded spec.
        phase = run_phase(
            "B_flaky",
            f"seed={args.seed};shm_attach_fail@p=0.2;"
            f"slow_worker@p=0.2,delay=0.002")
        check(phase["retries"] <= policy.max_retries,
              f"phase B: {phase['retries']} retries exceed the budget "
              f"of {policy.max_retries}")
        check(phase["ladder_offset"] == 0,
              "phase B: a transient schedule must not degrade the ladder")

        # -- C: pool hard down -- budget drains, ladder steps down once,
        # in-process fallback still answers bitwise-exactly.
        phase = run_phase("C_hard_down", "worker_crash@call=1",
                          expect_warning=True)
        check(phase["ladder_offset"] == 1,
              f"phase C: expected one rung down, got {phase['ladder_offset']}")
        check(phase["counters"].get("resilience.fallback_chunks", 0) > 0,
              "phase C: the in-process fallback never ran")

        # -- D: recovery -- clean calls at the degraded rung probe back up.
        clear_fault_plan()
        before = counter_snapshot()
        for _ in range(policy.probe_interval + 1):
            values = engine.pairwise(trajectories, "dtw")
            check(bool(np.array_equal(values, reference)),
                  "phase D: recovery call diverged from the reference")
        recovery = delta(before, counter_snapshot())
        record["phases"]["D_recovery"] = {
            "spec": None, "ladder_offset": engine._breaker.offset,
            "counters": recovery,
        }
        check(engine._breaker.offset == 0,
              f"phase D: ladder still degraded after "
              f"{policy.probe_interval + 1} clean calls")
        check(recovery.get("resilience.recoveries", 0) >= 1,
              "phase D: no recovery was counted")
    finally:
        clear_fault_plan()
        reset_shared_pool(args.workers)

    leaked = sorted(live_arena_names())
    check(not leaked, f"leaked shared-memory segments: {leaked}")
    record["leaked_arenas"] = leaked
    record["failures"] = failures

    RESULTS_DIR.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n")

    for name, phase in record["phases"].items():
        counters = ", ".join(f"{key.split('.', 1)[1]}={value}"
                             for key, value in phase["counters"].items()) or "-"
        print(f"{name:12s} offset={phase['ladder_offset']}  {counters}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("chaos smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
