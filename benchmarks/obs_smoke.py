"""End-to-end observability smoke run: one query batch + one training epoch.

Forces ``REPRO_OBS=on``, points the JSONL exporter at a sink, then drives the
full stack the way the acceptance criterion describes — a ``SearchService``
answering queries through a shared-pool engine, followed by one
``SimilarityTrainer`` epoch — and checks the resulting telemetry:

* the ``engine.dp_cells`` registry counter is bit-equal to the sum of the
  per-measure split, with the cell work having been aggregated back from
  shared-pool workers as registry deltas;
* engine span histograms (``engine.pairs{...}``), search phase histograms
  (``search.lower_bound`` / ``search.index_probe`` / ``search.refine``) and
  training epoch timings (``train.epoch_seconds``) all recorded;
* service counters agree with ``SearchService.stats()``;
* the JSONL sink received ``training_epoch`` and ``snapshot`` events
  (``benchmarks/check_obs_schema.py`` validates their schemas).

Exit status is strict: any failed check exits non-zero, which is how the CI
smoke job gates.  Artifacts: the JSONL stream (``--jsonl``) and the final
snapshot JSON (``--snapshot``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.data import generate_dataset
from repro.distances import normalize_matrix, pairwise_distance_matrix
from repro.engine import MatrixEngine
from repro.models import MeanPoolEncoder
from repro.obs import (
    export_snapshot,
    format_report,
    get_registry,
    set_jsonl_path,
    set_obs_mode,
)
from repro.search import SearchService, TrajectoryIndex
from repro.training import SimilarityTrainer

RESULTS_DIR = Path(__file__).parent / "results"


def run_queries(dataset, engine, num_queries: int, k: int) -> dict:
    trajectories = dataset.point_arrays(spatial_only=True)
    service = SearchService(TrajectoryIndex(trajectories), measure="dtw", k=k,
                            engine=engine, batch_size=4)
    results = service.search_many(trajectories[:num_queries], exclude_self=True)
    # One repeated query exercises the cache-hit path.
    service.search(trajectories[0], exclude=0)
    return {"service": service, "results": results}


def run_training_epoch(dataset) -> dict:
    trajectories = dataset.point_arrays(spatial_only=True)
    truth = normalize_matrix(pairwise_distance_matrix(trajectories, "dtw"),
                             method="mean")
    encoder = MeanPoolEncoder.build(dataset, embedding_dim=8, hidden_dim=12, seed=0)
    trainer = SimilarityTrainer(encoder, seed=0)
    history = trainer.fit(dataset, truth, epochs=1)
    return {"history": history}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=24,
                        help="database size (small: this is a smoke run)")
    parser.add_argument("--queries", type=int, default=3)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--jsonl", type=Path,
                        default=RESULTS_DIR / "obs_smoke.jsonl")
    parser.add_argument("--snapshot", type=Path,
                        default=RESULTS_DIR / "obs_smoke_snapshot.json")
    args = parser.parse_args()

    RESULTS_DIR.mkdir(exist_ok=True)
    args.jsonl.parent.mkdir(parents=True, exist_ok=True)
    args.jsonl.write_text("")  # fresh sink per run
    set_obs_mode("on")
    set_jsonl_path(str(args.jsonl))
    get_registry().reset()

    dataset = generate_dataset("chengdu", size=args.size, seed=0)
    engine = MatrixEngine(strategy="shared", max_workers=args.workers,
                          chunk_size=4)
    try:
        query_run = run_queries(dataset, engine, args.queries, args.k)
        train_run = run_training_epoch(dataset)
    finally:
        engine.close()

    snap = export_snapshot(workload={"size": args.size,
                                     "queries": args.queries, "k": args.k})
    args.snapshot.write_text(json.dumps(snap, indent=2) + "\n")

    counters = snap["counters"]
    histograms = snap["histograms"]
    failures = []

    def check(condition: bool, label: str) -> None:
        if not condition:
            failures.append(label)

    # Worker-aggregated cell accounting: registry total == measure sum.
    total = counters.get("engine.dp_cells", 0)
    per_measure = sum(value for name, value in counters.items()
                      if name.startswith("engine.dp_cells."))
    check(total > 0, "engine.dp_cells is zero — no kernel work recorded")
    check(total == per_measure,
          f"per-measure cells {per_measure} do not sum to total {total}")

    check(any(name.startswith("engine.pairs") for name in histograms),
          "no engine.pairs span histogram")
    check(any(name.startswith("engine.dispatch") for name in histograms),
          "no engine.dispatch span histogram (shared pool did not dispatch)")
    for phase in ("search.lower_bound", "search.index_probe", "search.refine"):
        check(any(name.startswith(phase) for name in histograms),
              f"no {phase} span histogram")
    check(histograms.get("train.epoch_seconds", {}).get("count", 0) >= 1,
          "no train.epoch_seconds observation")

    service = query_run["service"]
    stats = service.stats()
    check(counters.get("service.queries", 0) == stats["queries_served"],
          "service.queries counter disagrees with stats()")
    check(stats["cache_hits"] >= 1, "repeated query did not hit the result cache")
    metrics = train_run["history"].metrics[0]
    check("epoch_seconds" in metrics,
          "trainer did not record epoch timings into history metrics")

    events = [json.loads(line) for line in
              args.jsonl.read_text().splitlines() if line.strip()]
    kinds = {event["kind"] for event in events}
    check("training_epoch" in kinds, "no training_epoch event in JSONL sink")
    check("snapshot" in kinds, "no snapshot event in JSONL sink")

    print(format_report())
    print(f"\njsonl events: {len(events)} ({', '.join(sorted(kinds))})")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("obs smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
