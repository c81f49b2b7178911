"""Compare two sets of benchmark records, metric by metric and workload by workload.

Usage::

    python3 bench/compare.py PARENT_DIR/ CHANGE_DIR/

Each directory holds the JSON records ``bench/run.py`` writes.  For every
(end-to-end metric, workload) pair the untraced records give one value per
run; the table shows both medians and quartile spreads and a verdict:

* ``regressed`` — the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json`` (with a spread wider than
  the bound, only when every change run is worse than every parent run);
* ``unresolved`` — a run-to-run spread is wider than the bound, unless every
  change run reads better than every parent run;
* ``same`` — otherwise.

Runs with the same seed on both sides are paired, and the ``gain`` column
applies the gain rule: the change wins at least nine tenths of at least ten
pairs (ties count for neither side) and the medians differ by more than the
parent's interquartile distance.  Counters that repeat exactly for a seed
(the records' ``deterministic`` block) get ``identical`` or ``changed``.
The exit code is 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

from harness import quartile_spread  # noqa: E402

GAIN_SHARE = 0.9
MIN_PAIRS = 10


def load_records(directory: Path) -> list[dict]:
    """Every run record in ``directory`` (span files are skipped)."""
    records = []
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as handle:
            record = json.load(handle)
        if "workload" in record and "metrics" in record:
            records.append(record)
    return records


def _better(a: float, b: float, direction: str) -> bool:
    """Whether ``a`` reads strictly better than ``b``."""
    return a < b if direction == "lower" else a > b


def compare_metric(parent: list[float], change: list[float], direction: str,
                   bound: float, pairs: list[tuple[float, float]] = ()) -> dict:
    """Verdict and gain of one (metric, workload) pair; see the module docstring."""
    median_a = statistics.median(parent)
    median_b = statistics.median(change)
    worse = (median_b - median_a) if direction == "lower" else (median_a - median_b)
    worse /= abs(median_a) if median_a else 1.0
    spread_a, spread_b = quartile_spread(parent), quartile_spread(change)
    wide = max(spread_a, spread_b) > bound
    all_better = all(_better(b, a, direction) for b in change for a in parent)
    all_worse = all(_better(a, b, direction) for b in change for a in parent)
    if worse > bound and (not wide or all_worse):
        verdict = "regressed"
    elif wide and not all_better:
        verdict = "unresolved"
    else:
        verdict = "same"
    wins = sum(1 for a, b in pairs if _better(b, a, direction))
    iqr_a = spread_a * abs(median_a)
    gain = (len(pairs) >= MIN_PAIRS and wins >= GAIN_SHARE * len(pairs)
            and _better(median_b, median_a, direction)
            and abs(median_b - median_a) > iqr_a)
    return {"parent_median": median_a, "change_median": median_b,
            "parent_spread": spread_a, "change_spread": spread_b,
            "worse_frac": worse, "verdict": verdict, "wins": wins,
            "pairs": len(pairs), "gain": gain}


def _paired(parent: list[dict], change: list[dict], metric: str):
    """(parent, change) values of runs with the same seed, in record order."""
    by_seed = defaultdict(list)
    for record in parent:
        by_seed[record["seed"]].append(record["metrics"][metric]["value"])
    pairs = []
    for record in change:
        waiting = by_seed.get(record["seed"])
        if waiting:
            pairs.append((waiting.pop(0), record["metrics"][metric]["value"]))
    return pairs


def compare_counters(parent: list[dict], change: list[dict]) -> dict:
    """Per (counter, workload): ``identical`` when every seed reads one value."""
    values = defaultdict(lambda: defaultdict(set))
    for record in parent + change:
        for name, value in record.get("deterministic", {}).items():
            values[(name, record["workload"])][record["seed"]].add(value)
    return {key: "identical" if all(len(seen) == 1 for seen in by_seed.values())
            else "changed" for key, by_seed in values.items()}


def compare(parent: list[dict], change: list[dict], benchmark: dict) -> list[dict]:
    """One row per (end-to-end metric, workload) found in both record sets."""
    rows = []
    untraced_a = [r for r in parent if not r.get("trace")]
    untraced_b = [r for r in change if not r.get("trace")]
    workloads = [w["name"] for w in benchmark["workloads"]]
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        for workload in workloads:
            runs_a = [r for r in untraced_a if r["workload"] == workload]
            runs_b = [r for r in untraced_b if r["workload"] == workload]
            if not runs_a or not runs_b:
                continue
            row = compare_metric([r["metrics"][name]["value"] for r in runs_a],
                                 [r["metrics"][name]["value"] for r in runs_b],
                                 metric["better"], metric["bound"],
                                 _paired(runs_a, runs_b, name))
            row.update(metric=name, workload=workload, bound=metric["bound"],
                       runs=(len(runs_a), len(runs_b)))
            rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path,
                        default=BENCH_DIR.parent / "BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(args.benchmark) as handle:
        benchmark = json.load(handle)
    parent, change = load_records(args.parent), load_records(args.change)
    rows = compare(parent, change, benchmark)
    print(f"{'metric':18s} {'workload':17s} {'runs':>7s} {'parent (spread)':>22s} "
          f"{'change (spread)':>22s} {'worse':>8s} {'bound':>6s} verdict     gain")
    for row in rows:
        print(f"{row['metric']:18s} {row['workload']:17s} "
              f"{row['runs'][0]:>3d}/{row['runs'][1]:<3d} "
              f"{row['parent_median']:>12.5g} ({row['parent_spread']:6.1%}) "
              f"{row['change_median']:>12.5g} ({row['change_spread']:6.1%}) "
              f"{row['worse_frac']:>+8.1%} {row['bound']:>6.0%} {row['verdict']:11s} "
              f"{'yes' if row['gain'] else 'no'} ({row['wins']}/{row['pairs']})")
    counters = compare_counters(parent, change)
    if counters:
        print()
        for (name, workload), verdict in sorted(counters.items()):
            print(f"{name:28s} {workload:17s} {verdict}")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
