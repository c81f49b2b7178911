"""Tests of the benchmark harness, its comparison tool and its workloads.

Collected by the repository's tier-1 run (``PYTHONPATH=src python -m pytest``);
the basename is unique and ``bench/`` has no ``conftest.py``, so this module
never shadows another directory's ``conftest`` import.  The smoke test runs
every workload at its tiny ``--smoke`` scale in fresh processes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for path in (str(BENCH_DIR), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
from harness import Tracer, summarize, tail_percentile  # noqa: E402
from workloads import WORKLOADS, same_topk  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ------------------------------------------------------------------ contract
def test_benchmark_json_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["bench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert len(BENCHMARK["end_to_end"]) == 6 and len(BENCHMARK["per_layer"]) == 35
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in BENCHMARK["workloads"])
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


# ---------------------------------------------------------------- tail rule
@pytest.mark.parametrize("count, level", [
    (9, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    (10000, 99.9)])
def test_tail_percentile_has_ten_samples_beyond(count, level):
    assert tail_percentile(count) == level


def test_summarize_reports_count_and_pinned_tail():
    values = list(range(1, 201))
    summary = summarize(values)
    assert summary["n"] == 200 and summary["median"] == 100.5
    assert summary["tail_percentile"] == 95.0
    assert summary["tail"] == pytest.approx(np.percentile(values, 95))
    # Pinned to a smaller window count, the percentile stays put.
    assert summarize(values, tail_count=100)["tail_percentile"] == 90.0
    # No percentile has ten samples beyond: the tail is the maximum.
    assert summarize([3.0, 1.0, 2.0])["tail"] == 3.0


# -------------------------------------------------------------------- spans
def test_self_time_subtracts_nested_children():
    tracer = Tracer()
    tracer.spans = [
        ("request.query", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 2.0, 3.0, 1, 0),
        ("c", 5.0, 9.0, 0, 0),
    ]
    assert tracer.self_times() == [3.0, 2.0, 1.0, 4.0]
    totals = tracer.totals()
    assert totals["a"] == {"wall": 3.0, "self": 2.0, "calls": 1}
    assert set(tracer.totals(within="a")) == {"b"}
    assert tracer.coverage() == pytest.approx(0.7)


class _Service:
    def outer(self, value):
        return self.inner(value) + 1

    def inner(self, value):
        return value * 2

    @staticmethod
    def helper(value):
        return value - 1


def test_wrap_records_parents_and_restores():
    service = _Service()
    tracer = Tracer()
    tracer.wrap(service, "outer", "outer")
    tracer.wrap(service, "inner", "inner")
    tracer.wrap(_Service, "helper", "helper")
    try:
        assert service.outer(3) == 7  # disabled: plain calls, no spans
        assert tracer.spans == []
        tracer.enabled = True
        with tracer.request("query"):
            assert service.outer(3) == 7
            assert _Service.helper(3) == 2
    finally:
        tracer.enabled = False
        tracer.restore()
    names = [(name, parent) for name, _, _, parent, _ in tracer.spans]
    assert names == [("request.query", -1), ("outer", 0), ("inner", 1), ("helper", 0)]
    assert "outer" not in vars(service) and "inner" not in vars(service)
    assert isinstance(vars(_Service)["helper"], staticmethod)
    assert _Service.helper(5) == 4


def test_same_topk_accepts_reordered_ties_only():
    distances = np.array([0.5, 0.1, 0.3, 0.3, 0.9])
    assert same_topk([1, 2, 3], distances, 3)
    assert same_topk([1, 3, 2], distances, 3)
    assert not same_topk([1, 2, 0], distances, 3)


# -------------------------------------------------------------- determinism
def _knn_schedule(seed):
    workload = WORKLOADS["knn_serving"](seed, smoke=True)
    return [(op.kind, op.payload) for op in workload.schedule()]


def test_request_schedule_repeats_per_seed():
    assert _knn_schedule(0) == _knn_schedule(0)
    assert _knn_schedule(0) != _knn_schedule(1)
    first, again, other = (WORKLOADS["embed_retrieval"](seed, smoke=True)
                           for seed in (0, 0, 1))
    batch = lambda workload: next(iter(workload.schedule())).payload[1][0]  # noqa: E731
    assert np.array_equal(batch(first), batch(again))
    assert not np.array_equal(batch(first), batch(other))


def _tick_schedule(seed):
    workload = WORKLOADS["stream_monitor"](seed, smoke=True)
    workload.setup()
    return [(sorted(tick.appends), sorted(tick.evicts.items()),
             [points.tolist() for points in tick.appends.values()])
            for fleet in workload.fleets for tick in fleet.ticks]


def test_tick_schedule_repeats_per_seed():
    assert _tick_schedule(0) == _tick_schedule(0)
    assert _tick_schedule(0) != _tick_schedule(1)


# ------------------------------------------------------------------ compare
def _record(workload, seed, value, trace=0, counter=7):
    metrics = {m["name"]: {"value": value, "unit": m["unit"]}
               for m in BENCHMARK["end_to_end"]}
    return {"workload": workload, "seed": seed, "trace": trace, "metrics": metrics,
            "deterministic": {"engine.dp_cells": counter}}


def _verdict(parent_values, change_values, metric="latency_p50_ms"):
    parent = [_record("knn_serving", seed, v) for seed, v in enumerate(parent_values)]
    change = [_record("knn_serving", seed, v) for seed, v in enumerate(change_values)]
    rows = compare.compare(parent, change, BENCHMARK)
    return next(row for row in rows if row["metric"] == metric)


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 100.2]
    assert _verdict(steady, steady)["verdict"] == "same"
    assert _verdict(steady, [v * 1.3 for v in steady])["verdict"] == "regressed"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert _verdict(steady, noisy)["verdict"] == "unresolved"
    # Wide spread, but every change run is better than every parent run.
    assert _verdict(steady, [40.0, 60.0, 80.0, 50.0, 70.0])["verdict"] == "same"
    # Higher-is-better metric: a drop is the regression.
    assert _verdict(steady, [v * 0.8 for v in steady], "hr10")["verdict"] == "regressed"


def test_compare_gain_rule_needs_ten_paired_wins():
    parent = [100.0 + (seed % 3) for seed in range(10)]
    faster = [p * 0.8 for p in parent]
    assert _verdict(parent, faster)["gain"]
    assert not _verdict(parent[:9], faster[:9])["gain"]  # fewer than ten pairs
    mixed = faster[:8] + [p * 1.01 for p in parent[8:]]
    assert not _verdict(parent, mixed)["gain"]  # 8/10 wins


def test_compare_counters_identical_or_changed():
    parent = [_record("knn_serving", 0, 1.0), _record("knn_serving", 1, 1.0, counter=9)]
    same = [_record("knn_serving", 0, 2.0, trace=1), _record("knn_serving", 1, 2.0,
                                                             counter=9)]
    changed = [_record("knn_serving", 0, 1.0, counter=8)]
    assert compare.compare_counters(parent, same) == {
        ("engine.dp_cells", "knn_serving"): "identical"}
    assert compare.compare_counters(parent, changed) == {
        ("engine.dp_cells", "knn_serving"): "changed"}


# -------------------------------------------------------------------- smoke
def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_runs_every_workload(tmp_path, trace):
    expected = {m["name"]: m["unit"]
                for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    for workload in WORKLOADS:
        done = _run(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--smoke", "--out", str(tmp_path)])
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= WORKLOADS[workload].SMOKE["min_ops"]
        assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
            == expected
        if not trace:
            assert all(entry["value"] > 0 for entry in result["metrics"].values())
    records = compare.load_records(tmp_path)
    assert sorted(r["workload"] for r in records) == sorted(WORKLOADS)
    for record in records:
        assert record["oracle"]["passed"] and record["oracle"]["checks"] >= 1
        assert {"git_sha", "backend", "nproc", "platform", "samples",
                "window_counters", "deterministic"} <= set(record)
        assert record["summaries"]["latency"]["n"] >= 1
    assert len(list(tmp_path.glob("*.spans.jsonl"))) == (len(WORKLOADS) if trace else 0)


def _session_members(session: int) -> list[int]:
    """Processes, zombies included, whose session id is ``session``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while being listed
            continue
        if int(fields[3]) == session:
            members.append(int(stat.parent.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs procfs")
def test_run_leaves_no_process_behind(tmp_path):
    # offline_pipeline starts the shared pool and the resource tracker.
    process = subprocess.Popen(
        [sys.executable, "bench/run.py", "--workload", "offline_pipeline", "--seed", "3",
         "--seconds", "0.2", "--trace", "0", "--smoke", "--out", str(tmp_path)],
        cwd=ROOT, start_new_session=True, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    assert process.wait(timeout=120) == 0
    assert _session_members(process.pid) == []


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(["--workload", "knn_serving", "--seed", "0", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
