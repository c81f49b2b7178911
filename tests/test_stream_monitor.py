"""StreamMonitor continuous top-k, alert semantics and the streaming workload."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data import BoundingBox, generate_stream_workload
from repro.engine import StreamingEngine, get_batch_kernel
from repro.obs import snapshot
from repro.obs.export import set_jsonl_path
from repro.search import StreamAlert, StreamMonitor


def _walks(rng, count, length, origin_scale=1.0):
    origins = rng.uniform(-origin_scale, origin_scale, size=(count, 2))
    steps = rng.normal(scale=0.05, size=(count, length, 2))
    return [np.cumsum(steps[i], axis=0) + origins[i] for i in range(count)]


def _brute_topk(windows, pattern, region, measure, k, **kwargs):
    batch = get_batch_kernel(measure)
    ranked = []
    for trajectory_id, window in enumerate(windows):
        mins, maxs = window.min(axis=0), window.max(axis=0)
        if (mins[0] > region.max_lon or maxs[0] < region.min_lon
                or mins[1] > region.max_lat or maxs[1] < region.min_lat):
            continue
        distance = float(np.asarray(batch([pattern], [window], **kwargs))[0])
        ranked.append((distance, trajectory_id))
    return sorted(ranked)[:k]


REGION = BoundingBox(-0.8, -0.8, 0.8, 0.8)


@pytest.mark.parametrize("measure,kwargs", [("dtw", {}), ("lcss", {"epsilon": 0.3}),
                                            ("edr", {"epsilon": 0.3})])
def test_monitor_topk_matches_brute_force(measure, kwargs):
    rng = np.random.default_rng(5)
    windows = _walks(rng, 18, 10)
    pattern = np.cumsum(rng.normal(scale=0.05, size=(8, 2)), axis=0)
    monitor = StreamMonitor([w.copy() for w in windows], pattern, REGION,
                            measure=measure, k=3, **kwargs)
    for _ in range(8):
        appends, evicts = {}, {}
        for trajectory_id in rng.choice(18, size=5, replace=False).tolist():
            if rng.random() < 0.25 and len(windows[trajectory_id]) > 3:
                count = min(2, len(windows[trajectory_id]) - 1)
                evicts[trajectory_id] = count
                windows[trajectory_id] = windows[trajectory_id][count:]
            else:
                points = (windows[trajectory_id][-1]
                          + np.cumsum(rng.normal(scale=0.05, size=(2, 2)), axis=0))
                appends[trajectory_id] = points
                windows[trajectory_id] = np.concatenate(
                    [windows[trajectory_id], points])
        monitor.tick(appends, evicts)
        expected = _brute_topk(windows, pattern, REGION, measure, 3, **kwargs)
        got = [(distance, trajectory_id)
               for trajectory_id, distance in monitor.topk()]
        assert got == expected  # exact distances, exact membership, exact order


def test_monitor_alerts_track_membership_changes(tmp_path):
    # Three streams: one hugs the pattern inside the region, one sits inside
    # but far, one lives outside.  k=1 makes membership deterministic.
    pattern = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]])
    near = pattern + 0.01
    far = np.array([[0.5, 0.5], [0.6, 0.5], [0.7, 0.5]])
    outside = np.array([[5.0, 5.0], [5.1, 5.0]])
    sink = tmp_path / "alerts.jsonl"
    set_jsonl_path(str(sink))
    try:
        monitor = StreamMonitor([near, far, outside], pattern, REGION, k=1)
        alerts = monitor.tick({})
        assert [(a.trajectory_id, a.event) for a in alerts] == [(0, "enter")]
        # Drag the near stream out of the region: the far one takes its slot.
        alerts = monitor.tick({0: np.array([[9.0, 9.0]] * 6)})
        events = {(a.trajectory_id, a.event) for a in alerts}
        assert events == {(0, "exit"), (1, "enter")}
        assert all(isinstance(a, StreamAlert) and a.tick == 2 for a in alerts)
    finally:
        set_jsonl_path(None)
    lines = [json.loads(line) for line in sink.read_text().splitlines()]
    assert len(lines) == 3
    for event in lines:
        assert event["kind"] == "stream_alert"
        assert event["event"] in ("enter", "exit")
        assert isinstance(event["trajectory_id"], int)
        assert isinstance(event["tick"], int) and event["tick"] >= 1
        assert event["measure"] == "dtw"


def test_monitor_never_touches_out_of_region_streams():
    pattern = np.array([[0.0, 0.0], [0.1, 0.1]])
    inside = np.array([[0.0, 0.1], [0.1, 0.2]])
    outside = np.array([[7.0, 7.0], [7.1, 7.1]])
    monitor = StreamMonitor([inside, outside], pattern, REGION, k=2)
    monitor.tick({1: np.array([[7.2, 7.2]])})
    assert 0 in monitor._pair_ids
    assert 1 not in monitor._pair_ids  # no DP frontier ever built
    assert monitor.topk() and monitor.topk()[0][0] == 0


def test_monitor_bound_skips_save_refinement():
    rng = np.random.default_rng(9)
    windows = _walks(rng, 30, 12, origin_scale=0.5)
    pattern = np.cumsum(rng.normal(scale=0.05, size=(10, 2)), axis=0)
    before = snapshot()["counters"]
    monitor = StreamMonitor(windows, pattern, REGION, measure="dtw", k=2)
    for _ in range(4):
        appends = {int(i): rng.normal(scale=0.05, size=(1, 2))
                   + monitor.engine.window(int(i))[-1:]
                   for i in rng.choice(30, size=8, replace=False)}
        monitor.tick(appends)
    after = snapshot()["counters"]

    def delta(name):
        return after.get(name, 0) - before.get(name, 0)

    assert delta("monitor.ticks") == 4
    assert delta("monitor.refined") + delta("monitor.skipped_bound") > 0
    # With k=2 over ~30 in-region candidates the bounds must prune something.
    assert delta("monitor.skipped_bound") > 0


def test_monitor_rejects_emptying_evict_and_bad_k():
    pattern = np.array([[0.0, 0.0], [0.1, 0.1]])
    window = np.array([[0.0, 0.0], [0.1, 0.0]])
    with pytest.raises(ValueError):
        StreamMonitor([window], pattern, REGION, k=0)
    monitor = StreamMonitor([window], pattern, REGION, k=1)
    with pytest.raises(ValueError):
        monitor.tick({}, {0: 2})


@pytest.mark.parametrize("bad", [
    {"evicts": {0: 99}},                        # would empty the window
    {"evicts": {0: -1}},                        # negative count
    {"evicts": {99: 1}},                        # unknown stream
    {"appends": {99: [[0.5, 0.5]]}},            # unknown stream
    {"appends": {1: np.zeros((2, 3))}},         # wrong point width
])
def test_rejected_tick_applies_nothing(bad):
    rng = np.random.default_rng(11)
    region = BoundingBox(0.0, 0.0, 1.0, 1.0)
    windows = [rng.uniform(0.1, 0.9, size=(6, 2)) for _ in range(6)]
    windows[3] = windows[3] + 5.0  # starts outside the region
    pattern = rng.uniform(0.1, 0.9, size=(6, 2))
    monitor = StreamMonitor([w.copy() for w in windows], pattern, region, k=4)
    monitor.tick()
    appends = {3: pattern, **bad.get("appends", {})}
    with pytest.raises(ValueError):
        monitor.tick(appends, bad.get("evicts"))
    for stream_id, window in enumerate(windows):
        np.testing.assert_array_equal(monitor.engine.window(stream_id), window)
        np.testing.assert_array_equal(monitor.index.arrays[stream_id], window)
    # A clean tick may evict up to the window plus its own append: stream 3's
    # window becomes the pattern itself.
    monitor.tick({3: pattern}, {3: 6})
    windows[3] = pattern
    expected = _brute_topk(windows, pattern, region, "dtw", 4)
    got = [(distance, trajectory_id) for trajectory_id, distance in monitor.topk()]
    assert got == expected
    assert got[0] == (0.0, 3)


def test_monitor_accepts_shared_engine_with_checkpoints():
    rng = np.random.default_rng(3)
    windows = _walks(rng, 6, 10, origin_scale=0.3)
    pattern = np.cumsum(rng.normal(scale=0.05, size=(6, 2)), axis=0)
    engine = StreamingEngine(checkpoint_every=4)
    monitor = StreamMonitor([w.copy() for w in windows], pattern, REGION,
                            k=2, engine=engine)
    for _ in range(5):
        appends, evicts = {}, {}
        for trajectory_id in range(6):
            points = (windows[trajectory_id][-1]
                      + np.cumsum(rng.normal(scale=0.05, size=(2, 2)), axis=0))
            appends[trajectory_id] = points
            windows[trajectory_id] = np.concatenate(
                [windows[trajectory_id], points])
            if len(windows[trajectory_id]) > 12:
                evicts[trajectory_id] = 3
                windows[trajectory_id] = windows[trajectory_id][3:]
        monitor.tick(appends, evicts)
    expected = _brute_topk(windows, pattern, REGION, "dtw", 2)
    got = [(distance, trajectory_id) for trajectory_id, distance in monitor.topk()]
    assert got == expected


# ------------------------------------------------------------ streaming workload
def test_stream_workload_is_consistent_and_deterministic():
    workload = generate_stream_workload(streams=40, ticks=30, seed=11,
                                        update_fraction=0.3, evict_fraction=0.25)
    lengths = [len(window) for window in workload.initial]
    for tick in workload.ticks:
        for trajectory_id, points in tick.appends.items():
            assert points.ndim == 2 and points.dtype == np.float64
            lengths[trajectory_id] += len(points)
        for trajectory_id, dropped in tick.evicts.items():
            assert dropped >= 1
            lengths[trajectory_id] -= dropped
            assert lengths[trajectory_id] >= 1  # windows never empty
    assert lengths == workload.final_lengths
    twin = generate_stream_workload(streams=40, ticks=30, seed=11,
                                    update_fraction=0.3, evict_fraction=0.25)
    assert all(np.array_equal(a, b)
               for a, b in zip(workload.initial, twin.initial))
    for tick_a, tick_b in zip(workload.ticks, twin.ticks):
        assert tick_a.evicts == tick_b.evicts
        assert tick_a.appends.keys() == tick_b.appends.keys()
        assert all(np.array_equal(tick_a.appends[key], tick_b.appends[key])
                   for key in tick_a.appends)


def test_stream_workload_mix_and_presets():
    append_only = generate_stream_workload(streams=20, ticks=20, seed=2,
                                           evict_fraction=0.0)
    assert all(not tick.evicts for tick in append_only.ticks)
    assert append_only.total_appended_points() > 0
    timed = generate_stream_workload("tdrive", streams=5, ticks=5, seed=2)
    assert timed.initial[0].shape[1] == 3  # preset carries a time column
    for tick in timed.ticks:
        for points in tick.appends.values():
            assert points.shape[1] == 3
    with pytest.raises(ValueError):
        generate_stream_workload(streams=0)
    with pytest.raises(ValueError):
        generate_stream_workload(mean_appends=0.5)


def test_stream_workload_replays_through_monitor():
    """End-to-end: the generated schedule drives a monitor without faults."""
    workload = generate_stream_workload(streams=25, ticks=10, seed=7,
                                        update_fraction=0.4, evict_fraction=0.2)
    pattern = workload.initial[0].copy()
    region = BoundingBox(0.0, 0.0, 2.0, 2.0)  # chengdu extent
    monitor = StreamMonitor(workload.initial, pattern, region, k=4)
    for tick in workload.ticks:
        monitor.tick(tick.appends, tick.evicts)
    assert [len(monitor.engine.window(i)) for i in range(25)] \
        == workload.final_lengths
    expected = _brute_topk([monitor.engine.window(i) for i in range(25)],
                           pattern, region, "dtw", 4)
    got = [(distance, trajectory_id) for trajectory_id, distance in monitor.topk()]
    assert got == expected
