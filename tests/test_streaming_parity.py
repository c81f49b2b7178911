"""Property suite for the streaming engine: incremental DP ≡ from-scratch.

Hypothesis drives random append/slide schedules against every streaming
measure on both kernel backends (without numba installed the compiled table
fills run as plain Python through the ``njit`` stub — same arithmetic, same
code paths) and pins the subsystem's contracts:

* after every operation, :meth:`StreamingEngine.value` equals the batch
  kernel on the current window **bitwise** — growing and sliding windows,
  with checkpointing enabled at an aggressive interval so promotions and
  replays are actually exercised;
* the frontier :meth:`~StreamingEngine.lower_bound` never exceeds the value;
* dp-cell accounting: on append-only streams, the cells an extension charges
  (``stream.dp_cells``) never exceed what recomputing the same window from
  scratch costs, and a growing stream's cumulative streaming cells come in
  strictly below cumulative recompute cells;
* the numpy stacked sweep behind :meth:`StreamingEngine.values`, over many
  streams with mixed deltas (full-window replays next to one-point appends),
  is bitwise equal to the batch kernel and leaves every frontier and
  checkpoint bitwise where the numba backend's fill leaves them, charges
  exactly ``n·Δ`` cells per advanced frontier on both backends, and keeps its
  sweeps to a bounded set of widths and a capped cell count;
* the two backends' ``sweep_table`` fill randomly bordered stacked tables
  bitwise alike, for every recurrence.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import StreamingEngine, get_batch_kernel, kernels, streaming
from repro.engine.backends import NumbaBackend, NumpyBackend
from repro.obs import snapshot

#: (config id, measure, watch kwargs, point dimension)
CONFIGS = [
    ("dtw", "dtw", {}, 2),
    ("dtw_banded", "dtw", {"band": 2}, 2),
    ("erp", "erp", {"gap": (0.25, -0.5)}, 2),
    ("edr", "edr", {"epsilon": 0.3}, 2),
    ("lcss", "lcss", {"epsilon": 0.3}, 2),
    ("frechet", "frechet", {}, 2),
    ("dita", "dita", {"lambda_spatial": 0.6, "time_scale": 2.0}, 3),
]
BACKENDS = [("numpy", NumpyBackend), ("numba", NumbaBackend)]

#: Random append/evict schedules: (op, size) with sizes kept small so windows
#: stay in the tens of points and examples shrink readably.
OPS = st.lists(st.tuples(st.sampled_from(["append", "evict"]),
                         st.integers(min_value=1, max_value=4)),
               min_size=1, max_size=10)
APPEND_OPS = st.lists(st.integers(min_value=1, max_value=4),
                      min_size=1, max_size=8)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _make_points(seed: int, count: int, dim: int) -> np.ndarray:
    """A bounded random walk; the time column (if any) strictly increases."""
    rng = np.random.default_rng(seed)
    points = np.cumsum(rng.normal(scale=0.3, size=(count, 2)), axis=0)
    if dim == 3:
        times = np.cumsum(rng.uniform(0.5, 1.5, size=count))
        points = np.column_stack([points, times])
    return points


def _reference(measure: str, pattern: np.ndarray, window: np.ndarray,
               kwargs: dict) -> float:
    batch = get_batch_kernel(measure)
    return float(np.asarray(batch([pattern], [window], **kwargs))[0])


def _stream_cells() -> int:
    return snapshot()["counters"].get("stream.dp_cells", 0)


def _engine_cells() -> int:
    return snapshot()["counters"].get("engine.dp_cells", 0)


class _Replay:
    """Drive one (measure, backend) pair through an op schedule."""

    def __init__(self, measure, kwargs, dim, backend, seed,
                 checkpoint_every=4):
        self.measure = measure
        self.kwargs = kwargs
        self.engine = StreamingEngine(backend=backend(),
                                      checkpoint_every=checkpoint_every)
        self.feed = _make_points(seed, 64, dim)
        self.pattern = _make_points(seed + 1, 9, dim)
        self.cursor = 4
        self.start = 0
        self.engine.register_stream("s", points=self.feed[:self.cursor])
        self.pair = self.engine.watch(self.pattern, "s", measure, **kwargs)

    @property
    def window(self) -> np.ndarray:
        return self.feed[self.start:self.cursor]

    def apply(self, op: str, size: int) -> bool:
        if op == "append":
            size = min(size, len(self.feed) - self.cursor)
            if size <= 0:
                return False
            self.engine.append("s", self.feed[self.cursor:self.cursor + size],
                               lazy=True)
            self.cursor += size
            return True
        size = min(size, self.cursor - self.start - 1)
        if size <= 0:
            return False
        self.engine.evict("s", size)
        self.start += size
        return True


@pytest.mark.parametrize("backend_name,backend",
                         BACKENDS, ids=[b[0] for b in BACKENDS])
@pytest.mark.parametrize("config_id,measure,kwargs,dim",
                         CONFIGS, ids=[c[0] for c in CONFIGS])
@SETTINGS
@given(seed=SEEDS, ops=OPS)
def test_streaming_matches_batch_bitwise(config_id, measure, kwargs, dim,
                                         backend_name, backend, seed, ops):
    replay = _Replay(measure, kwargs, dim, backend, seed)
    for op, size in ops:
        if not replay.apply(op, size):
            continue
        value = replay.engine.value(replay.pair)
        expected = _reference(measure, replay.pattern, replay.window, kwargs)
        assert value == expected  # bitwise, not approx
        bound = replay.engine.lower_bound(replay.pair)
        assert bound <= value


@pytest.mark.parametrize("config_id,measure,kwargs,dim",
                         CONFIGS, ids=[c[0] for c in CONFIGS])
@SETTINGS
@given(seed=SEEDS, appends=APPEND_OPS)
def test_extend_cells_never_exceed_recompute(config_id, measure, kwargs, dim,
                                             seed, appends):
    replay = _Replay(measure, kwargs, dim, NumpyBackend, seed)
    total_stream = total_recompute = effective = 0
    for size in appends:
        if not replay.apply("append", size):
            continue
        effective += 1
        before = _stream_cells()
        replay.engine.value(replay.pair)
        stream_cells = _stream_cells() - before
        before = _engine_cells()
        _reference(measure, replay.pattern, replay.window, kwargs)
        recompute_cells = _engine_cells() - before
        assert stream_cells <= recompute_cells
        total_stream += stream_cells
        total_recompute += recompute_cells
    if effective >= 2 and config_id != "dtw_banded":
        # At least one extension was incremental (only the first value() pays
        # full price), so the cumulative streaming bill is strictly smaller.
        # Banded DTW is exempt: while |n − m| still exceeds the band the
        # radius changes with every append, forcing a full-window replay each
        # time — cells then legitimately tie the recompute count.
        assert total_stream < total_recompute


def test_checkpoint_promotion_saves_replay():
    """An evict landing on a checkpoint boundary adopts it without replaying."""
    feed = _make_points(11, 40, 2)
    pattern = _make_points(12, 8, 2)
    engine = StreamingEngine(backend=NumpyBackend(), checkpoint_every=4)
    engine.register_stream("s", points=feed[:8], windowed=True)
    pair = engine.watch(pattern, "s", "dtw")
    engine.value(pair)
    engine.append("s", feed[8:20])
    engine.value(pair)
    engine.evict("s", 4)  # head lands exactly on a checkpoint start
    replays_before = engine.replays
    value = engine.value(pair)
    assert engine.checkpoint_promotions >= 1
    assert engine.replays == replays_before
    expected = _reference("dtw", pattern, feed[4:20], {})
    assert value == expected


# ------------------------------------------------------------ stacked values()

#: Multi-stream schedules: per step, each of the streams appends a small or a
#: large burst, evicts (forcing a replay or a checkpoint adoption) or idles.
MULTI_OPS = st.lists(
    st.lists(st.tuples(st.sampled_from(["append", "burst", "evict", "idle"]),
                       st.integers(min_value=1, max_value=4)),
             min_size=4, max_size=4),
    min_size=1, max_size=6)


class _Fleet:
    """Several streams watched by one pattern, driven through one engine."""

    def __init__(self, measure, kwargs, dim, seed, checkpoint_every=4,
                 streams=4, backend=NumpyBackend):
        self.measure = measure
        self.kwargs = kwargs
        self.engine = StreamingEngine(backend=backend(),
                                      checkpoint_every=checkpoint_every)
        self.pattern = _make_points(seed, 7, dim)
        self.feeds = [_make_points(seed + 1 + s, 80, dim) for s in range(streams)]
        self.starts = [0] * streams
        self.cursors = [1 + s for s in range(streams)]
        self.pairs = []
        for s in range(streams):
            self.engine.register_stream(s, points=self.feeds[s][:self.cursors[s]])
            self.pairs.append(self.engine.watch(self.pattern, s, measure,
                                                **kwargs))

    def window(self, s) -> np.ndarray:
        return self.feeds[s][self.starts[s]:self.cursors[s]]

    def apply(self, s, op, size) -> None:
        if op in ("append", "burst"):
            size = min(size * (6 if op == "burst" else 1),
                       len(self.feeds[s]) - self.cursors[s])
            if size > 0:
                self.engine.append(s, self.feeds[s][self.cursors[s]:
                                                    self.cursors[s] + size],
                                   lazy=True)
                self.cursors[s] += size
        elif op == "evict":
            size = min(size, self.cursors[s] - self.starts[s] - 1)
            if size > 0:
                self.engine.evict(s, size)
                self.starts[s] += size

    def expected(self, s) -> float:
        return _reference(self.measure, self.pattern, self.window(s), self.kwargs)


@pytest.mark.parametrize("config_id,measure,kwargs,dim",
                         CONFIGS, ids=[c[0] for c in CONFIGS])
@SETTINGS
@given(seed=SEEDS, steps=MULTI_OPS, paths=st.lists(st.booleans(), min_size=6,
                                                   max_size=6))
def test_values_matches_batch_bitwise(config_id, measure, kwargs, dim, seed,
                                      steps, paths):
    fleet = _Fleet(measure, kwargs, dim, seed)
    # The compiled table fills (plain Python under the njit stub).
    twin = _Fleet(measure, kwargs, dim, seed, backend=NumbaBackend)
    everyone = list(range(len(fleet.pairs)))
    for step, stacked in zip(steps, paths):
        for s, (op, size) in enumerate(step):
            fleet.apply(s, op, size)
            twin.apply(s, op, size)
        # Alternate one sweep over every pair with one sweep per pair, so
        # blocks of either shape continue from the state the other left.
        if stacked:
            got = fleet.engine.values([fleet.pairs[s] for s in everyone])
        else:
            got = [fleet.engine.value(fleet.pairs[s]) for s in everyone]
        for s, value in zip(everyone, got):
            assert value == fleet.expected(s)  # bitwise, not approx
            assert twin.engine.value(twin.pairs[s]) == value
        # Whole frontiers (borders included) and checkpoints match the
        # compiled fills, not just the value cell.
        for pair_id, twin_id in zip(fleet.pairs, twin.pairs):
            assert _frontiers(fleet.engine, pair_id) == _frontiers(twin.engine,
                                                                  twin_id)


def _frontiers(engine: StreamingEngine, pair_id) -> dict:
    """``{anchor: (done, column bytes)}`` of a pair's primary and checkpoints."""
    pair = engine._pairs[pair_id]
    frontiers = [pair.primary, *pair.checkpoints.values()]
    return {(frontier is pair.primary, frontier.start):
            (frontier.done, frontier.column.tobytes()) for frontier in frontiers}


def _pending_columns(fleet: _Fleet, s: int) -> int:
    """Columns ``values()`` must advance for stream ``s``'s pair (no checkpoints)."""
    engine = fleet.engine
    pair = engine._pairs[fleet.pairs[s]]
    pending = engine.pending(fleet.pairs[s])
    if pair.band is not None and pair.primary is not None \
            and pair.primary.done > pair.primary.start:
        m = len(fleet.window(s))
        radius = max(pair.band, abs(len(fleet.pattern) - m))
        if radius != pair.primary.radius:
            return m  # the band geometry moved: the whole window replays
    return pending


@pytest.mark.parametrize("config_id,measure,kwargs,dim",
                         CONFIGS, ids=[c[0] for c in CONFIGS])
@SETTINGS
@given(seed=SEEDS, steps=MULTI_OPS)
def test_values_charges_n_times_delta(config_id, measure, kwargs, dim, seed,
                                      steps):
    fleet = _Fleet(measure, kwargs, dim, seed, checkpoint_every=0)
    n = len(fleet.pattern)
    for step in steps:
        for s, (op, size) in enumerate(step):
            fleet.apply(s, op, size)
        expected = n * sum(_pending_columns(fleet, s)
                           for s in range(len(fleet.pairs)))
        recompute = n * sum(len(fleet.window(s)) for s in range(len(fleet.pairs)))
        before = _stream_cells()
        fleet.engine.values(fleet.pairs)
        charged = _stream_cells() - before
        assert charged == expected
        assert charged <= recompute


def test_values_on_compiled_backend_runs_its_sweep_table(monkeypatch):
    """A compiled backend advances every frontier through its own
    ``sweep_table``, never the numpy sweep, and lands on the batch kernel."""
    fleet = _Fleet("edr", {"epsilon": 0.3}, 2, seed=5, backend=NumbaBackend)
    for s in range(len(fleet.pairs)):
        fleet.apply(s, "burst", 2)
    backend = fleet.engine._backend
    sweep_table = backend.sweep_table
    calls = []

    def recording(mode, table, data, *args):
        calls.append((mode, data.shape[0]))
        return sweep_table(mode, table, data, *args)

    def no_sweep(*args):
        raise AssertionError("the compiled backend ran the numpy sweep")

    expected = [fleet.expected(s) for s in range(len(fleet.pairs))]
    monkeypatch.setattr(backend, "sweep_table", recording)
    monkeypatch.setattr(kernels, "_sweep_table", no_sweep)
    got = fleet.engine.values(fleet.pairs)
    assert {mode for mode, _ in calls} == {"edr"}
    assert sum(rows for _, rows in calls) == len(fleet.pairs)
    assert got.tolist() == expected


def test_banded_dtw_cells_match_across_backends():
    """Both backends fill the same stacked tables, so one banded-DTW
    append/evict schedule charges identical ``stream.dp_cells`` (out-of-band
    cells included, as the numpy batch kernels count them)."""
    schedule = [("append", 4), ("append", 1), ("evict", 3), ("append", 4),
                ("evict", 2), ("append", 2), ("append", 3)]
    charged = {}
    for name, backend in BACKENDS:
        replay = _Replay("dtw", {"band": 1}, 2, backend, seed=21)
        before = _stream_cells()
        for op, size in schedule:
            assert replay.apply(op, size)
            replay.engine.value(replay.pair)
        charged[name] = _stream_cells() - before
    assert charged["numba"] == charged["numpy"] > 0


@pytest.mark.parametrize("mode", ["dtw", "erp", "edr", "lcss", "frechet"])
@SETTINGS
@given(seed=SEEDS, rows=st.integers(min_value=1, max_value=4),
       n=st.integers(min_value=1, max_value=7),
       width=st.integers(min_value=1, max_value=7), shared_gaps=st.booleans())
def test_numba_sweep_table_equals_numpy_bitwise(mode, seed, rows, n, width,
                                                shared_gaps):
    """Randomly bordered stacked tables fill bitwise alike on both backends:
    ERP with per-row or shared pattern gap costs, DTW/Fréchet with ``+inf``
    borders and ``+inf``-masked (out-of-band) costs, EDR/LCSS over count
    borders."""
    rng = np.random.default_rng(seed)
    table = np.empty((rows, n + 1, width + 1))
    gap_cost_a = gap_cost_b = None
    if mode in ("edr", "lcss"):
        data = rng.random((rows, n, width)) < 0.5
        table[:, :, 0] = rng.integers(0, 6, size=(rows, n + 1))
        table[:, 0, 1:] = rng.integers(0, 6, size=(rows, width))
    else:
        data = rng.uniform(0.0, 2.0, size=(rows, n, width))
        table[:, :, 0] = rng.uniform(0.0, 4.0, size=(rows, n + 1))
        table[:, 0, 1:] = rng.uniform(0.0, 4.0, size=(rows, width))
        if mode == "erp":
            gap_cost_a = rng.uniform(0.0, 2.0, size=(1 if shared_gaps else rows, n))
            gap_cost_b = rng.uniform(0.0, 2.0, size=(rows, width))
        else:
            data[rng.random(data.shape) < 0.3] = np.inf
            table[:, 1:, 0][rng.random((rows, n)) < 0.3] = np.inf
            table[:, 0, 1:][rng.random((rows, width)) < 0.3] = np.inf
    filled = {}
    for name, backend in BACKENDS:
        out = table.copy()
        backend().sweep_table(mode, out, data, gap_cost_a, gap_cost_b)
        filled[name] = out
    assert filled["numba"].tobytes() == filled["numpy"].tobytes()


def test_values_keeps_input_order_and_duplicates():
    fleet = _Fleet("dtw", {}, 2, seed=8)
    for s in range(len(fleet.pairs)):
        fleet.apply(s, "burst", 1)
    order = [3, 0, 3, 1]
    got = fleet.engine.values([fleet.pairs[s] for s in order])
    assert got.tolist() == [fleet.expected(s) for s in order]


def test_plan_blocks_bounds_widths_and_cells():
    n = 32
    limit = streaming._segment_limit(n)
    deltas = [1, 2, 2, 3, 5, 31, 32, 33, 64, 65, 200, 260, 300, 301, limit] * 9
    blocks = streaming._plan_blocks(deltas, n)
    seen = sorted(row for _, rows in blocks for row in rows)
    assert seen == list(range(len(deltas)))  # every row exactly once
    for width, rows in blocks:
        assert width <= 32 or width % 32 == 0
        assert len(rows) * n * width <= streaming._BLOCK_CELLS
        for row in rows:
            assert deltas[row] <= width
            # No row runs a sweep more than twice as long as its own.
            assert n + width <= 2 * (n + deltas[row])


def test_stacked_sweep_memory_gate(monkeypatch):
    """Many streams of assorted lengths reach the sweep in a bounded set of
    widths, and no sweep exceeds the cell budget."""
    shapes = []
    sweep_table = kernels._sweep_table

    def recording(mode, table, data, *args):
        shapes.append(data.shape)
        return sweep_table(mode, table, data, *args)

    monkeypatch.setattr(kernels, "_sweep_table", recording)
    rng = np.random.default_rng(0)
    pattern = _make_points(1, 32, 2)
    engine = StreamingEngine(backend=NumpyBackend(), checkpoint_every=64)
    pairs = []
    for s in range(60):
        engine.register_stream(s, points=_make_points(100 + s,
                                                      int(rng.integers(1, 700)), 2))
        pairs.append(engine.watch(pattern, s, "edr", epsilon=0.25))
    for _ in range(5):
        for s in range(60):
            engine.append(s, _make_points(200 + s, int(rng.integers(1, 5)), 2),
                          lazy=True)
            if rng.random() < 0.5 and engine.window_length(s) > 3:
                engine.evict(s, int(rng.integers(1, 3)))  # unaligned: replays
        engine.values(pairs)
    widths = {width for _, _, width in shapes}
    assert all(width <= 32 or width % 32 == 0 for width in widths)
    assert len(widths) <= 32 + 704 // 32
    assert max(batch * n * width for batch, n, width in shapes) \
        <= streaming._BLOCK_CELLS


def test_long_advance_splits_into_segments(monkeypatch):
    """A row longer than the per-sweep column budget advances in several
    sweeps and still lands bitwise on the batch kernel."""
    # A 7-point pattern under a 280-cell budget advances at most 32 columns
    # per row and sweep.
    monkeypatch.setattr(streaming, "_BLOCK_CELLS", 7 * 40)
    assert streaming._segment_limit(7) == 32
    shapes = []
    sweep_table = kernels._sweep_table

    def recording(mode, table, data, *args):
        shapes.append(data.shape)
        return sweep_table(mode, table, data, *args)

    monkeypatch.setattr(kernels, "_sweep_table", recording)
    fleet = _Fleet("erp", {"gap": (0.25, -0.5)}, 2, seed=3)
    fleet.apply(0, "append", 1)
    fleet.engine.values(fleet.pairs[:1])
    shapes.clear()
    fleet.apply(0, "burst", 4)      # a 24-column extend next to …
    fleet.apply(1, "burst", 4)
    fleet.apply(1, "burst", 4)      # … a 50-column first build
    got = fleet.engine.values(fleet.pairs[:2])
    # 50 columns run as 32 + 18; the 24-column row rides in a sweep of its own.
    assert sorted(width for _, _, width in shapes) == [18, 24, 32]
    assert max(batch * n * width for batch, n, width in shapes) <= 7 * 40
    assert got.tolist() == [fleet.expected(0), fleet.expected(1)]


@pytest.mark.parametrize("call", [
    lambda engine: engine.append("s", [[np.nan, 0.5]]),
    lambda engine: engine.append("s", [[0.5, np.inf]], lazy=True),
    lambda engine: engine.register_stream("t", points=[[0.0, 0.0], [np.nan, 1.0]]),
    lambda engine: engine.watch([[0.0, 0.0], [np.inf, 1.0]], "s"),
    lambda engine: engine.watch([[0.0, 0.0]], "s", "erp", gap=(1.0,)),
    lambda engine: engine.watch([[0.0, 0.0]], "s", "erp", gap=(np.nan, 0.0)),
])
def test_non_finite_input_is_rejected(call):
    engine = StreamingEngine(backend=NumpyBackend())
    engine.register_stream("s", points=[[0.0, 0.0], [0.1, 0.1]])
    pair = engine.watch([[0.0, 0.0], [0.1, 0.0]], "s")
    with pytest.raises(ValueError, match="non-finite"):
        call(engine)
    assert engine.streams() == ["s"]
    assert engine.window_length("s") == 2
    assert engine.value(pair) == _reference("dtw", np.array([[0.0, 0.0], [0.1, 0.0]]),
                                            engine.window("s"), {})


@pytest.mark.parametrize("measure", ["erp", "edr", "lcss", "frechet", "dita"])
def test_watch_rejects_band_for_non_dtw_measures(measure):
    """``band=`` narrows DTW only; any other measure refuses it instead of
    silently computing the unbanded value."""
    engine = StreamingEngine(backend=NumpyBackend())
    points = [[0.0, 0.0, 0.0], [0.1, 0.1, 1.0]]
    engine.register_stream("s", points=points)
    with pytest.raises(ValueError, match="band"):
        engine.watch(points, "s", measure, band=3)
    assert engine.value(engine.watch(points, "s", "dtw", band=3)) == 0.0
