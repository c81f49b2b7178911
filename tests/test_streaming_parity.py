"""Property suite for the streaming engine: incremental DP ≡ from-scratch.

Hypothesis drives random append/slide schedules against every streaming
measure on both kernel backends (without numba installed the compiled extend
loops run as plain Python through the ``njit`` stub — same arithmetic, same
code paths) and pins the subsystem's contracts:

* after every operation, :meth:`StreamingEngine.value` equals the batch
  kernel on the current window **bitwise** — growing and sliding windows,
  with checkpointing enabled at an aggressive interval so promotions and
  replays are actually exercised;
* the frontier :meth:`~StreamingEngine.lower_bound` never exceeds the value;
* τ-abandoning stays sound and resumable: a finite thresholded value is the
  exact bitwise distance, ``+inf`` is returned only when the true distance
  provably exceeds τ, and a later unthresholded call recovers the exact
  value;
* dp-cell accounting: on append-only streams, the cells an extension charges
  (``stream.dp_cells``) never exceed what recomputing the same window from
  scratch costs, and a growing stream's cumulative streaming cells come in
  strictly below cumulative recompute cells.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import StreamingEngine, get_batch_kernel
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
               kwargs: dict, threshold: float | None = None) -> float:
    batch = get_batch_kernel(measure)
    thresholds = None if threshold is None else [threshold]
    return float(np.asarray(batch([pattern], [window],
                                  thresholds=thresholds, **kwargs))[0])


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


@pytest.mark.parametrize("backend_name,backend",
                         BACKENDS, ids=[b[0] for b in BACKENDS])
@pytest.mark.parametrize("config_id,measure,kwargs,dim",
                         CONFIGS, ids=[c[0] for c in CONFIGS])
@SETTINGS
@given(seed=SEEDS, ops=OPS, scale=st.sampled_from([0.5, 1.0, 2.0]))
def test_threshold_contract(config_id, measure, kwargs, dim,
                            backend_name, backend, seed, ops, scale):
    replay = _Replay(measure, kwargs, dim, backend, seed)
    for op, size in ops:
        replay.apply(op, size)
    exact = _reference(measure, replay.pattern, replay.window, kwargs)
    tau = exact * scale
    got = replay.engine.value(replay.pair, threshold=tau)
    if np.isfinite(got):
        assert got == exact
    else:
        assert exact > tau - 1e-9 * max(1.0, abs(tau))
    # When both survive the threshold they must agree bitwise (abandon
    # *decisions* may differ: the batch sweep's remaining-work suffix bound is
    # stronger than the streaming frontier bound, so it may abandon earlier —
    # both honour "finite ⇒ exact, +inf ⇒ provably > τ").
    batch = _reference(measure, replay.pattern, replay.window, kwargs,
                       threshold=tau)
    if np.isfinite(got) and np.isfinite(batch):
        assert got == batch
    # An abandoned frontier must resume to the exact value.
    assert replay.engine.value(replay.pair) == exact


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
