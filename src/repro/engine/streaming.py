"""Stateful prefix-incremental similarity over live trajectory streams.

:class:`StreamingEngine` keeps, for every watched (pattern, stream, measure)
pair, the pair's **DP frontier** — the last column of the measure's dynamic-
programming table.  Appending ``p`` points to a stream then extends each of
its pairs by exactly ``p`` columns (``O(n·p)`` cells) instead of recomputing
the full ``O(n·m)`` table, and the extended frontier is *bitwise identical*
to a from-scratch batch-kernel call on the whole window — the property
``tests/test_streaming_parity.py`` pins for every measure, backend, and
append/evict schedule.

**Windows and checkpoints.**  Evicting the window head invalidates a prefix
DP: the table's column 0 is anchored at the window start, so a frontier whose
anchor has been evicted cannot be patched — only replayed.  To amortise
slides, the engine maintains **checkpoint frontiers** on windowed streams:
auxiliary columns anchored at stream offsets divisible by ``K``
(``checkpoint_every``, default 64; ``<= 0`` disables).  An evict whose
new head lands exactly on a checkpoint *adopts* that frontier with zero
replayed columns; an unaligned evict falls back to a full-window replay (run
lazily, on the next ``values()``), re-seeding checkpoints as it crosses
``K``-multiples.  Keeping a checkpoint live costs ``n`` extra cells per
appended column per checkpoint — ``window/K`` checkpoints ≈ one extra
frontier's work per ``K`` of window — so ``K`` trades append overhead against
slide alignment granularity (see ARCHITECTURE.md's cost model).  Append-only
streams (never evicted, not registered ``windowed=True``) pay nothing.
Banded DTW pairs skip checkpoints entirely: the effective band radius
``max(band, |n − m|)`` depends on the *final* window length, so any slide (or
an append that widens the radius) replays anyway.

**Laziness and bounds.**  ``append(..., lazy=True)`` only buffers the points;
frontiers extend when ``values()`` forces them.  ``lower_bound()`` reads an
admissible bound off the current frontier *without* extending — sound for
every future window length — which is how :class:`repro.search.monitor.
StreamMonitor` skips extension work for candidates the current kth distance
already excludes.

**One advance path.**  ``values(pairs)`` is the only entry point that
advances frontiers; ``value``, non-lazy ``append`` and ``force`` call it.  It
collects every frontier the pairs need advanced — primaries, full-window
replays and the checkpoints those seed — and runs them as stacked tables of
the batch kernels' own recurrence, with each frontier as column 0 of its
table, filled by the backend's
:meth:`~repro.engine.backends.KernelBackend.sweep_table`: anti-diagonal
sweeps (:data:`repro.engine.kernels._STEPS`) on numpy, the jitted row-major
fills of the batch loops on numba.  Tables are grouped by (measure, band,
pattern, measure arguments), sorted by delta into blocks of similar width
(widths above 32 rounded up to a multiple of 32) and capped at about
``2**18`` cells, so the ``_diagonal_slices`` cache sees a bounded set of
shapes.  Every advanced frontier charges ``n·Δ`` cells on either backend.

Cell counts flow into the :mod:`repro.obs` registry under ``stream.*``
(``stream.dp_cells``, ``stream.dp_cells.<measure>``, ``stream.replays``, …),
next to the batch kernels' ``engine.*`` counters.  Non-finite coordinates
are rejected on the way in (``register_stream`` / ``append`` / ``watch``
raise ``ValueError`` naming the stream): the numba fill's ``<`` comparisons
and the numpy sweep's ``np.minimum`` would treat NaN differently.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Hashable

import numpy as np

from ..distances.base import as_points, checked_points
from ..distances.spatiotemporal import (
    check_spatiotemporal_args,
    spatiotemporal_point_cost,
)
from ..obs import registry as obs_registry
from . import kernels
from .backends import resolve_backend

__all__ = ["StreamingEngine", "DEFAULT_CHECKPOINT", "STREAM_MEASURES"]

DEFAULT_CHECKPOINT = 64

#: Measures with a prefix-incremental extension (banded DTW rides on "dtw").
STREAM_MEASURES = ("dtw", "erp", "edr", "lcss", "frechet", "dita")

_INF = np.inf

_STREAM_CELLS = obs_registry.counter("stream.dp_cells")


@lru_cache(maxsize=None)
def _measure_cell_counter(measure: str):
    return obs_registry.counter(f"stream.dp_cells.{measure}")


def _count_stream_cells(cells: int, measure: str) -> None:
    _STREAM_CELLS.add(cells)
    _measure_cell_counter(measure).add(cells)


def _initial_column(measure: str, n: int,
                    gap_cost_a: np.ndarray | None) -> np.ndarray:
    """Column 0 of the measure's ``(n+1, m+1)`` DP table (the empty-window frontier)."""
    if measure in ("dtw", "frechet", "dita"):
        column = np.full(n + 1, _INF)
        column[0] = 0.0
    elif measure == "erp":
        column = np.empty(n + 1)
        column[0] = 0.0
        column[1:] = np.cumsum(gap_cost_a)
    elif measure == "edr":
        column = np.arange(n + 1, dtype=np.float64)
    else:  # lcss
        column = np.zeros(n + 1)
    return column


def _frontier_value(measure: str, column: np.ndarray, n: int, m: int) -> float:
    """Distance encoded by a fully extended frontier (``m`` = window length).

    ``column[n]`` is ``table[n, m]`` for every measure; LCSS additionally
    converts its common-length count with exactly the batch kernel's
    ``1 − common/min(n, m)`` division (both operands are exact integers in
    float64, so int64 vs float division is bitwise moot).  An empty window
    reports the DP border value — ``+inf`` for DTW/Fréchet/DITA (no
    alignment exists), the all-gap cost for ERP, ``n`` deletes for EDR —
    except LCSS, where ``0/0`` is undefined and ``+inf`` is reported.
    """
    if measure == "lcss":
        if m == 0:
            return _INF
        return 1.0 - float(column[n]) / min(n, m)
    return float(column[n])


def _frontier_bound(measure: str, column: np.ndarray, n: int, m: int,
                    final_m: int) -> float:
    """Admissible lower bound on the pair's distance at window length ``final_m``.

    Every monotone path through the final table crosses column ``m``, and the
    accumulated value is non-decreasing along paths for the min-plus
    (DTW/ERP/DITA), min-max (Fréchet) and edit-count (EDR) measures, so the
    minimum over the current column bounds the final value from below.  LCSS
    counts *matches* (a maximisation), so the bound caps the final common
    length by ``max(column) + remaining columns`` (and by both lengths) before
    converting to a distance.  Bounds hold for every ``final_m ≥ m`` —
    columns only ever grow the window — which is what lets the monitor skip
    extensions entirely.
    """
    if measure == "lcss":
        if final_m == 0:
            return _INF
        cap = float(column.max()) + (final_m - m)
        shorter = min(n, final_m)
        if cap > shorter:
            cap = float(shorter)
        return 1.0 - cap / shorter
    return float(column.min())


#: Cell budget of one stacked extend sweep (rows × n × padded width).
_BLOCK_CELLS = 1 << 18
#: Sweep widths above this round up to a multiple of it, so the
#: ``_diagonal_slices`` cache sees a bounded set of ``(n, width)`` shapes.
_WIDTH_STEP = 32


def _padded_width(delta: int) -> int:
    return delta if delta <= _WIDTH_STEP else -(-delta // _WIDTH_STEP) * _WIDTH_STEP


def _segment_limit(n: int) -> int:
    """Most columns one row advances per stacked sweep, so a single row stays
    within :data:`_BLOCK_CELLS` (longer advances run as several sweeps)."""
    return max(_WIDTH_STEP, _BLOCK_CELLS // n // _WIDTH_STEP * _WIDTH_STEP)


def _plan_blocks(deltas: list[int], n: int) -> list[tuple[int, list[int]]]:
    """Split rows advancing ``deltas[r]`` columns into ``(width, rows)`` sweeps.

    Rows go widest first; a row joins the open block while the block's sweep
    (``n + width`` anti-diagonals) is at most twice its own and the block
    stays within :data:`_BLOCK_CELLS` cells, otherwise it opens a new block at
    its own padded width.  Every ``delta`` must be ``<= _segment_limit(n)``.
    """
    blocks: list[tuple[int, list[int]]] = []
    for row in sorted(range(len(deltas)), key=lambda r: -deltas[r]):
        if blocks:
            width, rows = blocks[-1]
            if (n + width <= 2 * (n + deltas[row])
                    and (len(rows) + 1) * n * width <= _BLOCK_CELLS):
                rows.append(row)
                continue
        blocks.append((_padded_width(deltas[row]), [row]))
    return blocks


class _Stream:
    """One live trajectory: a growable point buffer addressed by absolute offsets.

    ``base`` is the absolute stream offset of ``data[0]``; the current window
    is offsets ``[head, total)``.  Eviction advances ``head`` without moving
    memory, compacting only once the dead prefix outgrows the live window.
    """

    __slots__ = ("data", "width", "base", "head", "total", "windowed")

    def __init__(self, width: int | None, windowed: bool):
        self.data = None if width is None else np.empty((16, width))
        self.width = width
        self.base = 0
        self.head = 0
        self.total = 0
        self.windowed = windowed

    def append(self, points: np.ndarray) -> None:
        if self.width is None:
            self.width = points.shape[1]
            self.data = np.empty((max(16, 2 * len(points)), self.width))
        elif points.shape[1] != self.width:
            raise ValueError(f"stream expects width-{self.width} points, "
                             f"got width {points.shape[1]}")
        used = self.total - self.base
        if used + len(points) > len(self.data):
            grown = np.empty((2 * (used + len(points)), self.width))
            grown[:used] = self.data[:used]
            self.data = grown
        self.data[used:used + len(points)] = points
        self.total += len(points)

    def evict(self, count: int) -> None:
        if count < 0 or self.head + count > self.total:
            raise ValueError(f"cannot evict {count} of the "
                             f"{self.total - self.head} windowed points")
        self.head += count
        dead = self.head - self.base
        if dead > 64 and dead > self.total - self.head:
            live = self.total - self.head
            self.data[:live] = self.data[dead:dead + live]
            self.base = self.head

    def slice(self, start: int, stop: int) -> np.ndarray:
        return self.data[start - self.base:stop - self.base]


class _Frontier:
    """A DP column anchored at window start ``start``, extended through ``done``."""

    __slots__ = ("start", "done", "column", "radius")

    def __init__(self, start: int, column: np.ndarray, radius: int = -1):
        self.start = start
        self.done = start
        self.column = column
        self.radius = radius


class _Pair:
    __slots__ = ("pair_id", "stream_id", "measure", "pattern", "measure_args",
                 "band", "gap_cost_a", "primary", "checkpoints", "spatial",
                 "sweep_key")

    def __init__(self, pair_id, stream_id, measure, pattern, measure_args,
                 band, gap_cost_a, spatial):
        self.pair_id = pair_id
        self.stream_id = stream_id
        self.measure = measure
        self.pattern = pattern
        #: Scalar measure arguments: ERP's gap point, EDR/LCSS's epsilon,
        #: DITA's (lambda_spatial, time_scale).
        self.measure_args = measure_args
        self.band = band
        self.gap_cost_a = gap_cost_a
        self.spatial = spatial
        self.primary: _Frontier | None = None
        self.checkpoints: dict[int, _Frontier] = {}
        #: Pairs sharing this key advance together in one stacked sweep
        #: (banded and unbanded DTW never share one).
        self.sweep_key = (measure, band is not None, pattern.shape,
                          pattern.tobytes(), measure_args)


class StreamingEngine:
    """Prefix-incremental DP over live streams; see the module docstring."""

    def __init__(self, backend=None, checkpoint_every: int | None = None):
        self._backend = resolve_backend(backend, strict=False)
        if checkpoint_every is None:
            checkpoint_every = DEFAULT_CHECKPOINT
        #: Checkpoint interval K (``<= 0`` disables checkpoints).
        self.checkpoint_every = max(int(checkpoint_every), 0)
        self._streams: dict[Hashable, _Stream] = {}
        self._pairs: dict[Hashable, _Pair] = {}
        self._by_stream: dict[Hashable, list[Hashable]] = {}
        self._next_pair = 0
        self.replays = 0
        self.checkpoint_promotions = 0

    # ------------------------------------------------------------------ streams
    def register_stream(self, stream_id: Hashable, points=None,
                        windowed: bool = False) -> None:
        """Create stream ``stream_id``, optionally seeded with ``points``.

        ``windowed=True`` declares slide intent up front so checkpoint
        frontiers form from the first append; otherwise they start forming
        after the first ``evict`` (the first slide itself replays).
        """
        if stream_id in self._streams:
            raise KeyError(f"stream {stream_id!r} already registered")
        if points is not None and len(points):
            points = checked_points(np.atleast_2d(points),
                                    f"points of stream {stream_id!r}")
        self._streams[stream_id] = _Stream(None, windowed)
        self._by_stream[stream_id] = []
        if points is not None and len(points):
            self.append(stream_id, points, lazy=True)

    def window(self, stream_id: Hashable) -> np.ndarray:
        """The stream's current window as an (m, width) float64 view."""
        stream = self._streams[stream_id]
        return stream.slice(stream.head, stream.total)

    def window_length(self, stream_id: Hashable) -> int:
        stream = self._streams[stream_id]
        return stream.total - stream.head

    def streams(self) -> list:
        return list(self._streams)

    # -------------------------------------------------------------------- pairs
    def watch(self, pattern, stream_id: Hashable, measure: str = "dtw",
              pair_id: Hashable | None = None, band: int | None = None,
              gap=None, epsilon: float = 0.25, lambda_spatial: float = 0.5,
              time_scale: float = 1.0) -> Hashable:
        """Track ``measure(pattern, stream)``; returns the pair id.

        The frontier over the stream's existing window is built lazily by the
        first ``values()`` call, so watching a pattern against a fleet costs
        nothing for streams that are never refined.
        """
        measure = measure.lower()
        if measure not in STREAM_MEASURES:
            raise ValueError(f"no streaming support for measure '{measure}'; "
                             f"options: {STREAM_MEASURES}")
        if stream_id not in self._streams:
            raise KeyError(f"unknown stream {stream_id!r}")
        spatial = measure != "dita"
        a = checked_points(as_points(pattern, spatial_only=spatial),
                           f"pattern points watched on stream {stream_id!r}")
        if not spatial and a.shape[1] < 3:
            raise ValueError("dita requires patterns with a time column")
        a = np.ascontiguousarray(a)
        if band is not None:
            if measure != "dtw":
                raise ValueError(f"band= applies to dtw only, not {measure}")
            band = int(band)
        gap_cost_a = None
        measure_args = ()
        if measure == "erp":
            gap_point = np.zeros(2) if gap is None else \
                np.asarray(gap, dtype=np.float64)
            if gap_point.ndim != 1 or gap_point.size < 2 \
                    or not np.isfinite(gap_point).all():
                raise ValueError(f"ERP gap of a pair on stream {stream_id!r} "
                                 f"must have at least 2 coordinates, none "
                                 f"non-finite; got {gap!r}")
            gap_point = gap_point[:2]
            gap_cost_a = np.sqrt(((a - gap_point) ** 2).sum(axis=-1))
            measure_args = (float(gap_point[0]), float(gap_point[1]))
        elif measure in ("edr", "lcss"):
            if epsilon <= 0:
                raise ValueError("epsilon must be positive")
            measure_args = (float(epsilon),)
        elif measure == "dita":
            check_spatiotemporal_args(lambda_spatial, time_scale)
            measure_args = (float(lambda_spatial), float(time_scale))
        if pair_id is None:
            pair_id = self._next_pair
            self._next_pair += 1
        if pair_id in self._pairs:
            raise KeyError(f"pair {pair_id!r} already watched")
        pair = _Pair(pair_id, stream_id, measure, a, measure_args, band,
                     gap_cost_a, spatial)
        self._pairs[pair_id] = pair
        self._by_stream[stream_id].append(pair_id)
        obs_registry.counter("stream.pairs").add(1)
        return pair_id

    def unwatch(self, pair_id: Hashable) -> None:
        pair = self._pairs.pop(pair_id)
        self._by_stream[pair.stream_id].remove(pair_id)

    def pairs_on(self, stream_id: Hashable) -> list:
        return list(self._by_stream[stream_id])

    # ------------------------------------------------------------------ updates
    def append(self, stream_id: Hashable, points, lazy: bool = False):
        """Append ``points`` to the stream.

        With ``lazy=True`` the points are only buffered — frontier extension
        is deferred until ``values()`` needs it (or skipped outright when a
        caller's bound check rules the pair out).  Otherwise every pair on
        the stream extends now and the fresh values are returned as
        ``{pair_id: value}``.
        """
        stream = self._streams[stream_id]
        points = checked_points(np.atleast_2d(points),
                                f"points appended to stream {stream_id!r}")
        stream.append(points)
        obs_registry.counter("stream.appends").add(1)
        obs_registry.counter("stream.append_points").add(len(points))
        if lazy:
            return None
        return self.force(stream_id)

    def evict(self, stream_id: Hashable, count: int) -> None:
        """Slide the window head forward by ``count`` points.

        A pair whose checkpoint frontier sits exactly at the new head adopts
        it (zero replayed columns); otherwise its primary frontier is dropped
        and the next ``values()`` replays the remaining window from scratch.
        Eviction marks the stream windowed, so checkpoints form from here on.
        """
        stream = self._streams[stream_id]
        stream.evict(int(count))
        stream.windowed = True
        obs_registry.counter("stream.evictions").add(1)
        head = stream.head
        for pair_id in self._by_stream[stream_id]:
            pair = self._pairs[pair_id]
            pair.checkpoints = {start: frontier
                                for start, frontier in pair.checkpoints.items()
                                if start >= head}
            if pair.primary is None or pair.primary.start < head:
                adopted = pair.checkpoints.pop(head, None)
                pair.primary = adopted
                if adopted is not None:
                    self.checkpoint_promotions += 1
                    obs_registry.counter("stream.checkpoint_promotions").add(1)

    # ------------------------------------------------------------------- values
    def pending(self, pair_id: Hashable) -> int:
        """Stream columns buffered but not yet folded into the pair's frontier."""
        pair = self._pairs[pair_id]
        stream = self._streams[pair.stream_id]
        if pair.primary is None or pair.primary.start != stream.head:
            return stream.total - stream.head
        return stream.total - pair.primary.done

    def lower_bound(self, pair_id: Hashable) -> float:
        """Admissible lower bound on ``value(pair_id)`` without extending.

        Reads the current frontier column only; valid for the window as it
        stands *and* any future append (paths must still cross this column).
        A replay-pending pair (evicted anchor, no checkpoint) has no frontier
        to read and conservatively bounds to 0.0 (LCSS: the all-match cap).
        """
        pair = self._pairs[pair_id]
        stream = self._streams[pair.stream_id]
        n = pair.pattern.shape[0]
        final_m = stream.total - stream.head
        primary = pair.primary
        if primary is None or primary.start != stream.head:
            if pair.measure == "lcss":
                return 0.0 if final_m else _INF
            return 0.0
        return _frontier_bound(pair.measure, primary.column, n,
                               primary.done - primary.start, final_m)

    def value(self, pair_id: Hashable) -> float:
        """The pair's exact distance over the current window, forcing extension."""
        return float(self.values([pair_id])[0])

    def _current_value(self, pair_id: Hashable) -> float:
        pair = self._pairs[pair_id]
        stream = self._streams[pair.stream_id]
        return _frontier_value(pair.measure, pair.primary.column,
                               pair.pattern.shape[0], stream.total - stream.head)

    def values(self, pair_ids) -> np.ndarray:
        """Exact values of many pairs over their current windows.

        Every frontier the pairs need advanced — each primary plus the
        checkpoint frontiers it seeds — moves to the window end through
        stacked tables filled by the backend's ``sweep_table``, grouped by
        measure, band, pattern and measure arguments: the table's column 0 is
        the frontier and its columns ``1..Δ`` the stream's new points.  Each
        advanced frontier charges ``n·Δ`` cells to ``stream.dp_cells`` on
        every backend (banded DTW counts its out-of-band cells, as the numpy
        batch kernels do).  Every value is bitwise the batch kernel's.
        """
        pair_ids = list(pair_ids)
        rows = []
        for pair_id in dict.fromkeys(pair_ids):
            pair = self._pairs[pair_id]
            stream = self._streams[pair.stream_id]
            primary = self._anchored_primary(pair, stream)
            if primary.done < stream.total:
                rows.append((pair, primary, stream))
                rows += [(pair, frontier, stream) for frontier in
                         self._checkpoints_behind(pair, stream)]
        self._sweep(rows)
        return np.array([self._current_value(pair_id) for pair_id in pair_ids],
                        dtype=np.float64)

    def force(self, stream_id: Hashable) -> dict:
        """Extend every pair on the stream; returns ``{pair_id: value}``."""
        pair_ids = self._by_stream[stream_id]
        return dict(zip(pair_ids, self.values(pair_ids).tolist()))

    # ----------------------------------------------------------------- plumbing
    def _fresh_frontier(self, pair: _Pair, start: int) -> _Frontier:
        return _Frontier(start, _initial_column(
            pair.measure, pair.pattern.shape[0], pair.gap_cost_a))

    def _anchored_primary(self, pair: _Pair, stream: _Stream) -> _Frontier:
        """The pair's frontier re-anchored at the current head (replaying if lost)
        and, for banded DTW, re-validated against the final-length radius."""
        primary = pair.primary
        if primary is None or primary.start != stream.head:
            primary = pair.checkpoints.pop(stream.head, None)
            if primary is not None:
                self.checkpoint_promotions += 1
                obs_registry.counter("stream.checkpoint_promotions").add(1)
            else:
                primary = self._fresh_frontier(pair, stream.head)
                if stream.total > stream.head:
                    self.replays += 1
                    obs_registry.counter("stream.replays").add(1)
                    obs_registry.counter("stream.replay_columns").add(
                        stream.total - stream.head)
            pair.primary = primary
        if pair.band is not None:
            n = pair.pattern.shape[0]
            radius = max(pair.band, abs(n - (stream.total - stream.head)))
            if primary.radius != radius:
                if primary.done > primary.start:
                    # The band geometry moved: every computed column used the
                    # old radius, so the whole window replays at the new one.
                    primary = self._fresh_frontier(pair, stream.head)
                    pair.primary = primary
                    self.replays += 1
                    obs_registry.counter("stream.replays").add(1)
                    obs_registry.counter("stream.replay_columns").add(
                        stream.total - stream.head)
                primary.radius = radius
        return primary

    def _checkpoints_behind(self, pair: _Pair, stream: _Stream) -> list[_Frontier]:
        """Create the checkpoint frontiers due through the window end on a
        windowed stream; returns every checkpoint not yet extended that far."""
        interval = self.checkpoint_every
        if not interval or not stream.windowed or pair.band is not None:
            return []
        first = ((stream.head // interval) + 1) * interval
        for start in range(first, stream.total + 1, interval):
            if start not in pair.checkpoints:
                pair.checkpoints[start] = self._fresh_frontier(pair, start)
                obs_registry.counter("stream.checkpoints_created").add(1)
        return [frontier for frontier in pair.checkpoints.values()
                if frontier.done < stream.total]

    def _sweep(self, rows: list) -> None:
        """Advance every ``(pair, frontier, stream)`` row to its window end
        through stacked sweeps, planned per sweep key by :func:`_plan_blocks`."""
        while rows:
            groups: dict[tuple, list] = {}
            for row in rows:
                groups.setdefault(row[0].sweep_key, []).append(row)
            for group in groups.values():
                n = group[0][0].pattern.shape[0]
                limit = _segment_limit(n)
                deltas = [min(stream.total - frontier.done, limit)
                          for _, frontier, stream in group]
                for width, block in _plan_blocks(deltas, n):
                    self._sweep_block([group[r] for r in block],
                                      [deltas[r] for r in block], width)
            rows = [row for row in rows if row[1].done < row[2].total]

    def _sweep_block(self, rows: list, deltas: list[int], width: int) -> None:
        """Advance each row's frontier by its ``delta`` columns in one stacked
        table fill of ``width`` columns (rows share a sweep key)."""
        pair = rows[0][0]
        a = pair.pattern
        n = a.shape[0]
        dim = 2 if pair.spatial else 3
        points = np.zeros((len(rows), width, dim))
        table = np.empty((len(rows), n + 1, width + 1))
        for row, ((_, frontier, stream), delta) in enumerate(zip(rows, deltas)):
            new = stream.slice(frontier.done, frontier.done + delta)
            if not pair.spatial and new.shape[1] < 3:
                raise ValueError("dita requires streams with a time column")
            points[row, :delta] = new[:, :dim]
            table[row, :, 0] = frontier.column
        # Row 0 continues the border from each frontier's corner.
        corner = table[:, 0, :1]
        gap_cost_a = gap_cost_b = None
        mode = "dtw" if pair.measure == "dita" else pair.measure
        if pair.measure == "edr":
            data = kernels._match_tensor(a[None], points, pair.measure_args[0])
            table[:, 0, 1:] = corner + np.arange(1, width + 1)
        elif pair.measure == "lcss":
            data = kernels._match_tensor(a[None], points, pair.measure_args[0])
            table[:, 0, 1:] = corner
        elif pair.measure == "erp":
            data = kernels._euclidean_cost(a[None], points)
            gap_point = np.array(pair.measure_args)
            gap_cost_a = pair.gap_cost_a[None]
            gap_cost_b = np.sqrt(((points - gap_point) ** 2).sum(axis=-1))
            # Row 0 accumulates the gap costs left to right from the frontier's
            # corner, continuing the batch kernel's sequential border sum.
            np.cumsum(np.concatenate([corner, gap_cost_b], axis=1), axis=1,
                      out=table[:, 0, :])
        else:
            table[:, 0, 1:] = np.inf
            if pair.measure == "dita":
                lambda_spatial, time_scale = pair.measure_args
                data = spatiotemporal_point_cost(
                    a, points.reshape(-1, dim), lambda_spatial, time_scale,
                ).reshape(n, len(rows), width).transpose(1, 0, 2).copy()
            else:
                data = kernels._euclidean_cost(a[None], points)
            if pair.band is not None:
                # Out-of-band cells cost +inf (global column indices, as the
                # batch kernel masks them), so their table cells stay +inf.
                offsets = np.array([frontier.done - frontier.start
                                    for _, frontier, _ in rows])
                radii = np.array([frontier.radius for _, frontier, _ in rows])
                columns = offsets[:, None, None] + np.arange(width)[None, None, :]
                data[np.abs(np.arange(n)[None, :, None] - columns)
                     > radii[:, None, None]] = np.inf
        self._backend.sweep_table(mode, table, data, gap_cost_a, gap_cost_b)
        columns = table[np.arange(len(rows)), :, deltas]
        for row, ((_, frontier, _), delta) in enumerate(zip(rows, deltas)):
            frontier.column = columns[row]
            frontier.done += delta
        _count_stream_cells(n * sum(deltas), pair.measure)

    def stats(self) -> dict:
        """Engine-level tallies (the ``stream.*`` registry counters hold totals)."""
        return {
            "streams": len(self._streams),
            "pairs": len(self._pairs),
            "checkpoint_every": self.checkpoint_every,
            "checkpoints_live": sum(len(p.checkpoints)
                                    for p in self._pairs.values()),
            "replays": self.replays,
            "checkpoint_promotions": self.checkpoint_promotions,
            "backend": self._backend.name,
        }
