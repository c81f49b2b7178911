"""Continuous top-k monitoring over live trajectory streams.

:class:`StreamMonitor` answers the standing query *"alert me when a trajectory
inside this region resembles pattern X"* over a fleet of evolving streams.  It
composes three existing layers instead of inventing new machinery:

* a sharded :class:`~repro.search.index.TrajectoryIndex` holds the fleet's
  current windows; each :meth:`tick` folds every changed window in with **one**
  :meth:`~repro.search.index.TrajectoryIndex.update` call (one generation
  bump), and :meth:`~repro.search.index.TrajectoryIndex.range_query` re-screens
  only trajectories whose updated MBR intersects the watched region —
  untouched shards are skipped by their aggregate boxes;
* the in-region candidates pass through the registered **stacked lower
  bounds** (:mod:`repro.search.bounds`) plus each pair's frontier bound: a
  candidate whose bound already exceeds the current kth distance is skipped
  *without extending its DP frontier at all* — its appended points stay
  buffered in the :class:`~repro.engine.streaming.StreamingEngine` until some
  later tick actually needs them;
* survivors refine in ascending-bound order through
  :meth:`~repro.engine.streaming.StreamingEngine.value` with the running kth
  distance as the abandon threshold (τ-abandoning on the *time* axis), so the
  maintained top-k is exact — same filter-and-refine contract as
  :func:`~repro.search.knn_search`, ordered by ``(distance, id)``.

Top-k membership changes are returned as :class:`StreamAlert` records and
emitted through the obs JSONL exporter (``kind="stream_alert"`` events via
:func:`repro.obs.write_event`), so a ``REPRO_OBS_JSONL`` sink captures the
alert history next to spans and snapshots.  ``monitor.*`` registry counters
(ticks, alerts, refined, bound-skips) quantify how much extension work the
bounds saved.
"""

from __future__ import annotations

import heapq
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..data.trajectory import BoundingBox
from ..engine.streaming import StreamingEngine
from ..obs import counter, write_event
from ..resilience import ResilienceError
from .bounds import (
    StackedSummaries,
    TrajectorySummary,
    get_batch_lower_bound,
    get_lower_bound,
)
from .index import TrajectoryIndex

__all__ = ["StreamAlert", "StreamMonitor"]


@dataclass(frozen=True)
class StreamAlert:
    """One top-k membership change: a trajectory entered or exited the watch set."""

    tick: int
    trajectory_id: int
    event: str  # "enter" | "exit"
    distance: float  # entering distance, or last known distance on exit
    kth_distance: float
    measure: str


class StreamMonitor:
    """Standing region + similarity watch over a fleet of live streams.

    ``trajectories`` seeds the fleet (stream ``i`` keeps index id ``i`` for
    its whole life — windows are updated in place, never renumbered).
    ``pattern`` is the reference trajectory, ``region`` the watched
    :class:`~repro.data.trajectory.BoundingBox`, ``k`` the alert set size.
    DP frontiers are created lazily: a stream that never enters the region
    (or is always bound-skipped) never builds one.
    """

    def __init__(self, trajectories, pattern, region: BoundingBox,
                 measure: str = "dtw", k: int = 5,
                 engine: StreamingEngine | None = None,
                 emit_events: bool = True, index_kwargs: dict | None = None,
                 **measure_kwargs):
        if k <= 0:
            raise ValueError("k must be positive")
        self.region = region
        self.measure = measure.lower()
        self.k = k
        self.measure_kwargs = dict(measure_kwargs)
        self.emit_events = emit_events
        self.engine = engine if engine is not None else StreamingEngine()
        self.index = TrajectoryIndex(trajectories, **(index_kwargs or {}))
        self.pattern = pattern
        points = np.asarray(getattr(pattern, "points", pattern), dtype=np.float64)
        self._pattern_points = points
        self._query_summary = TrajectorySummary.of(points)
        for stream_id in range(len(self.index)):
            self.engine.register_stream(stream_id,
                                        points=self.index.arrays[stream_id])
        self._pair_ids: dict[int, object] = {}
        self.tick_count = 0
        self._topk: dict[int, float] = {}
        #: The transient error that made the latest tick skip its refresh
        #: (None after a clean tick) — operators poll this instead of logs.
        self.last_tick_error: Exception | None = None

    # ------------------------------------------------------------------ queries
    def topk(self) -> list[tuple[int, float]]:
        """Current watch set as ``[(trajectory_id, distance)]``, ``(d, id)``-ordered."""
        return sorted(self._topk.items(), key=lambda item: (item[1], item[0]))

    # --------------------------------------------------------------------- tick
    def tick(self, appends: Mapping[int, object] | None = None,
             evicts: Mapping[int, int] | None = None) -> list[StreamAlert]:
        """Apply one batch of stream updates and refresh the exact top-k.

        ``appends`` maps trajectory id → new points, ``evicts`` maps
        trajectory id → number of points dropped from the window head (a
        window never empties — monitored trajectories keep ≥ 1 point).
        Returns the membership alerts this tick produced, in ``(distance,
        id)`` order for entries followed by exits.  The whole update is
        validated before any of it applies: a rejected tick raises
        ``ValueError`` and leaves every window and the index untouched.

        **Skip-and-catch-up:** a transient failure in the re-screen/refine
        phase (a :class:`~repro.resilience.ResilienceError` or a broken
        worker pool) does not kill the monitor.  The stream updates are
        already applied by then — windows and index stay consistent — so the
        tick keeps the previous watch set, counts ``monitor.skipped_ticks``,
        records the error on :attr:`last_tick_error` and returns no alerts;
        the next tick recomputes from the unchanged pending buffers and
        catches up.  Genuine bugs (any other exception) still propagate.
        """
        appends = self._checked_appends(dict(appends or {}))
        evicts = dict(evicts or {})
        for stream_id, count in evicts.items():
            self._check_stream(stream_id)
            window = (self.engine.window_length(stream_id)
                      + len(appends.get(stream_id, ())))
            if not 0 <= count < window:
                raise ValueError(f"cannot evict {count} of the {window} points "
                                 f"of monitored stream {stream_id}: a window "
                                 f"keeps at least one point")
        for stream_id, points in appends.items():
            self.engine.append(stream_id, points, lazy=True)
        for stream_id, count in evicts.items():
            self.engine.evict(stream_id, count)
        changed = sorted(set(appends) | set(evicts))
        if changed:
            self.index.update(changed, [self.engine.window(stream_id)
                                        for stream_id in changed])
        self.tick_count += 1
        counter("monitor.ticks").add(1)

        try:
            candidates = self.index.range_query(self.region)
            counter("monitor.region_candidates").add(int(candidates.size))
            counter("monitor.skipped_region").add(
                sum(1 for stream_id in changed
                    if stream_id not in set(candidates.tolist())))
            new_topk = self._exact_topk(candidates)
        except (ResilienceError, BrokenProcessPool) as error:
            # Transient trouble below us: the updates are applied and nothing
            # was half-committed, so skip this tick's refresh and catch up on
            # the next one instead of taking the whole monitor down.
            counter("monitor.skipped_ticks").add(1)
            self.last_tick_error = error
            return []
        self.last_tick_error = None
        alerts = self._diff(new_topk)
        self._topk = new_topk
        return alerts

    def _check_stream(self, stream_id) -> None:
        if stream_id not in range(len(self.index)):
            raise ValueError(f"unknown monitored stream {stream_id!r}")

    def _checked_appends(self, appends: dict) -> dict:
        """``appends`` as ``(n, width)`` float64 arrays, each checked against
        its stream, so :meth:`tick` applies nothing when any is malformed."""
        checked = {}
        for stream_id, points in appends.items():
            self._check_stream(stream_id)
            points = np.asarray(points, dtype=np.float64)
            if points.ndim == 1:
                points = points[None, :]
            width = self.index.arrays[stream_id].shape[1]
            if points.ndim != 2 or points.shape[1] != width:
                raise ValueError(f"stream {stream_id} takes (n, {width}) points, "
                                 f"got shape {points.shape}")
            checked[stream_id] = points
        return checked

    # ----------------------------------------------------------- filter/refine
    def _pair_for(self, stream_id: int):
        pair_id = self._pair_ids.get(stream_id)
        if pair_id is None:
            pair_id = self.engine.watch(self.pattern, stream_id, self.measure,
                                        **self.measure_kwargs)
            self._pair_ids[stream_id] = pair_id
        return pair_id

    def _bounds(self, stale: list[int]) -> np.ndarray:
        """Lower bounds for the stale candidates: stacked index bounds joined
        with each existing pair's frontier bound (both admissible, so their
        pointwise max is too)."""
        bounds = np.zeros(len(stale))
        batch_bound = get_batch_lower_bound(self.measure)
        pair_bound = get_lower_bound(self.measure)
        if batch_bound is not None and stale:
            arrays = [self.index.arrays[stream_id] for stream_id in stale]
            if len({array.shape[1] for array in arrays}) == 1:
                stacked = StackedSummaries.of(
                    arrays, [self.index.summaries[s] for s in stale])
                bounds = np.asarray(batch_bound(
                    self._pattern_points, stacked, self._query_summary,
                    **self.measure_kwargs), dtype=np.float64)
            else:
                batch_bound = None
        if batch_bound is None and pair_bound is not None:
            bounds = np.array([
                pair_bound(self._pattern_points, self.index.arrays[s],
                           summary=self.index.summaries[s],
                           query_summary=self._query_summary,
                           **self.measure_kwargs)
                for s in stale])
        for position, stream_id in enumerate(stale):
            pair_id = self._pair_ids.get(stream_id)
            if pair_id is not None:
                frontier = self.engine.lower_bound(pair_id)
                if frontier > bounds[position]:
                    bounds[position] = frontier
        return bounds

    def _exact_topk(self, candidates: np.ndarray) -> dict[int, float]:
        fresh: list[tuple[int, float]] = []
        stale: list[int] = []
        for stream_id in candidates.tolist():
            pair_id = self._pair_ids.get(stream_id)
            if pair_id is not None and self.engine.pending(pair_id) == 0:
                fresh.append((stream_id, self.engine.value(pair_id)))
            else:
                stale.append(stream_id)
        heap: list[tuple[float, int]] = []  # (-distance, -id): root = worst kept
        for stream_id, distance in fresh:
            item = (-distance, -stream_id)
            if len(heap) < self.k:
                heapq.heappush(heap, item)
            elif item > heap[0]:
                heapq.heapreplace(heap, item)
        bounds = self._bounds(stale)
        refined = skipped = 0
        for position in np.argsort(bounds, kind="stable"):
            stream_id = stale[int(position)]
            tau = -heap[0][0] if len(heap) == self.k else np.inf
            if len(heap) == self.k and bounds[position] > tau:
                # Bounds ascend from here on: every remaining stale candidate
                # is provably outside the top-k; none extends its frontier.
                skipped = len(stale) - refined
                break
            pair_id = self._pair_for(stream_id)
            threshold = tau if np.isfinite(tau) else None
            distance = self.engine.value(pair_id, threshold=threshold)
            refined += 1
            if not np.isfinite(distance):
                continue  # τ-abandoned: provably outside the top-k
            item = (-distance, -stream_id)
            if len(heap) < self.k:
                heapq.heappush(heap, item)
            elif item > heap[0]:
                heapq.heapreplace(heap, item)
        counter("monitor.refined").add(refined)
        counter("monitor.skipped_bound").add(skipped)
        return {-negative_id: -negative_distance
                for negative_distance, negative_id in heap}

    # ------------------------------------------------------------------- alerts
    def _diff(self, new_topk: dict[int, float]) -> list[StreamAlert]:
        kth = max(new_topk.values()) if new_topk else np.inf
        alerts = [StreamAlert(self.tick_count, stream_id, "enter",
                              distance, kth, self.measure)
                  for stream_id, distance in sorted(new_topk.items(),
                                                    key=lambda i: (i[1], i[0]))
                  if stream_id not in self._topk]
        alerts += [StreamAlert(self.tick_count, stream_id, "exit",
                               distance, kth, self.measure)
                   for stream_id, distance in sorted(self._topk.items())
                   if stream_id not in new_topk]
        if alerts:
            counter("monitor.alerts").add(len(alerts))
            if self.emit_events:
                for alert in alerts:
                    write_event("stream_alert", {
                        "tick": alert.tick,
                        "trajectory_id": int(alert.trajectory_id),
                        "event": alert.event,
                        "distance": float(alert.distance),
                        "kth_distance": float(alert.kth_distance),
                        "measure": alert.measure,
                    })
        return alerts
