"""Cheap per-measure lower bounds for filter-and-refine search.

Exact top-k search refuses to compute the full O(n·m) dynamic program for every
candidate.  Instead, each measure registers a *lower bound* that is provably ≤
the true distance and costs O((n + m) · pieces) per candidate — the classic
filter-and-refine recipe (LB_Keogh for DTW, length-difference bounds for edit
distances, MBR separation for point-set measures).  Candidates whose bound
already exceeds the best-so-far k-th distance are discarded without ever running
the measure.

There is one bound contract, a *batch* bound that scores a query against every
candidate of a :class:`StackedSummaries` at once::

    bound(query, stacked, query_summary, **measure_kwargs) -> np.ndarray  # (C,)

Bounds are registered by measure name with :func:`register_batch_lower_bound`; a
measure without one gets all-zero bounds from the callers, which keeps search
exact (everything is refined).  Query points are broadcast against the stacked
candidate boxes, and candidate points are scored against the query's boxes in
one concatenated pass reduced per candidate with ``ufunc.reduceat``.

A measure may also register cheaper *filter stages* with
:func:`register_filter_stage` — same signature, each sound on its own, listed
cheapest first by :func:`filter_stages`.  Exact kNN search cascades through
them UCR-suite style (Rakthanmanon et al., KDD 2012: LB_Kim, then LB_Keogh,
then the DP): the first stage scores every candidate and seeds τ, and each
later stage, the full bound last, scores only the previous stage's survivors
through :meth:`StackedSummaries.take`.  DTW registers its O(1)-per-candidate
endpoint bound and its row (query-side) envelope; the full bound adds the
column envelope, whose pass over every candidate point is the costly part.
Every other measure has the full bound alone.

A summary does not store a single MBR but a short chain of *piecewise* boxes
(up to :data:`DEFAULT_SEGMENTS`, consecutive pieces overlapping by one point so
polyline segments never escape them).  Trajectories are elongated, so one box
around a whole route is mostly empty space; a handful of boxes hugging the route
tightens every bound below at O(n · segments) evaluation cost.  Every bound
reads columns 0–1, and the spatio-temporal bounds (TP, DITA) column 2 as well,
so a fleet mixing ``(lon, lat)`` and ``(lon, lat, t)`` trajectories stacks at
its common width (see :meth:`StackedSummaries.of`).

Soundness (bound ≤ true distance for the same kwargs) is property-tested against
the textbook distances of :mod:`repro.distances` in
``tests/test_search_bounds.py``; every argument below leans on two facts: the
distance from a point to a box bounds its distance to everything inside the box
(boxes are convex), and alignment-based measures must touch every row — and pair
both endpoints — at least once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..distances.base import as_points

__all__ = [
    "DEFAULT_SEGMENTS",
    "TrajectorySummary",
    "StackedSummaries",
    "register_batch_lower_bound",
    "register_filter_stage",
    "get_batch_lower_bound",
    "filter_stages",
    "available_batch_lower_bounds",
]

#: Piecewise boxes kept per trajectory summary.  More pieces → tighter bounds but
#: linearly more bound arithmetic; 8 prunes well while staying far below the cost
#: of any O(n·m) refinement.
DEFAULT_SEGMENTS = 8


@dataclass(frozen=True)
class TrajectorySummary:
    """O(segments)-size trajectory metadata consumed by the lower bounds.

    ``mins``/``maxs`` span all stored columns (the MBR plus, for timestamped
    trajectories, the time range); ``segment_starts``/``segment_ends`` delimit the
    piecewise boxes ``seg_mins``/``seg_maxs`` (inclusive point ranges, consecutive
    pieces sharing one point); ``point_sum`` is the per-column coordinate sum used
    by the ERP reference-point bound.
    """

    length: int
    mins: np.ndarray
    maxs: np.ndarray
    first: np.ndarray
    last: np.ndarray
    point_sum: np.ndarray
    segment_starts: np.ndarray
    segment_ends: np.ndarray
    seg_mins: np.ndarray
    seg_maxs: np.ndarray

    @staticmethod
    def of(trajectory, segments: int = DEFAULT_SEGMENTS) -> "TrajectorySummary":
        points = np.asarray(getattr(trajectory, "points", trajectory), dtype=np.float64)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("a trajectory must be a non-empty (n, d) array of points")
        length = len(points)
        pieces = np.array_split(np.arange(length), min(max(segments, 1), length))
        starts = np.array([piece[0] for piece in pieces], dtype=np.int64)
        # Extend every piece through the next piece's first point so the polyline
        # segment bridging two pieces stays inside the earlier piece's box.
        ends = np.append(starts[1:], length - 1)
        seg_mins = np.stack([points[s:e + 1].min(axis=0) for s, e in zip(starts, ends)])
        seg_maxs = np.stack([points[s:e + 1].max(axis=0) for s, e in zip(starts, ends)])
        return TrajectorySummary(
            length=length,
            mins=points.min(axis=0),
            maxs=points.max(axis=0),
            first=points[0].copy(),
            last=points[-1].copy(),
            point_sum=points.sum(axis=0),
            segment_starts=starts,
            segment_ends=ends,
            seg_mins=seg_mins,
            seg_maxs=seg_maxs,
        )


@dataclass(frozen=True)
class StackedSummaries:
    """Column-stacked form of many :class:`TrajectorySummary` objects.

    Indexes stack their summaries once so a lower bound can score every
    candidate in a handful of array passes instead of a Python loop: the
    piecewise boxes of all candidates are padded to a common piece count (by
    repeating each trajectory's final box — a duplicate box never changes a
    min-over-pieces), endpoints and coordinate sums become ``(C, d)`` arrays,
    and all candidate points are concatenated with ``offsets`` delimiting each
    trajectory for ``ufunc.reduceat`` per-candidate reductions.
    ``seg_starts``/``seg_ends`` keep each piece's inclusive point range (padded
    the same way) so window-restricted bounds — banded DTW's sliding envelope —
    can intersect pieces with per-row windows without unstacking.
    """

    lengths: np.ndarray
    firsts: np.ndarray
    lasts: np.ndarray
    point_sums: np.ndarray
    seg_mins: np.ndarray
    seg_maxs: np.ndarray
    seg_starts: np.ndarray
    seg_ends: np.ndarray
    points: np.ndarray
    offsets: np.ndarray

    @staticmethod
    def of(arrays, summaries=None) -> "StackedSummaries":
        arrays = [np.asarray(getattr(item, "points", item), dtype=np.float64)
                  for item in arrays]
        if not arrays:
            raise ValueError("StackedSummaries needs at least one trajectory")
        if summaries is None:
            summaries = [TrajectorySummary.of(array) for array in arrays]
        # Stack at the common (minimum) column count: spatial bounds read only
        # columns 0–1, so a fleet mixing (lon, lat) and (lon, lat, t) rows keeps
        # their values, while the temporal bounds find no time column and
        # refuse the fleet.
        width = min(array.shape[1] for array in arrays)
        pieces = max(len(summary.segment_starts) for summary in summaries)
        count = len(arrays)
        seg_mins = np.empty((count, pieces, width))
        seg_maxs = np.empty((count, pieces, width))
        seg_starts = np.empty((count, pieces), dtype=np.int64)
        seg_ends = np.empty((count, pieces), dtype=np.int64)
        for row, summary in enumerate(summaries):
            own = len(summary.segment_starts)
            seg_mins[row, :own] = summary.seg_mins[:, :width]
            seg_maxs[row, :own] = summary.seg_maxs[:, :width]
            seg_mins[row, own:] = summary.seg_mins[-1, :width]
            seg_maxs[row, own:] = summary.seg_maxs[-1, :width]
            seg_starts[row, :own] = summary.segment_starts
            seg_ends[row, :own] = summary.segment_ends
            seg_starts[row, own:] = summary.segment_starts[-1]
            seg_ends[row, own:] = summary.segment_ends[-1]
        lengths = np.array([summary.length for summary in summaries], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        return StackedSummaries(
            lengths=lengths,
            firsts=np.stack([summary.first[:width] for summary in summaries]),
            lasts=np.stack([summary.last[:width] for summary in summaries]),
            point_sums=np.stack([summary.point_sum[:width] for summary in summaries]),
            seg_mins=seg_mins,
            seg_maxs=seg_maxs,
            seg_starts=seg_starts,
            seg_ends=seg_ends,
            points=np.concatenate([array[:, :width] for array in arrays], axis=0),
            offsets=offsets,
        )

    def take(self, positions) -> "StackedSummaries":
        """The sub-stack of the candidates at ``positions``, in that order.

        Rows keep this stack's piece count and column width, so every bound
        gives each kept candidate exactly the value it gets from
        :meth:`of` over those members alone (padding repeats a final box,
        which never changes a min-over-pieces); a sub-stack of a mixed-width
        stack still has no time column for the temporal bounds.
        """
        positions = np.asarray(positions, dtype=np.int64)
        lengths = self.lengths[positions]
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        # Each kept candidate's point rows, shifted from its old offset.
        rows = (np.repeat(self.offsets[positions] - offsets[:-1], lengths)
                + np.arange(offsets[-1]))
        return StackedSummaries(
            lengths=lengths,
            firsts=self.firsts[positions],
            lasts=self.lasts[positions],
            point_sums=self.point_sums[positions],
            seg_mins=self.seg_mins[positions],
            seg_maxs=self.seg_maxs[positions],
            seg_starts=self.seg_starts[positions],
            seg_ends=self.seg_ends[positions],
            points=self.points[rows],
            offsets=offsets,
        )

    def __len__(self) -> int:
        return len(self.lengths)

    @property
    def has_time(self) -> bool:
        return self.points.shape[1] >= 3


# ---------------------------------------------------------------------- registry
_BATCH_LOWER_BOUNDS: dict[str, Callable] = {}
_FILTER_STAGES: dict[str, dict[str, Callable]] = {}

#: Soft cap on broadcast temporaries (elements per chunk) in the stacked passes.
_BATCH_CHUNK_ELEMENTS = 2_000_000


def register_batch_lower_bound(name: str):
    """Decorator registering the lower bound for the measure ``name``."""

    def decorator(func: Callable) -> Callable:
        key = name.lower()
        if key in _BATCH_LOWER_BOUNDS:
            raise KeyError(f"batch lower bound for '{name}' already registered")
        _BATCH_LOWER_BOUNDS[key] = func
        return func

    return decorator


def register_filter_stage(name: str, stage: str):
    """Decorator registering a cheaper filter stage of the measure ``name``.

    A stage has the bound signature and must be sound on its own; stages run
    in registration order, so register the cheapest first.  Exact search
    scores the whole fleet with the first stage only and each later stage
    (and finally the full bound) only on the previous stage's survivors.
    """

    def decorator(func: Callable) -> Callable:
        stages = _FILTER_STAGES.setdefault(name.lower(), {})
        if stage in stages:
            raise KeyError(f"filter stage '{stage}' for '{name}' already registered")
        stages[stage] = func
        return func

    return decorator


def get_batch_lower_bound(name: str, stage: str | None = None) -> Callable | None:
    """Lower bound registered for ``name`` (its filter ``stage`` when given),
    or None when the measure has none."""
    if stage is not None:
        return _FILTER_STAGES.get(name.lower(), {}).get(stage)
    return _BATCH_LOWER_BOUNDS.get(name.lower())


def filter_stages(name: str) -> tuple[str, ...]:
    """The cheaper filter stages of ``name``, cheapest first (often none)."""
    return tuple(_FILTER_STAGES.get(name.lower(), ()))


def available_batch_lower_bounds() -> list[str]:
    """Names of every measure with a registered lower bound."""
    return sorted(_BATCH_LOWER_BOUNDS)


# ----------------------------------------------------------------------- helpers
def _stacked_gaps(points: np.ndarray, seg_mins: np.ndarray, seg_maxs: np.ndarray,
                  chebyshev: bool = False) -> np.ndarray:
    """(n, C) per-point distances to every candidate's nearest piece box.

    ``points`` is (n, 2) and the boxes (C, S, 2); the broadcast temporary is
    (n, block, S, 2), chunked over candidates to stay within the element cap.
    """
    if len(points) == 0:
        return np.zeros((0, len(seg_mins)))
    count = len(seg_mins)
    pieces = seg_mins.shape[1]
    block = max(1, _BATCH_CHUNK_ELEMENTS // max(len(points) * pieces, 1))
    out = np.empty((len(points), count))
    for start in range(0, count, block):
        stop = min(start + block, count)
        delta = np.maximum(
            np.maximum(seg_mins[None, start:stop] - points[:, None, None, :],
                       points[:, None, None, :] - seg_maxs[None, start:stop]), 0.0)
        if chebyshev:
            out[:, start:stop] = delta.max(axis=-1).min(axis=-1)
        else:
            out[:, start:stop] = np.sqrt((delta ** 2).sum(axis=-1)).min(axis=-1)
    return out


def _concat_point_gaps(points: np.ndarray, summary: TrajectorySummary,
                       chebyshev: bool = False) -> np.ndarray:
    """Per-point gap to the query's piece boxes for ALL candidate points at once.

    Every query point (and, because pieces overlap by one point, every polyline
    segment) lies inside some piece box, so the minimum over the query's boxes
    bounds a candidate point's distance to the query's point set or polyline
    (Euclidean, or Chebyshev for the ε-match measures).  One (N, S_q) pass over
    every candidate point, chunked over rows.
    """
    seg_mins = summary.seg_mins[:, :2]
    seg_maxs = summary.seg_maxs[:, :2]
    block = max(1, _BATCH_CHUNK_ELEMENTS // max(len(seg_mins), 1))
    out = np.empty(len(points))
    for start in range(0, len(points), block):
        stop = min(start + block, len(points))
        chunk = points[start:stop]
        delta = np.maximum(np.maximum(seg_mins[None] - chunk[:, None, :],
                                      chunk[:, None, :] - seg_maxs[None]), 0.0)
        if chebyshev:
            out[start:stop] = delta.max(axis=-1).min(axis=-1)
        else:
            out[start:stop] = np.sqrt((delta ** 2).sum(axis=-1)).min(axis=-1)
    return out


def _per_candidate_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    return np.add.reduceat(values, offsets[:-1])


def _per_candidate_max(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    return np.maximum.reduceat(values, offsets[:-1])


def _interior_sums(values: np.ndarray, offsets: np.ndarray,
                   lengths: np.ndarray) -> np.ndarray:
    """Per-candidate sum of ``values`` over interior rows (1 .. m−2) only.

    Endpoint entries are zeroed before the segmented sum (each candidate's
    ``b[1:-1]``); candidates shorter than three points have no interior and
    contribute zero.
    """
    interior = values.copy()
    interior[offsets[:-1]] = 0.0
    interior[offsets[1:] - 1] = 0.0
    sums = np.add.reduceat(interior, offsets[:-1])
    return np.where(lengths > 2, sums, 0.0)


def _endpoint_costs(a: np.ndarray,
                    stacked: StackedSummaries) -> tuple[np.ndarray, np.ndarray]:
    """Costs of the cells every warping path or coupling holds: first points
    paired, and last points paired."""
    first = np.linalg.norm(stacked.firsts[:, :2] - a[0], axis=-1)
    last = np.linalg.norm(stacked.lasts[:, :2] - a[-1], axis=-1)
    return first, last


def _single_cell(a: np.ndarray, stacked: StackedSummaries, first: np.ndarray,
                 values: np.ndarray) -> np.ndarray:
    """``values`` with one-point-vs-one-point pairs cut to their one cell."""
    if len(a) == 1:
        return np.where(stacked.lengths == 1, first, values)
    return values


def _batch_lb_dtw_banded(a: np.ndarray, stacked: StackedSummaries,
                         band: int) -> np.ndarray:
    """Sliding-envelope (LB_Keogh) bound for banded DTW over the stacked boxes.

    Query row ``i`` may only couple with candidate columns ``|i − j| ≤ r_c``
    where ``r_c = max(band, |n − m_c|)`` — exactly ``dtw_distance``'s widened
    Sakoe–Chiba radius — so only pieces intersecting that window
    (``seg_end ≥ window_low`` and ``seg_start ≤ window_high``) contribute to
    each row's minimum.  Padded duplicate pieces repeat the last real piece's
    box *and* range, so they never change the windowed minimum.
    """
    n = len(a)
    first, last = _endpoint_costs(a, stacked)
    count = len(stacked)
    interior = np.zeros(count)
    if n > 2:
        rows = np.arange(1, n - 1)
        radius = np.maximum(int(band), np.abs(n - stacked.lengths))
        pieces = stacked.seg_mins.shape[1]
        block = max(1, _BATCH_CHUNK_ELEMENTS // max((n - 2) * pieces, 1))
        inner = a[1:-1]
        for start in range(0, count, block):
            stop = min(start + block, count)
            delta = np.maximum(
                np.maximum(stacked.seg_mins[None, start:stop, :, :2]
                           - inner[:, None, None, :],
                           inner[:, None, None, :]
                           - stacked.seg_maxs[None, start:stop, :, :2]), 0.0)
            gaps = np.sqrt((delta ** 2).sum(axis=-1))  # (n-2, block, S)
            window_low = np.maximum(rows[:, None] - radius[None, start:stop], 0)
            window_high = np.minimum(rows[:, None] + radius[None, start:stop],
                                     stacked.lengths[None, start:stop] - 1)
            allowed = ((stacked.seg_ends[None, start:stop, :]
                        >= window_low[:, :, None])
                       & (stacked.seg_starts[None, start:stop, :]
                          <= window_high[:, :, None]))
            interior[start:stop] = np.where(allowed, gaps, np.inf) \
                .min(axis=-1).sum(axis=0)
    return _single_cell(a, stacked, first, first + interior + last)


def _dtw_row_sum(a: np.ndarray, stacked: StackedSummaries, first: np.ndarray,
                 last: np.ndarray) -> np.ndarray:
    """Unbanded row envelope: endpoints plus each interior query point's gap
    to the candidate's nearest piece box."""
    row_interior = _stacked_gaps(a[1:-1], stacked.seg_mins[..., :2],
                                 stacked.seg_maxs[..., :2]).sum(axis=0) \
        if len(a) > 2 else np.zeros(len(stacked))
    return first + row_interior + last


@register_batch_lower_bound("dtw")
def batch_lb_dtw(query, stacked: StackedSummaries,
                 query_summary: TrajectorySummary, band: int | None = None
                 ) -> np.ndarray:
    """LB_Keogh-style piecewise-envelope bound for (optionally banded) DTW.

    Every interior query point is matched to at least one candidate point on the
    optimal path and the path's first/last cells are exactly (0, 0)/(n−1, m−1) —
    distinct cells whenever the path has more than one — so DTW ≥ d(a₀, b₀) +
    Σᵢ minⱼ d(aᵢ, bⱼ) + d(a₋₁, b₋₁) with the sum over interior rows, each row
    min bounded by the nearest piece box.  Unbanded, the symmetric
    candidate-side sum applies too; banded, see :func:`_batch_lb_dtw_banded`.
    """
    a = as_points(query)
    if band is not None:
        return _batch_lb_dtw_banded(a, stacked, band)
    first, last = _endpoint_costs(a, stacked)
    row_sum = _dtw_row_sum(a, stacked, first, last)
    gaps = _concat_point_gaps(stacked.points[:, :2], query_summary)
    col_interior = _interior_sums(gaps, stacked.offsets, stacked.lengths)
    col_sum = first + col_interior + last
    return _single_cell(a, stacked, first, np.maximum(row_sum, col_sum))


@register_filter_stage("dtw", "endpoints")
def lb_dtw_endpoints(query, stacked: StackedSummaries,
                     query_summary: TrajectorySummary, band: int | None = None
                     ) -> np.ndarray:
    """O(1)-per-candidate endpoint bound (LB_Kim): d(a₀, b₀) + d(a₋₁, b₋₁).

    Every path, banded or not, holds the cells (0, 0) and (n−1, m−1).
    """
    a = as_points(query)
    first, last = _endpoint_costs(a, stacked)
    return _single_cell(a, stacked, first, first + last)


@register_filter_stage("dtw", "rows")
def lb_dtw_rows(query, stacked: StackedSummaries,
                query_summary: TrajectorySummary, band: int | None = None
                ) -> np.ndarray:
    """The row (query-side) envelope of :func:`batch_lb_dtw` alone: it skips
    the pass over every candidate point that the column envelope needs."""
    a = as_points(query)
    if band is not None:
        return _batch_lb_dtw_banded(a, stacked, band)
    first, last = _endpoint_costs(a, stacked)
    return _single_cell(a, stacked, first, _dtw_row_sum(a, stacked, first, last))


@register_batch_lower_bound("erp")
def batch_lb_erp(query, stacked: StackedSummaries,
                 query_summary: TrajectorySummary, gap=None) -> np.ndarray:
    """Chen & Ng's reference-point bound, lifted to the plane.

    With uᵢ = aᵢ − g and vⱼ = bⱼ − g, any ERP alignment costs Σ‖uᵢ − vⱼ‖ over
    matches plus Σ‖uᵢ‖ and Σ‖vⱼ‖ over gaps, which by the triangle inequality is
    at least ‖Σuᵢ − Σvⱼ‖ — computable from the stored coordinate sums alone.
    """
    a = as_points(query)
    gap_point = np.zeros(2) if gap is None else np.asarray(gap, dtype=np.float64)[:2]
    sum_a = a.sum(axis=0) - len(a) * gap_point
    sums_b = stacked.point_sums[:, :2] - stacked.lengths[:, None] * gap_point
    return np.linalg.norm(sums_b - sum_a, axis=-1)


@register_batch_lower_bound("edr")
def batch_lb_edr(query, stacked: StackedSummaries,
                 query_summary: TrajectorySummary, epsilon: float = 0.25) -> np.ndarray:
    """Length-difference and unmatchable-point bounds for EDR.

    The deletion/insertion counts of any alignment differ by exactly |n − m|, and
    every point farther than ``epsilon`` (Chebyshev) from all of the other
    trajectory's piece boxes can never satisfy EDR's match predicate, so it costs
    one edit.
    """
    a = as_points(query)
    cheb = _stacked_gaps(a, stacked.seg_mins[..., :2], stacked.seg_maxs[..., :2],
                         chebyshev=True)
    unmatchable_a = (cheb > epsilon).sum(axis=0)
    gaps = _concat_point_gaps(stacked.points[:, :2], query_summary, chebyshev=True)
    unmatchable_b = _per_candidate_sum((gaps > epsilon).astype(np.float64),
                                       stacked.offsets)
    return np.maximum(np.abs(len(a) - stacked.lengths).astype(np.float64),
                      np.maximum(unmatchable_a, unmatchable_b))


@register_batch_lower_bound("lcss")
def batch_lb_lcss(query, stacked: StackedSummaries,
                  query_summary: TrajectorySummary, epsilon: float = 0.25) -> np.ndarray:
    """Matchable-point bound for the LCSS distance 1 − LCSS/min(n, m).

    A common subsequence only contains points within ``epsilon`` (Chebyshev) of
    some piece box of the other trajectory, capping LCSS by the matchable counts
    of each side.
    """
    a = as_points(query)
    n = len(a)
    cheb = _stacked_gaps(a, stacked.seg_mins[..., :2], stacked.seg_maxs[..., :2],
                         chebyshev=True)
    matchable_a = (cheb <= epsilon).sum(axis=0)
    gaps = _concat_point_gaps(stacked.points[:, :2], query_summary, chebyshev=True)
    matchable_b = _per_candidate_sum((gaps <= epsilon).astype(np.float64),
                                     stacked.offsets)
    best_common = np.minimum(np.minimum(matchable_a, matchable_b),
                             np.minimum(n, stacked.lengths))
    return np.maximum(0.0, 1.0 - best_common / np.minimum(n, stacked.lengths))


@register_batch_lower_bound("hausdorff")
def batch_lb_hausdorff(query, stacked: StackedSummaries,
                       query_summary: TrajectorySummary) -> np.ndarray:
    """Piece-box bound: H(A, B) ≥ maxᵢ d(aᵢ, pieces(B)) and symmetrically for B."""
    a = as_points(query)
    forward = _stacked_gaps(a, stacked.seg_mins[..., :2],
                            stacked.seg_maxs[..., :2]).max(axis=0)
    gaps = _concat_point_gaps(stacked.points[:, :2], query_summary)
    backward = _per_candidate_max(gaps, stacked.offsets)
    return np.maximum(forward, backward)


@register_batch_lower_bound("frechet")
def batch_lb_frechet(query, stacked: StackedSummaries,
                     query_summary: TrajectorySummary) -> np.ndarray:
    """Endpoint and piece-box bounds for the discrete Fréchet distance.

    Every coupling pairs the first points with each other and the last points with
    each other, and matches every point of one curve to some point of the other;
    the coupling maximum dominates each of those pair distances.
    """
    a = as_points(query)
    first, last = _endpoint_costs(a, stacked)
    forward = _stacked_gaps(a, stacked.seg_mins[..., :2],
                            stacked.seg_maxs[..., :2]).max(axis=0)
    gaps = _concat_point_gaps(stacked.points[:, :2], query_summary)
    backward = _per_candidate_max(gaps, stacked.offsets)
    return np.maximum(np.maximum(first, last), np.maximum(forward, backward))


@register_batch_lower_bound("sspd")
def batch_lb_sspd(query, stacked: StackedSummaries,
                  query_summary: TrajectorySummary) -> np.ndarray:
    """Piece-box bound for SSPD: symmetric mean point-to-piece-box gaps.

    Point-to-polyline distances dominate point-to-nearest-piece-box distances
    because every polyline segment lies inside a piece box (pieces overlap by one
    point, and boxes are convex).
    """
    a = as_points(query)
    forward = _stacked_gaps(a, stacked.seg_mins[..., :2],
                            stacked.seg_maxs[..., :2]).mean(axis=0)
    gaps = _concat_point_gaps(stacked.points[:, :2], query_summary)
    backward = _per_candidate_sum(gaps, stacked.offsets) / stacked.lengths
    return 0.5 * (forward + backward)


def _stacked_st_gaps(points: np.ndarray, seg_mins: np.ndarray, seg_maxs: np.ndarray,
                     lambda_spatial: float, time_scale: float) -> np.ndarray:
    """(n, C) blended spatio-temporal gaps to every candidate's best piece box.

    For the piece containing the best-matching candidate point, the blended cost
    is at least λ·(spatial gap to its box) + (1 − λ)·(time gap to its range), so
    the minimum of that expression over pieces bounds minⱼ cost(i, j).
    """
    if len(points) == 0:
        return np.zeros((0, len(seg_mins)))
    count = len(seg_mins)
    pieces = seg_mins.shape[1]
    block = max(1, _BATCH_CHUNK_ELEMENTS // max(len(points) * pieces, 1))
    out = np.empty((len(points), count))
    for start in range(0, count, block):
        stop = min(start + block, count)
        mins = seg_mins[None, start:stop]
        maxs = seg_maxs[None, start:stop]
        spatial_delta = np.maximum(
            np.maximum(mins[..., :2] - points[:, None, None, :2],
                       points[:, None, None, :2] - maxs[..., :2]), 0.0)
        spatial = np.sqrt((spatial_delta ** 2).sum(axis=-1))
        temporal = np.maximum(
            np.maximum(mins[..., 2] - points[:, None, None, 2],
                       points[:, None, None, 2] - maxs[..., 2]), 0.0) / time_scale
        blended = lambda_spatial * spatial + (1.0 - lambda_spatial) * temporal
        out[:, start:stop] = blended.min(axis=-1)
    return out


def _concat_st_gaps(points: np.ndarray, summary: TrajectorySummary,
                    lambda_spatial: float, time_scale: float) -> np.ndarray:
    """Blended spatio-temporal gap to the query's boxes for all candidate points."""
    seg_mins = summary.seg_mins
    seg_maxs = summary.seg_maxs
    block = max(1, _BATCH_CHUNK_ELEMENTS // max(len(seg_mins), 1))
    out = np.empty(len(points))
    for start in range(0, len(points), block):
        stop = min(start + block, len(points))
        chunk = points[start:stop]
        spatial_delta = np.maximum(
            np.maximum(seg_mins[None, :, :2] - chunk[:, None, :2],
                       chunk[:, None, :2] - seg_maxs[None, :, :2]), 0.0)
        spatial = np.sqrt((spatial_delta ** 2).sum(axis=-1))
        temporal = np.maximum(
            np.maximum(seg_mins[None, :, 2] - chunk[:, None, 2],
                       chunk[:, None, 2] - seg_maxs[None, :, 2]), 0.0) / time_scale
        out[start:stop] = (lambda_spatial * spatial
                           + (1.0 - lambda_spatial) * temporal).min(axis=-1)
    return out


def _require_temporal(points: np.ndarray, stacked: StackedSummaries,
                      name: str) -> None:
    if points.shape[1] < 3 or not stacked.has_time:
        raise ValueError(f"{name} requires trajectories with a time column (lon, lat, t)")


@register_batch_lower_bound("tp")
def batch_lb_tp(query, stacked: StackedSummaries,
                query_summary: TrajectorySummary, lambda_spatial: float = 0.5,
                time_scale: float = 1.0) -> np.ndarray:
    """Piece-box bound on TP's symmetric mean closest-pair blend."""
    a = as_points(query, spatial_only=False)
    _require_temporal(a, stacked, "tp")
    forward = _stacked_st_gaps(a, stacked.seg_mins, stacked.seg_maxs,
                               lambda_spatial, time_scale).mean(axis=0)
    gaps = _concat_st_gaps(stacked.points, query_summary, lambda_spatial, time_scale)
    backward = _per_candidate_sum(gaps, stacked.offsets) / stacked.lengths
    return 0.5 * (forward + backward)


@register_batch_lower_bound("dita")
def batch_lb_dita(query, stacked: StackedSummaries,
                  query_summary: TrajectorySummary, lambda_spatial: float = 0.5,
                  time_scale: float = 1.0) -> np.ndarray:
    """DTW-style row/endpoint bounds over the blended spatio-temporal cost."""
    a = as_points(query, spatial_only=False)
    _require_temporal(a, stacked, "dita")
    n = len(a)

    def pair_costs(point: np.ndarray, others: np.ndarray) -> np.ndarray:
        spatial = np.linalg.norm(others[:, :2] - point[:2], axis=-1)
        temporal = np.abs(others[:, 2] - point[2]) / time_scale
        return lambda_spatial * spatial + (1.0 - lambda_spatial) * temporal

    first = pair_costs(a[0], stacked.firsts)
    last = pair_costs(a[-1], stacked.lasts)
    row_interior = _stacked_st_gaps(a[1:-1], stacked.seg_mins, stacked.seg_maxs,
                                    lambda_spatial, time_scale).sum(axis=0) \
        if n > 2 else np.zeros(len(stacked))
    gaps = _concat_st_gaps(stacked.points, query_summary, lambda_spatial, time_scale)
    col_interior = _interior_sums(gaps, stacked.offsets, stacked.lengths)
    values = np.maximum(first + row_interior + last, first + col_interior + last)
    if n == 1:
        values = np.where(stacked.lengths == 1, first, values)
    return values
