"""Pruning-soundness property tests for the per-measure lower bounds.

The whole filter-and-refine contract rests on one inequality: every registered
lower bound must be ≤ the true distance for the same keyword arguments.  These
tests check that property against the textbook distances of
``repro.distances`` — on random trajectory pairs, on route-clustered synthetic
data and on hypothesis-drawn degenerate fleets (single points, all-duplicate
points, ragged lengths, 3-D input, exact copies) — for every measure in the
registry and every cheaper filter stage a measure registers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import generate_dataset
from repro.distances import available_distances, get_distance
from repro.search import (
    StackedSummaries,
    TrajectoryIndex,
    TrajectorySummary,
    available_batch_lower_bounds,
    filter_stages,
    get_batch_lower_bound,
    register_batch_lower_bound,
    register_filter_stage,
)

#: Per-measure kwargs variants the soundness property is checked under.
MEASURE_KWARGS = {
    "dtw": [{}, {"band": 1}, {"band": 4}],
    "erp": [{}, {"gap": (0.3, 0.7)}],
    "edr": [{"epsilon": 0.25}, {"epsilon": 0.05}],
    "lcss": [{"epsilon": 0.25}, {"epsilon": 0.05}],
    "hausdorff": [{}],
    "frechet": [{}],
    "sspd": [{}],
    "tp": [{}, {"lambda_spatial": 0.8, "time_scale": 2.0}],
    "dita": [{}, {"lambda_spatial": 0.2, "time_scale": 0.5}],
}

SPATIOTEMPORAL = {"tp", "dita"}

#: Every registered bound: each measure's full bound, plus its filter stages
#: as ``"measure.stage"``.
BOUNDS = sorted(MEASURE_KWARGS) + [f"{measure}.{stage}"
                                   for measure in sorted(MEASURE_KWARGS)
                                   for stage in filter_stages(measure)]


def split(name: str) -> tuple[str, str | None]:
    """``"dtw.rows"`` → ``("dtw", "rows")``; a bare measure is its full bound."""
    measure, _, stage = name.partition(".")
    return measure, stage or None


def random_trajectories(rng: np.random.Generator, with_time: bool) -> list[np.ndarray]:
    """Assorted random trajectories: varied lengths, duplicates, single points."""
    lengths = [1, 1, 2, 3, 5, 8, 13, 21, 34]
    trajectories = []
    for length in lengths:
        points = rng.uniform(0.0, 2.0, size=(length, 2))
        if with_time:
            times = np.sort(rng.uniform(0.0, 10.0, size=(length, 1)), axis=0)
            points = np.hstack([points, times])
        trajectories.append(points)
    trajectories.append(trajectories[-1].copy())  # exact duplicate → distance 0
    return trajectories


def bounds_of(measure, query, candidates, stage=None, **kwargs) -> np.ndarray:
    """The registered bound (or filter ``stage``) from ``query`` to every
    candidate, in one stack."""
    bound = get_batch_lower_bound(measure, stage)
    return bound(query, StackedSummaries.of(candidates), TrajectorySummary.of(query),
                 **kwargs)


def assert_sound(name, query, candidates, **kwargs):
    measure, stage = split(name)
    distance = get_distance(measure)
    for candidate, value in zip(candidates, bounds_of(measure, query, candidates,
                                                      stage, **kwargs)):
        exact = distance(query, candidate, **kwargs)
        assert value <= exact + 1e-9, (
            f"{name} bound {value} exceeds distance {exact} for kwargs {kwargs}")
        assert value >= 0.0


@pytest.mark.parametrize("measure", BOUNDS)
def test_lower_bound_is_sound(measure):
    rng = np.random.default_rng(7)
    trajectories = random_trajectories(rng, with_time=split(measure)[0] in SPATIOTEMPORAL)
    for kwargs in MEASURE_KWARGS[split(measure)[0]]:
        for query in trajectories:
            assert_sound(measure, query, trajectories, **kwargs)


@pytest.mark.parametrize("measure", BOUNDS)
def test_lower_bound_sound_on_synthetic_city(measure):
    """Same property on realistic route-clustered data (the regime that prunes)."""
    timed = split(measure)[0] in SPATIOTEMPORAL
    dataset = generate_dataset("chengdu", size=12, seed=3, with_time=timed or None)
    arrays = dataset.point_arrays(spatial_only=not timed)
    for query in arrays:
        assert_sound(measure, query, arrays, **MEASURE_KWARGS[split(measure)[0]][0])


def _points(rng, length: int, width: int, grid: bool) -> np.ndarray:
    """Random coordinates on a coarse grid (ties, exact zero costs) or drawn
    uniformly; the time column (if any) never decreases."""
    if grid:
        coords = rng.integers(-4, 5, size=(length, 2)) * 0.25
    else:
        coords = rng.uniform(-3.0, 3.0, size=(length, 2))
    if width == 2:
        return coords
    times = np.cumsum(rng.integers(0, 3, size=(length, 1)) * 0.5, axis=0)
    return np.hstack([coords, times])


def _shaped(rng, kind: str, width: int, grid: bool,
            query: np.ndarray | None = None) -> np.ndarray:
    if kind == "one_point":
        return _points(rng, 1, width, grid)
    if kind == "duplicate":
        return np.repeat(_points(rng, 1, width, grid), rng.integers(2, 7), axis=0)
    if kind == "copy":  # equal length, zero cost
        return query.copy()
    return _points(rng, int(rng.integers(1, 9)), width, grid)


@st.composite
def degenerate_fleets(draw, with_time: bool):
    """A query and a ragged fleet mixing one-point, all-duplicate, exact-copy
    and random trajectories, all 2-D or all 3-D (spatiotemporal).

    Hypothesis picks the shapes; a drawn seed fills in the coordinates.
    """
    width = 3 if with_time else draw(st.sampled_from([2, 3]))
    grid = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    query = _shaped(rng, draw(st.sampled_from(["ragged", "one_point", "duplicate"])),
                    width, grid)
    kinds = draw(st.lists(st.sampled_from(["ragged", "one_point", "duplicate", "copy"]),
                          min_size=1, max_size=6))
    return query, [_shaped(rng, kind, width, grid, query) for kind in kinds]


@pytest.mark.parametrize("measure", BOUNDS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_bound_sound_on_degenerate_fleets(measure, data):
    """0 ≤ bound ≤ the textbook distance on the shapes that break envelopes."""
    query, candidates = data.draw(degenerate_fleets(split(measure)[0] in SPATIOTEMPORAL))
    kwargs = data.draw(st.sampled_from(MEASURE_KWARGS[split(measure)[0]]))
    assert_sound(measure, query, candidates, **kwargs)


def test_every_registered_distance_has_a_lower_bound():
    assert set(available_distances()) <= set(available_batch_lower_bounds())


def test_precomputed_summaries_do_not_change_the_bound():
    rng = np.random.default_rng(11)
    a = rng.uniform(0.0, 1.0, size=(20, 3))
    candidates = [rng.uniform(0.0, 1.0, size=(length, 3)) for length in (15, 4, 1)]
    summaries = [TrajectorySummary.of(candidate) for candidate in candidates]
    for measure in available_batch_lower_bounds():
        kwargs = MEASURE_KWARGS[measure][0]
        bound = get_batch_lower_bound(measure)
        plain = bound(a, StackedSummaries.of(candidates), TrajectorySummary.of(a),
                      **kwargs)
        summarised = bound(a, StackedSummaries.of(candidates, summaries),
                           TrajectorySummary.of(a), **kwargs)
        np.testing.assert_array_equal(summarised, plain, err_msg=measure)


def test_summary_fields():
    points = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 0.5], [1.0, 2.0]])
    summary = TrajectorySummary.of(points, segments=2)
    assert summary.length == 4
    np.testing.assert_allclose(summary.mins, [0.0, 0.5])
    np.testing.assert_allclose(summary.maxs, [4.0, 3.0])
    np.testing.assert_allclose(summary.first, [0.0, 1.0])
    np.testing.assert_allclose(summary.last, [1.0, 2.0])
    np.testing.assert_allclose(summary.point_sum, [7.0, 6.5])
    # Pieces overlap by one point so polyline segments stay inside some box.
    assert summary.segment_starts.tolist() == [0, 2]
    assert summary.segment_ends.tolist() == [2, 3]


def test_identical_trajectories_bound_to_zero():
    rng = np.random.default_rng(5)
    spatial = rng.uniform(size=(12, 2))
    temporal = np.hstack([spatial, np.linspace(0, 1, 12)[:, None]])
    for measure in available_batch_lower_bounds():
        kwargs = MEASURE_KWARGS[measure][0]
        points = temporal if measure in SPATIOTEMPORAL else spatial
        assert bounds_of(measure, points, [points], **kwargs)[0] == pytest.approx(0.0)


def test_registry_rejects_duplicates_and_unknown_names_are_zero():
    with pytest.raises(KeyError):
        register_batch_lower_bound("dtw")(lambda *args, **kwargs: 0.0)
    with pytest.raises(KeyError):
        register_filter_stage("dtw", "endpoints")(lambda *args, **kwargs: 0.0)
    assert filter_stages("dtw") == ("endpoints", "rows")
    assert filter_stages("edr") == ()
    assert get_batch_lower_bound("edr", "endpoints") is None
    with pytest.raises(KeyError):
        TrajectoryIndex([np.ones((2, 2))]).lower_bounds(np.zeros((2, 2)), "edr",
                                                        stage="endpoints")
    assert get_batch_lower_bound("no-such-measure") is None
    index = TrajectoryIndex([np.ones((2, 2)), np.zeros((3, 2))])
    np.testing.assert_array_equal(
        index.lower_bounds(np.zeros((2, 2)), "no-such-measure"), [0.0, 0.0])


# --------------------------------------------------------- stacking independence
@pytest.mark.parametrize("measure", sorted(MEASURE_KWARGS))
def test_index_lower_bounds_unchanged_by_vectorisation(measure):
    """Scoring every candidate in one stacked pass equals scoring each alone.

    Padding to a common piece count repeats the final box, and the
    concatenated per-candidate reductions never mix candidates, so the index's
    values must match a one-candidate stack per trajectory.  Covers ragged
    lengths (including single-point and duplicated trajectories) and every
    kwargs variant, banded DTW included.
    """
    rng = np.random.default_rng(13)
    with_time = measure in SPATIOTEMPORAL
    candidates = random_trajectories(rng, with_time=with_time)
    index = TrajectoryIndex(candidates)
    for kwargs in MEASURE_KWARGS[measure]:
        for query in (candidates[0], candidates[5], candidates[-1]):
            vectorised = index.lower_bounds(query, measure, **kwargs)
            reference = np.concatenate([
                bounds_of(measure, query, [candidate], **kwargs)
                for candidate in index.arrays])
            np.testing.assert_allclose(vectorised, reference, rtol=1e-10,
                                       atol=1e-12, err_msg=f"{measure} {kwargs}")


def test_batch_bounds_are_sound(with_time_measures=("tp", "dita")):
    """The index entry point inherits the soundness property."""
    for measure in available_batch_lower_bounds():
        with_time = measure in with_time_measures
        rng = np.random.default_rng(17)
        candidates = random_trajectories(rng, with_time=with_time)
        index = TrajectoryIndex(candidates)
        distance = get_distance(measure)
        kwargs = MEASURE_KWARGS[measure][0]
        query = candidates[4]
        bounds = index.lower_bounds(query, measure, **kwargs)
        for candidate, value in zip(candidates, bounds):
            assert value <= distance(query, candidate, **kwargs) + 1e-9, measure
            assert value >= 0.0


def test_banded_dtw_bound_is_sound_and_stack_independent():
    """The windowed stacked envelope stays below banded DTW for every band and
    gives each candidate the value a one-candidate stack gives it."""
    rng = np.random.default_rng(29)
    candidates = random_trajectories(rng, with_time=False)
    distance = get_distance("dtw")
    for band in (0, 1, 3, 10):
        for query in (candidates[0], candidates[4], candidates[-1]):
            values = bounds_of("dtw", query, candidates, band=band)
            alone = np.concatenate([bounds_of("dtw", query, [candidate], band=band)
                                    for candidate in candidates])
            np.testing.assert_allclose(values, alone, rtol=1e-10, atol=1e-12,
                                       err_msg=f"band={band}")
            for candidate, value in zip(candidates, values):
                assert value <= distance(query, candidate, band=band) + 1e-9


def test_stacked_summaries_keep_piece_ranges():
    rng = np.random.default_rng(31)
    arrays = [rng.random((length, 2)) for length in (20, 3, 1)]
    stacked = StackedSummaries.of(arrays)
    summaries = [TrajectorySummary.of(array) for array in arrays]
    pieces = stacked.seg_starts.shape[1]
    for row, summary in enumerate(summaries):
        own = len(summary.segment_starts)
        np.testing.assert_array_equal(stacked.seg_starts[row, :own],
                                      summary.segment_starts)
        np.testing.assert_array_equal(stacked.seg_ends[row, :own],
                                      summary.segment_ends)
        # Padding repeats the final piece, which never changes a windowed min.
        assert (stacked.seg_starts[row, own:]
                == summary.segment_starts[-1]).all()
        assert (stacked.seg_ends[row, own:] == summary.segment_ends[-1]).all()
    assert pieces == max(len(s.segment_starts) for s in summaries)


def test_stacked_summaries_validation_and_shape():
    rng = np.random.default_rng(19)
    arrays = [rng.random((length, 2)) for length in (3, 11, 1)]
    stacked = StackedSummaries.of(arrays)
    assert len(stacked) == 3
    assert stacked.points.shape == (15, 2)
    np.testing.assert_array_equal(stacked.offsets, [0, 3, 14, 15])
    assert not stacked.has_time
    with pytest.raises(ValueError):
        StackedSummaries.of([])
    # Mixed widths stack at the common (minimum) column count.
    mixed = StackedSummaries.of([rng.random((3, 2)), rng.random((4, 3))])
    assert mixed.points.shape == (7, 2)
    assert mixed.seg_mins.shape[-1] == mixed.firsts.shape[-1] == 2
    assert not mixed.has_time


# ------------------------------------------------------------------ mixed widths
def _mixed_fleet(rng):
    """Ragged 2-D and 3-D trajectories interleaved, plus the two width groups."""
    flat = [rng.random((length, 2)) for length in (5, 1, 9, 2)]
    timed = [np.hstack([rng.random((length, 2)), np.arange(length)[:, None]])
             for length in (4, 12, 1, 3)]
    fleet = [trajectory for pair in zip(flat, timed) for trajectory in pair]
    return fleet, flat, timed


@pytest.mark.parametrize("measure", sorted(set(MEASURE_KWARGS) - SPATIOTEMPORAL))
def test_mixed_width_stack_equals_width_groups(measure):
    """A mixed fleet's stack gives every candidate exactly the bound its own
    width group's stack gives it: spatial bounds read columns 0–1 only."""
    rng = np.random.default_rng(23)
    fleet, flat, timed = _mixed_fleet(rng)
    for kwargs in MEASURE_KWARGS[measure]:
        for query in (rng.random((6, 2)), timed[1], flat[1]):
            mixed = bounds_of(measure, query, fleet, **kwargs)
            grouped = np.empty(len(fleet))
            grouped[0::2] = bounds_of(measure, query, flat, **kwargs)
            grouped[1::2] = bounds_of(measure, query, timed, **kwargs)
            np.testing.assert_array_equal(mixed, grouped,
                                          err_msg=f"{measure} {kwargs}")


@pytest.mark.parametrize("measure", sorted(SPATIOTEMPORAL))
def test_mixed_width_fleet_refuses_temporal_bounds(measure):
    rng = np.random.default_rng(23)
    fleet, _, timed = _mixed_fleet(rng)
    with pytest.raises(ValueError, match="time column"):
        bounds_of(measure, timed[0], fleet)
    with pytest.raises(ValueError, match="time column"):
        TrajectoryIndex(fleet).lower_bounds(timed[0], measure)


# ------------------------------------------------------------------ sub-stacks
def _take_fleets(measure, rng):
    """Fleets whose members differ in piece count, mixed 2-D/3-D ones for the
    spatial measures (the temporal ones refuse those)."""
    fleet, flat, timed = _mixed_fleet(rng)
    return [timed] if measure in SPATIOTEMPORAL else [fleet, flat, timed]


@pytest.mark.parametrize("name", BOUNDS)
def test_take_equals_stacking_the_members(name):
    """A bound over ``take(positions)`` is bit-identical to the bound over a
    fresh stack of just those members (in that order): rows keep the parent's
    padded piece count, which never changes a min-over-pieces."""
    measure, stage = split(name)
    bound = get_batch_lower_bound(measure, stage)
    rng = np.random.default_rng(37)
    for arrays in _take_fleets(measure, rng):
        stacked = StackedSummaries.of(arrays)
        count = len(arrays)
        for positions in ([0], [count - 1, 0, 2], rng.permutation(count)[:5],
                          np.arange(count)):
            members = [arrays[position] for position in positions]
            sub = stacked.take(positions)
            np.testing.assert_array_equal(sub.offsets,
                                          StackedSummaries.of(members).offsets)
            for kwargs in MEASURE_KWARGS[measure]:
                for query in (arrays[1], arrays[-1]):
                    summary = TrajectorySummary.of(query)
                    np.testing.assert_array_equal(
                        bound(query, sub, summary, **kwargs),
                        bound(query, StackedSummaries.of(members), summary, **kwargs),
                        err_msg=f"{name} {kwargs} positions={list(positions)}")


@pytest.mark.parametrize("name", BOUNDS)
def test_index_subset_bounds_equal_the_full_pass(name):
    """``lower_bounds(ids=...)`` scores sub-stacks of several shards and gives
    every id the value the whole-index pass gives it, in ``ids`` order."""
    measure, stage = split(name)
    rng = np.random.default_rng(41)
    for arrays in _take_fleets(measure, rng):
        arrays = arrays + [array + 3.0 for array in arrays]  # spread over shards
        index = TrajectoryIndex(arrays, shard_columns=3, shard_rows=3)
        assert index.num_shards > 1
        for ids in ([len(arrays) - 1, 0], rng.permutation(len(arrays))[:7],
                    np.zeros(0, dtype=np.int64)):
            for kwargs in MEASURE_KWARGS[measure]:
                query = arrays[2]
                whole = index.lower_bounds(query, measure, stage=stage, **kwargs)
                subset = index.lower_bounds(query, measure, ids=ids, stage=stage,
                                            **kwargs)
                np.testing.assert_array_equal(subset, whole[ids],
                                              err_msg=f"{name} {kwargs}")
