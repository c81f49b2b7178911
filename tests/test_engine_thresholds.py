"""Parity and soundness suite for τ-aware early abandoning in the kernels.

The abandoning contract has three legs, each pinned here for every batch
kernel and every engine strategy:

* ``thresholds=+inf`` (or ``None``) is a **no-op** — bit-identical results;
* with finite thresholds, **survivors** (finite results) are bit-identical to
  the unthresholded sweep, and every ``+inf`` is **sound**: the true distance
  really exceeds that pair's threshold;
* ``knn_search`` with in-kernel abandoning stays **bit-identical** to
  ``knn_from_matrix`` — ties included — because a pair is only abandoned when
  its exact distance provably exceeds the heap's τ, and τ never grows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import generate_dataset
from repro.distances import knn_from_matrix
from repro.engine import MatrixEngine, available_batch_kernels, get_batch_kernel
from repro.obs import get_registry
from repro.search import TrajectoryIndex, knn_search


def dp_cells() -> int:
    return get_registry().counter("engine.dp_cells").value

#: Kernel kwargs exercised per measure (banded DTW runs the same stacked sweep).
KERNEL_KWARGS = {
    "dtw": [{}, {"band": 2}],
    "erp": [{}, {"gap": (0.3, 0.7)}],
    "edr": [{"epsilon": 0.25}],
    "lcss": [{"epsilon": 0.25}],
    "frechet": [{}],
    "dita": [{}],
}

SPATIOTEMPORAL = {"dita"}


def _pair_lists(seed: int = 0):
    """Ragged pair lists incl. single points, equal pairs and skewed lengths."""
    rng = np.random.default_rng(seed)
    lengths_a = [1, 1, 2, 3, 5, 9, 17, 33, 33]
    lengths_b = [1, 33, 2, 7, 5, 3, 17, 33, 1]
    list_a = [rng.uniform(0.0, 2.0, size=(n, 3)) for n in lengths_a]
    list_b = [rng.uniform(0.0, 2.0, size=(m, 3)) for m in lengths_b]
    list_b[4] = list_a[4].copy()  # exact duplicate → distance 0
    for points in list_a + list_b:
        points[:, 2] = np.sort(points[:, 2])
    return list_a, list_b


def test_every_batch_kernel_is_covered():
    assert sorted(KERNEL_KWARGS) == available_batch_kernels()


@pytest.mark.parametrize("measure", sorted(KERNEL_KWARGS))
def test_thresholds_inf_is_a_noop(measure):
    list_a, list_b = _pair_lists()
    kernel = get_batch_kernel(measure)
    for kwargs in KERNEL_KWARGS[measure]:
        base = kernel(list_a, list_b, **kwargs)
        infs = kernel(list_a, list_b, thresholds=np.full(len(list_a), np.inf),
                      **kwargs)
        np.testing.assert_array_equal(infs, base, err_msg=f"{measure} {kwargs}")


@pytest.mark.parametrize("measure", sorted(KERNEL_KWARGS))
def test_survivors_match_and_abandons_are_sound(measure):
    """Finite results equal the unthresholded kernel; +inf implies true > τ."""
    list_a, list_b = _pair_lists()
    kernel = get_batch_kernel(measure)
    for kwargs in KERNEL_KWARGS[measure]:
        base = kernel(list_a, list_b, **kwargs)
        for scale in (0.0, 0.5, 0.999, 1.0, 1.5):
            thresholds = base * scale
            values = kernel(list_a, list_b, thresholds=thresholds, **kwargs)
            for pair, value in enumerate(values):
                if np.isfinite(value):
                    assert value == base[pair], (measure, kwargs, scale, pair)
                else:
                    assert base[pair] > thresholds[pair], (measure, kwargs,
                                                           scale, pair)
        # τ equal to the exact distance must never abandon (tie safety).
        np.testing.assert_array_equal(
            kernel(list_a, list_b, thresholds=base.copy(), **kwargs), base,
            err_msg=f"{measure} {kwargs}: tau == distance was abandoned")


@pytest.mark.parametrize("measure", sorted(KERNEL_KWARGS))
def test_scalar_threshold_broadcast_and_validation(measure):
    list_a, list_b = _pair_lists()
    kernel = get_batch_kernel(measure)
    kwargs = KERNEL_KWARGS[measure][0]
    base = kernel(list_a, list_b, **kwargs)
    np.testing.assert_array_equal(kernel(list_a, list_b, thresholds=np.inf,
                                         **kwargs), base)
    with pytest.raises(ValueError):
        kernel(list_a, list_b, thresholds=np.zeros(len(list_a) + 1), **kwargs)


def test_tight_thresholds_abandon_cheaper():
    """A tight τ must cut the DP cell-work the counter observes."""
    list_a, list_b = _pair_lists()
    kernel = get_batch_kernel("dtw")
    base = kernel(list_a, list_b)
    before = dp_cells()
    kernel(list_a, list_b)
    full = dp_cells() - before
    before = dp_cells()
    abandoned = kernel(list_a, list_b, thresholds=base * 0.25)
    partial = dp_cells() - before
    assert full > 0
    assert partial < full
    assert np.isinf(abandoned).any()


@pytest.mark.parametrize("strategy", ["serial", "chunked", "shared"])
def test_engine_pairs_threads_thresholds_per_strategy(strategy):
    list_a, list_b = _pair_lists()
    spatial_a = [points[:, :2] for points in list_a]
    spatial_b = [points[:, :2] for points in list_b]
    engine = MatrixEngine(strategy=strategy, cache=None, chunk_size=3,
                          max_workers=2)
    base = engine.pairs(spatial_a, spatial_b, "dtw")
    np.testing.assert_array_equal(
        engine.pairs(spatial_a, spatial_b, "dtw",
                     thresholds=np.full(len(spatial_a), np.inf)), base)
    thresholds = base * 0.5
    values = engine.pairs(spatial_a, spatial_b, "dtw", thresholds=thresholds)
    for pair, value in enumerate(values):
        if np.isfinite(value):
            assert value == base[pair]
        else:
            assert base[pair] > thresholds[pair]
    with pytest.raises(ValueError):
        engine.pairs(spatial_a, spatial_b, "dtw", thresholds=np.zeros(2))


def test_engine_pairs_ignores_thresholds_without_a_batch_kernel():
    """Measures without a batch kernel compute full distances — still exact."""
    list_a, list_b = _pair_lists()
    spatial_a = [points[:, :2] for points in list_a]
    spatial_b = [points[:, :2] for points in list_b]
    engine = MatrixEngine(cache=None)
    base = engine.pairs(spatial_a, spatial_b, "hausdorff")
    values = engine.pairs(spatial_a, spatial_b, "hausdorff",
                          thresholds=np.zeros(len(spatial_a)))
    np.testing.assert_array_equal(values, base)
    assert np.isfinite(values).all()


def test_reference_engine_ignores_thresholds():
    """use_kernels=False keeps the historical per-pair loop untouched."""
    list_a, list_b = _pair_lists()
    spatial_a = [points[:, :2] for points in list_a]
    spatial_b = [points[:, :2] for points in list_b]
    reference = MatrixEngine(strategy="serial", use_kernels=False, cache=None)
    base = reference.pairs(spatial_a, spatial_b, "dtw")
    values = reference.pairs(spatial_a, spatial_b, "dtw",
                             thresholds=np.zeros(len(spatial_a)))
    np.testing.assert_array_equal(values, base)


# ------------------------------------------------------------- knn integration
@pytest.mark.parametrize("measure", ["dtw", "erp", "edr", "frechet"])
def test_knn_search_with_abandoning_stays_bit_identical(measure):
    dataset = generate_dataset("chengdu", size=60, seed=4)
    arrays = dataset.point_arrays(spatial_only=True)
    kwargs = {"epsilon": 0.25} if measure == "edr" else {}
    engine = MatrixEngine(cache=None)
    index = TrajectoryIndex(arrays)
    matrix = engine.cross(arrays[:4], arrays, measure, **kwargs)
    expected = knn_from_matrix(matrix, 7, exclude_self=True)
    for query in range(4):
        on = knn_search(index, arrays[query], 7, measure=measure, engine=engine,
                        exclude=query, abandon=True, batch_size=4, **kwargs)
        off = knn_search(index, arrays[query], 7, measure=measure, engine=engine,
                         exclude=query, abandon=False, batch_size=4, **kwargs)
        np.testing.assert_array_equal(on.indices, expected[query])
        np.testing.assert_array_equal(off.indices, expected[query])
        np.testing.assert_array_equal(on.distances, off.distances)
        # Abandoning never changes which candidates get refined, only their cost.
        assert on.stats.num_refined == off.stats.num_refined
        assert off.stats.num_abandoned == 0


def test_knn_search_with_duplicate_ties_and_abandoning():
    """Exact distance ties survive abandoning with ascending-index order."""
    base = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.5]])
    far = base + 7.0
    arrays = [base, far.copy(), base.copy(), far.copy(), base.copy(), far.copy()]
    query = base + 0.01
    engine = MatrixEngine(cache=None)
    matrix = engine.cross([query], arrays, "dtw")
    expected = knn_from_matrix(matrix, 5)
    result = knn_search(arrays, query, 5, measure="dtw", engine=engine,
                        abandon=True, batch_size=1)
    np.testing.assert_array_equal(result.indices, expected[0])
    assert result.indices.tolist()[:3] == [0, 2, 4]


def test_knn_abandon_default_is_measure_aware():
    """abandon=None engages the kernels only for DEFAULT_ABANDON_MEASURES."""
    from repro.search import DEFAULT_ABANDON_MEASURES

    dataset = generate_dataset("chengdu", size=50, seed=2)
    arrays = dataset.point_arrays(spatial_only=True)
    engine = MatrixEngine(cache=None)
    index = TrajectoryIndex(arrays)
    assert "dtw" in DEFAULT_ABANDON_MEASURES
    assert "erp" not in DEFAULT_ABANDON_MEASURES
    default_dtw = knn_search(index, arrays[0], 5, measure="dtw", engine=engine,
                             exclude=0, batch_size=4)
    forced_dtw = knn_search(index, arrays[0], 5, measure="dtw", engine=engine,
                            exclude=0, batch_size=4, abandon=True)
    assert default_dtw.stats.num_abandoned == forced_dtw.stats.num_abandoned
    default_erp = knn_search(index, arrays[0], 5, measure="erp", engine=engine,
                             exclude=0, batch_size=4)
    assert default_erp.stats.num_abandoned == 0
    forced_erp = knn_search(index, arrays[0], 5, measure="erp", engine=engine,
                            exclude=0, batch_size=4, abandon=True)
    np.testing.assert_array_equal(forced_erp.indices, default_erp.indices)


def test_knn_abandoning_cuts_cell_work_on_clustered_data():
    dataset = generate_dataset("chengdu", size=120, seed=9)
    arrays = dataset.point_arrays(spatial_only=True)
    engine = MatrixEngine(cache=None)
    index = TrajectoryIndex(arrays)
    before = dp_cells()
    off = knn_search(index, arrays[0], 5, measure="dtw", engine=engine,
                     exclude=0, abandon=False, batch_size=4)
    cells_off = dp_cells() - before
    before = dp_cells()
    on = knn_search(index, arrays[0], 5, measure="dtw", engine=engine,
                    exclude=0, abandon=True, batch_size=4)
    cells_on = dp_cells() - before
    np.testing.assert_array_equal(on.indices, off.indices)
    assert on.stats.num_abandoned > 0
    assert cells_on < cells_off
    assert "num_abandoned" in on.stats.as_dict()
