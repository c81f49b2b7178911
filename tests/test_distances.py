"""Unit tests for the trajectory distance measures."""

import numpy as np
import pytest

from repro import distances as D
from repro.engine import StreamingEngine, get_batch_kernel
from repro.engine.backends import NumpyBackend, numba_kernels

# The worked example of the paper (Example 1): DTW violates the triangle inequality.
TA = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 3.0]])
TB = np.array([[2.0, 0.0], [0.0, 1.0], [2.0, 3.0]])
TC = np.array([[3.0, 0.0], [3.0, 1.0], [4.0, 3.0], [5.0, 3.0]])

SPATIAL_MEASURES = ["dtw", "sspd", "edr", "erp", "lcss", "hausdorff", "frechet"]
MEASURE_KWARGS = {"edr": {"epsilon": 0.5}, "lcss": {"epsilon": 0.5}}


def _call(name, a, b):
    return D.get_distance(name)(a, b, **MEASURE_KWARGS.get(name, {}))


class TestRegistry:
    def test_available_distances(self):
        names = D.available_distances()
        for expected in SPATIAL_MEASURES + ["tp", "dita"]:
            assert expected in names

    def test_get_distance_case_insensitive(self):
        assert D.get_distance("DTW") is D.dtw_distance

    def test_get_distance_unknown(self):
        with pytest.raises(KeyError):
            D.get_distance("nope")

    def test_metric_properties_flags(self):
        assert D.METRIC_PROPERTIES["hausdorff"] is True
        assert D.METRIC_PROPERTIES["dtw"] is False
        assert D.METRIC_PROPERTIES["erp"] is True

    def test_register_duplicate_rejected(self):
        with pytest.raises(KeyError):
            D.register_distance("dtw")(lambda a, b: 0.0)

    def test_as_points_validation(self):
        with pytest.raises(ValueError):
            D.as_points(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            D.as_points(np.zeros((3, 1)))


class TestPaperExample:
    def test_dtw_values(self):
        assert D.dtw_distance(TA, TB) == pytest.approx(4.0)
        assert D.dtw_distance(TB, TC) == pytest.approx(9.0)
        assert D.dtw_distance(TA, TC) == pytest.approx(15.0)

    def test_dtw_triangle_violation(self):
        assert D.dtw_distance(TA, TC) > D.dtw_distance(TA, TB) + D.dtw_distance(TB, TC)

    def test_dtw_path_endpoints(self):
        value, path = D.dtw_distance_with_path(TA, TC)
        assert value == pytest.approx(15.0)
        assert path[0] == (0, 0)
        assert path[-1] == (len(TA) - 1, len(TC) - 1)


class TestCommonProperties:
    @pytest.mark.parametrize("name", SPATIAL_MEASURES)
    def test_self_distance_zero(self, name):
        assert _call(name, TA, TA) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("name", SPATIAL_MEASURES)
    def test_symmetry(self, name):
        assert _call(name, TA, TB) == pytest.approx(_call(name, TB, TA))

    @pytest.mark.parametrize("name", SPATIAL_MEASURES)
    def test_non_negative(self, name):
        assert _call(name, TA, TC) >= 0.0

    @pytest.mark.parametrize("name", SPATIAL_MEASURES)
    def test_single_point_trajectories(self, name):
        a = np.array([[0.0, 0.0]])
        b = np.array([[1.0, 1.0]])
        assert _call(name, a, b) >= 0.0


class TestIndividualMeasures:
    def test_dtw_translation_increases_distance(self):
        shifted = TA + 10.0
        assert D.dtw_distance(TA, shifted) > D.dtw_distance(TA, TA + 0.1)

    def test_sspd_point_on_segment_is_zero(self):
        segment = np.array([[0.0, 0.0], [0.0, 2.0]])
        assert D.point_to_trajectory_distance([0.0, 1.0], segment) == pytest.approx(0.0)

    def test_sspd_point_off_segment(self):
        segment = np.array([[0.0, 0.0], [0.0, 2.0]])
        assert D.point_to_trajectory_distance([3.0, 1.0], segment) == pytest.approx(3.0)

    def test_sspd_identical_shapes_different_sampling(self):
        dense = np.column_stack([np.linspace(0, 1, 20), np.zeros(20)])
        sparse = np.column_stack([np.linspace(0, 1, 5), np.zeros(5)])
        assert D.sspd_distance(dense, sparse) == pytest.approx(0.0, abs=1e-9)

    def test_edr_epsilon_validation(self):
        with pytest.raises(ValueError):
            D.edr_distance(TA, TB, epsilon=0.0)

    def test_edr_counts_edits(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 0.0], [5.0, 0.0]])
        assert D.edr_distance(a, b, epsilon=0.1) == pytest.approx(1.0)

    def test_edr_length_difference_costs_insertions(self):
        a = np.zeros((2, 2))
        b = np.zeros((6, 2))
        assert D.edr_distance(a, b, epsilon=0.1) == pytest.approx(4.0)

    def test_edr_normalized_in_unit_interval(self):
        value = D.edr_distance_normalized(TA, TC, epsilon=0.5)
        assert 0.0 <= value <= 1.0

    def test_erp_gap_point_matters(self):
        # Unequal lengths force gap operations, whose cost depends on the gap point.
        near_origin = D.erp_distance(TA, TC)
        far_gap = D.erp_distance(TA, TC, gap=(100.0, 100.0))
        assert near_origin != pytest.approx(far_gap)

    def test_erp_empty_alignment_cost(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        assert D.erp_distance(a, b) == pytest.approx(np.sqrt(2.0))

    def test_lcss_similarity_full_match(self):
        assert D.lcss_similarity(TA, TA, epsilon=0.1) == len(TA)

    def test_lcss_distance_range(self):
        assert 0.0 <= D.lcss_distance(TA, TC, epsilon=0.5) <= 1.0

    def test_lcss_epsilon_validation(self):
        with pytest.raises(ValueError):
            D.lcss_similarity(TA, TB, epsilon=-1.0)

    def test_hausdorff_known_value(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 3.0], [1.0, 3.0]])
        assert D.hausdorff_distance(a, b) == pytest.approx(3.0)

    def test_directed_hausdorff_asymmetry(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[0.0, 0.0], [10.0, 0.0]])
        assert D.directed_hausdorff_distance(a, b) == pytest.approx(0.0)
        assert D.directed_hausdorff_distance(b, a) == pytest.approx(10.0)

    def test_frechet_at_least_hausdorff(self):
        assert D.discrete_frechet_distance(TA, TC) >= D.hausdorff_distance(TA, TC) - 1e-12

    def test_frechet_known_value(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        b = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
        assert D.discrete_frechet_distance(a, b) == pytest.approx(1.0)


class TestSpatioTemporal:
    SA = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 1.0], [2.0, 0.0, 2.0]])
    SB = np.array([[0.0, 1.0, 0.5], [1.0, 1.0, 1.5], [2.0, 1.0, 2.5]])

    def test_tp_requires_time(self):
        with pytest.raises(ValueError):
            D.tp_distance(TA, TB)

    def test_dita_requires_time(self):
        with pytest.raises(ValueError):
            D.dita_distance(TA, TB)

    def test_tp_self_distance_zero(self):
        assert D.tp_distance(self.SA, self.SA) == pytest.approx(0.0)

    def test_tp_symmetric(self):
        assert D.tp_distance(self.SA, self.SB) == pytest.approx(D.tp_distance(self.SB, self.SA))

    def test_tp_lambda_bounds(self):
        with pytest.raises(ValueError):
            D.tp_distance(self.SA, self.SB, lambda_spatial=1.5)

    def test_tp_pure_spatial_weighting(self):
        spatial_only = D.tp_distance(self.SA, self.SB, lambda_spatial=1.0)
        assert spatial_only == pytest.approx(1.0)

    def test_dita_self_distance_zero(self):
        assert D.dita_distance(self.SA, self.SA) == pytest.approx(0.0)

    def test_dita_increases_with_temporal_gap(self):
        shifted = self.SB.copy()
        shifted[:, 2] += 10.0
        assert D.dita_distance(self.SA, shifted) > D.dita_distance(self.SA, self.SB)


def _watch_dita(a, b, **kwargs):
    """Watching rejects the arguments up front: the compiled stream extends
    never call :func:`spatiotemporal_point_cost`."""
    engine = StreamingEngine(backend=NumpyBackend())
    engine.register_stream("s", points=b)
    return engine.watch(a, "s", "dita", **kwargs)


def _pair(batch_kernel):
    return lambda a, b, **kwargs: batch_kernel([a], [b], **kwargs)


#: Every path that computes a DITA or TP cost.
SPATIOTEMPORAL_PATHS = {
    "dita_distance": D.dita_distance,
    "tp_distance": D.tp_distance,
    "dita_batch_numpy": _pair(get_batch_kernel("dita")),
    "dita_batch_numba": _pair(numba_kernels.dita_batch),
    "tp_batch_numba": _pair(numba_kernels.tp_batch),
    "stream_watch_dita": _watch_dita,
}


@pytest.mark.parametrize("path", sorted(SPATIOTEMPORAL_PATHS))
@pytest.mark.parametrize("kwargs", [
    {"time_scale": 0.0}, {"time_scale": -1.0}, {"time_scale": np.nan},
    {"time_scale": np.inf}, {"lambda_spatial": -0.1},
    {"lambda_spatial": 1.5}, {"lambda_spatial": np.nan},
], ids=lambda kwargs: "-".join(f"{k}={v}" for k, v in kwargs.items()))
def test_spatiotemporal_args_rejected_on_every_path(path, kwargs):
    """A non-positive or non-finite time scale, or a blend weight outside
    [0, 1], raises on every path instead of giving inf, nan or a negative
    "distance"."""
    with pytest.raises(ValueError, match="time_scale|lambda_spatial"):
        SPATIOTEMPORAL_PATHS[path](TestSpatioTemporal.SA,
                                   TestSpatioTemporal.SB, **kwargs)

class TestMatrixHelpers:
    TRAJS = [TA, TB, TC]

    def test_pairwise_matrix_symmetric_zero_diagonal(self):
        matrix = D.pairwise_distance_matrix(self.TRAJS, "dtw")
        np.testing.assert_allclose(matrix, matrix.T)
        np.testing.assert_allclose(np.diag(matrix), np.zeros(3))

    def test_pairwise_matrix_matches_direct_calls(self):
        matrix = D.pairwise_distance_matrix(self.TRAJS, "dtw")
        assert matrix[0, 1] == pytest.approx(4.0)
        assert matrix[1, 2] == pytest.approx(9.0)

    def test_pairwise_with_callable(self):
        matrix = D.pairwise_distance_matrix(self.TRAJS, D.hausdorff_distance)
        assert matrix.shape == (3, 3)

    def test_cross_matrix_shape(self):
        matrix = D.cross_distance_matrix(self.TRAJS[:1], self.TRAJS, "sspd")
        assert matrix.shape == (1, 3)
        assert matrix[0, 0] == pytest.approx(0.0)

    def test_knn_excludes_self(self):
        matrix = D.pairwise_distance_matrix(self.TRAJS, "dtw")
        neighbours = D.knn_from_matrix(matrix, 1, exclude_self=True)
        assert neighbours[0, 0] == 1
        assert neighbours[2, 0] == 1

    def test_knn_includes_self_when_requested(self):
        matrix = D.pairwise_distance_matrix(self.TRAJS, "dtw")
        neighbours = D.knn_from_matrix(matrix, 1, exclude_self=False)
        np.testing.assert_array_equal(neighbours[:, 0], [0, 1, 2])

    def test_knn_k_validation(self):
        with pytest.raises(ValueError):
            D.knn_from_matrix(np.zeros((2, 2)), 0)

    def test_normalize_matrix_mean(self):
        matrix = D.pairwise_distance_matrix(self.TRAJS, "dtw")
        normalised = D.normalize_matrix(matrix, "mean")
        off_diagonal = normalised[~np.eye(3, dtype=bool)]
        assert off_diagonal.mean() == pytest.approx(1.0)

    def test_normalize_matrix_max(self):
        matrix = D.pairwise_distance_matrix(self.TRAJS, "dtw")
        assert D.normalize_matrix(matrix, "max").max() == pytest.approx(1.0)

    def test_normalize_matrix_none_copy(self):
        matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
        result = D.normalize_matrix(matrix, "none")
        assert result is not matrix
        np.testing.assert_allclose(result, matrix)

    def test_normalize_matrix_invalid(self):
        with pytest.raises(ValueError):
            D.normalize_matrix(np.zeros((2, 2)), "median")
