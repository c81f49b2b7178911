"""Parity suite: vectorized kernels and batched statistics vs the scalar reference.

Every wavefront kernel and every batched violation statistic must agree with its
reference implementation to 1e-9 on randomized inputs — including degenerate
single-point trajectories, unequal lengths and every registered measure that has a
kernel.  This is the contract that lets the engine swap execution strategies freely.
"""

import numpy as np
import pytest

from repro import distances as D
from repro.engine import MatrixEngine, get_batch_kernel
from repro.violation import metrics as VM

TOLERANCE = 1e-9

#: (measure, kwargs, needs_time)
KERNEL_CASES = [
    ("dtw", {}, False),
    ("erp", {}, False),
    ("erp", {"gap": (1.5, -0.5)}, False),
    ("edr", {"epsilon": 0.3}, False),
    ("lcss", {"epsilon": 0.3}, False),
    ("frechet", {}, False),
    ("dita", {}, True),
    ("dita", {"lambda_spatial": 0.8, "time_scale": 2.0}, True),
]

LENGTH_PAIRS = [(1, 1), (1, 9), (9, 1), (2, 2), (5, 17), (17, 5), (33, 33)]


def _random_trajectory(rng, length, with_time):
    width = 3 if with_time else 2
    points = rng.random((length, width))
    if with_time:
        points[:, 2] = np.sort(points[:, 2]) * 10.0
    return points


def _case_id(case):
    measure, kwargs, _ = case
    return measure + ("-" + "-".join(map(str, kwargs)) if kwargs else "")


class TestKernelParity:
    @pytest.mark.parametrize("case", KERNEL_CASES, ids=_case_id)
    @pytest.mark.parametrize("lengths", LENGTH_PAIRS)
    def test_pairwise_kernel_matches_reference(self, case, lengths):
        measure, kwargs, with_time = case
        rng = np.random.default_rng(hash((measure, lengths)) % (2 ** 32))
        reference = D.get_distance(measure)
        kernel = D.get_kernel(measure)
        assert kernel is not None
        for trial in range(3):
            a = _random_trajectory(rng, lengths[0], with_time)
            b = _random_trajectory(rng, lengths[1], with_time)
            assert kernel(a, b, **kwargs) == pytest.approx(
                reference(a, b, **kwargs), abs=TOLERANCE)

    @pytest.mark.parametrize("case", KERNEL_CASES, ids=_case_id)
    def test_batch_kernel_matches_reference(self, case):
        measure, kwargs, with_time = case
        rng = np.random.default_rng(7)
        batch = get_batch_kernel(measure)
        reference = D.get_distance(measure)
        list_a = [_random_trajectory(rng, int(rng.integers(1, 25)), with_time)
                  for _ in range(17)]
        list_b = [_random_trajectory(rng, int(rng.integers(1, 25)), with_time)
                  for _ in range(17)]
        values = batch(list_a, list_b, **kwargs)
        expected = [reference(a, b, **kwargs) for a, b in zip(list_a, list_b)]
        np.testing.assert_allclose(values, expected, atol=TOLERANCE)

    def test_kernel_registered_for_every_dp_measure(self):
        for measure in ("dtw", "erp", "edr", "lcss", "frechet", "dita"):
            assert measure in D.available_kernels()

    def test_epsilon_validation_matches_reference(self):
        a = np.zeros((3, 2))
        with pytest.raises(ValueError):
            D.get_kernel("edr")(a, a, epsilon=0.0)
        with pytest.raises(ValueError):
            D.get_kernel("lcss")(a, a, epsilon=-1.0)

    def test_dita_requires_time_column(self):
        a = np.zeros((3, 2))
        with pytest.raises(ValueError):
            D.get_kernel("dita")(a, a)


class TestBandedDTW:
    def test_wide_band_equals_full_dtw(self):
        rng = np.random.default_rng(0)
        a, b = rng.random((21, 2)), rng.random((17, 2))
        full = D.dtw_distance(a, b)
        assert D.get_kernel("dtw")(a, b, band=100) == pytest.approx(full, abs=TOLERANCE)

    def test_narrow_band_never_below_full_dtw(self):
        rng = np.random.default_rng(1)
        a, b = rng.random((20, 2)), rng.random((20, 2))
        full = D.dtw_distance(a, b)
        for band in (0, 1, 3, 7):
            banded = D.get_kernel("dtw")(a, b, band=band)
            assert np.isfinite(banded)
            assert banded >= full - TOLERANCE

    def test_band_widened_for_unequal_lengths(self):
        rng = np.random.default_rng(2)
        a, b = rng.random((30, 2)), rng.random((5, 2))
        assert np.isfinite(D.get_kernel("dtw")(a, b, band=0))

    @pytest.mark.parametrize("band", [0, 2, 5])
    def test_banded_reference_matches_banded_kernel(self, band):
        rng = np.random.default_rng(4)
        a, b = rng.random((18, 2)), rng.random((14, 2))
        assert D.get_kernel("dtw")(a, b, band=band) == pytest.approx(
            D.dtw_distance(a, b, band=band), abs=TOLERANCE)

    @pytest.mark.parametrize("band", [0, 2, 5])
    def test_ragged_banded_batch_matches_reference(self, band):
        """One stacked batch whose pairs widen the band by different amounts."""
        rng = np.random.default_rng(6)
        lengths = [(1, 1), (1, 9), (9, 1), (6, 6), (12, 5), (4, 15), (20, 20),
                   (17, 8)]
        list_a = [rng.random((n, 2)) for n, _ in lengths]
        list_b = [rng.random((m, 2)) for _, m in lengths]
        kernel = get_batch_kernel("dtw")
        values = kernel(list_a, list_b, band=band)
        oracle = np.array([D.dtw_distance(a, b, band=band)
                           for a, b in zip(list_a, list_b)])
        np.testing.assert_allclose(values, oracle, rtol=0, atol=TOLERANCE)
        for scale in (0.5, 1.0):
            taus = oracle * scale
            bounded = kernel(list_a, list_b, band=band, thresholds=taus)
            finite = np.isfinite(bounded)
            np.testing.assert_array_equal(bounded[finite], values[finite])
            assert np.all(oracle[~finite] > taus[~finite])

    def test_band_kwarg_works_without_kernels(self):
        rng = np.random.default_rng(5)
        trajectories = [rng.random((8, 2)) for _ in range(5)]
        with_kernels = MatrixEngine(strategy="chunked").pairwise(
            trajectories, "dtw", band=2)
        without_kernels = MatrixEngine(strategy="serial", use_kernels=False).pairwise(
            trajectories, "dtw", band=2)
        np.testing.assert_allclose(with_kernels, without_kernels, atol=TOLERANCE)


class TestEngineStrategyParity:
    @pytest.fixture(scope="class")
    def trajectories(self):
        rng = np.random.default_rng(3)
        return [rng.random((int(rng.integers(1, 20)), 2)) for _ in range(14)]

    @pytest.mark.parametrize("measure,kwargs", [
        ("dtw", {}), ("edr", {"epsilon": 0.3}), ("sspd", {}), ("hausdorff", {}),
    ])
    @pytest.mark.parametrize("strategy", ["serial", "chunked"])
    def test_pairwise_matches_reference_loop(self, trajectories, measure, kwargs, strategy):
        reference = MatrixEngine(strategy="serial", use_kernels=False)
        engine = MatrixEngine(strategy=strategy, chunk_size=10)
        np.testing.assert_allclose(
            engine.pairwise(trajectories, measure, **kwargs),
            reference.pairwise(trajectories, measure, **kwargs),
            atol=TOLERANCE)

    def test_cross_matches_reference_loop(self, trajectories):
        reference = MatrixEngine(strategy="serial", use_kernels=False)
        engine = MatrixEngine(strategy="chunked", chunk_size=7)
        np.testing.assert_allclose(
            engine.cross(trajectories[:4], trajectories, "dtw"),
            reference.cross(trajectories[:4], trajectories, "dtw"),
            atol=TOLERANCE)


def _random_symmetric_matrix(rng, size):
    matrix = rng.random((size, size))
    matrix = (matrix + matrix.T) / 2.0
    np.fill_diagonal(matrix, 0.0)
    return matrix


class TestBatchedViolationParity:
    @pytest.mark.parametrize("size", [3, 4, 12, 25])
    def test_exhaustive_statistics_match_scalar(self, size):
        matrix = _random_symmetric_matrix(np.random.default_rng(size), size)
        vectorized = VM.violation_report(matrix)
        scalar = VM.violation_report(matrix, vectorized=False)
        assert vectorized["triplets"] == scalar["triplets"]
        assert vectorized["violating_triplets"] == scalar["violating_triplets"]
        assert vectorized["ratio_of_violation"] == pytest.approx(
            scalar["ratio_of_violation"], abs=TOLERANCE)
        assert vectorized["average_relative_violation"] == pytest.approx(
            scalar["average_relative_violation"], abs=TOLERANCE)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sampled_statistics_match_scalar(self, seed):
        matrix = _random_symmetric_matrix(np.random.default_rng(40 + seed), 30)
        kwargs = {"max_triplets": 500, "seed": seed}
        assert VM.ratio_of_violation(matrix, **kwargs) == pytest.approx(
            VM.ratio_of_violation(matrix, vectorized=False, **kwargs), abs=TOLERANCE)
        assert VM.average_relative_violation(matrix, **kwargs) == pytest.approx(
            VM.average_relative_violation(matrix, vectorized=False, **kwargs),
            abs=TOLERANCE)

    def test_batched_primitives_match_scalar(self):
        matrix = _random_symmetric_matrix(np.random.default_rng(9), 15)
        triplets = VM.triplet_array(15)
        slacks = VM.batched_sim_slack(matrix, triplets)
        flags = VM.batched_violation_flags(matrix, triplets)
        scales = VM.batched_relative_violation_scale(matrix, triplets)
        for index, (i, j, k) in enumerate(map(tuple, triplets)):
            assert slacks[index] == pytest.approx(VM.sim_slack(matrix, i, j, k),
                                                  abs=TOLERANCE)
            assert bool(flags[index]) == bool(VM.triangle_violation_flag(matrix, i, j, k))
            assert scales[index] == pytest.approx(
                VM.relative_violation_scale(matrix, i, j, k), abs=TOLERANCE)

    def test_metric_matrix_has_zero_statistics(self):
        points = np.random.default_rng(5).random((14, 2))
        matrix = np.sqrt(((points[:, None] - points[None]) ** 2).sum(-1))
        assert VM.ratio_of_violation(matrix) == 0.0
        assert VM.average_relative_violation(matrix) == 0.0

    def test_degenerate_matrix_sizes(self):
        for size in (0, 1, 2):
            matrix = np.zeros((size, size))
            report = VM.violation_report(matrix)
            assert report["triplets"] == 0
            assert report["ratio_of_violation"] == 0.0

    def test_exhaustive_block_streaming_matches_single_block(self, monkeypatch):
        # Force tiny blocks so the exhaustive path spans many of them and still
        # aggregates identically to the scalar walk.
        matrix = _random_symmetric_matrix(np.random.default_rng(11), 14)
        monkeypatch.setattr(VM, "_EXHAUSTIVE_BLOCK", 16)
        blocked = VM.violation_report(matrix)
        scalar = VM.violation_report(matrix, vectorized=False)
        assert blocked["triplets"] == scalar["triplets"]
        assert blocked["violating_triplets"] == scalar["violating_triplets"]
        assert blocked["average_relative_violation"] == pytest.approx(
            scalar["average_relative_violation"], abs=TOLERANCE)
        assert VM.ratio_of_violation(matrix) == pytest.approx(
            scalar["ratio_of_violation"], abs=TOLERANCE)
