"""Unit tests for trajectory containers, synthetic generation and preprocessing."""

import numpy as np
import pytest

from repro.data import (
    BoundingBox,
    CITY_PRESETS,
    Grid,
    Normalizer,
    QuadTree,
    SpatioTemporalGrid,
    Trajectory,
    TrajectoryDataset,
    available_presets,
    clip_to_box,
    generate_dataset,
    load_csv,
    load_npz,
    remove_stationary_points,
    save_csv,
    save_npz,
    trajectory_graph,
)


class TestBoundingBox:
    def test_dimensions(self):
        box = BoundingBox(0.0, 1.0, 4.0, 3.0)
        assert box.width == pytest.approx(4.0)
        assert box.height == pytest.approx(2.0)

    def test_contains(self):
        box = BoundingBox(0.0, 0.0, 1.0, 1.0)
        assert box.contains(0.5, 0.5)
        assert not box.contains(2.0, 0.5)

    def test_expanded(self):
        box = BoundingBox(0.0, 0.0, 1.0, 1.0).expanded(0.5)
        assert box.min_lon == pytest.approx(-0.5)
        assert box.max_lat == pytest.approx(1.5)

    def test_of_points(self):
        box = BoundingBox.of_points(np.array([[0.0, 1.0], [2.0, -1.0]]))
        assert box.min_lat == pytest.approx(-1.0)
        assert box.max_lon == pytest.approx(2.0)


class TestTrajectory:
    def test_validation(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            Trajectory(np.zeros((0, 2)))

    def test_basic_accessors(self):
        t = Trajectory(np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 2.0]]), trajectory_id="a")
        assert len(t) == 2
        assert t.has_time
        np.testing.assert_allclose(t.timestamps, [1.0, 2.0])
        assert t.coordinates.shape == (2, 2)

    def test_timestamps_raise_without_time(self):
        t = Trajectory(np.zeros((2, 2)))
        with pytest.raises(AttributeError):
            _ = t.timestamps

    def test_length(self):
        t = Trajectory(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert t.length() == pytest.approx(5.0)

    def test_resample_endpoints_preserved(self):
        t = Trajectory(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        resampled = t.resample(7)
        assert len(resampled) == 7
        np.testing.assert_allclose(resampled.points[0], t.points[0])
        np.testing.assert_allclose(resampled.points[-1], t.points[-1])

    def test_resample_validation(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((3, 2))).resample(1)

    def test_downsample_keeps_last_point(self):
        t = Trajectory(np.arange(10.0).reshape(5, 2))
        down = t.downsample(2)
        np.testing.assert_allclose(down.points[-1], t.points[-1])

    def test_spatial_only_drops_time(self):
        t = Trajectory(np.ones((3, 3)))
        assert not t.spatial_only().has_time


class TestTrajectoryDataset:
    def _dataset(self, n=6):
        return TrajectoryDataset([Trajectory(np.random.default_rng(i).random((4, 2)),
                                             trajectory_id=i) for i in range(n)])

    def test_requires_trajectories(self):
        with pytest.raises(ValueError):
            TrajectoryDataset([])

    def test_indexing_and_slicing(self):
        ds = self._dataset()
        assert isinstance(ds[0], Trajectory)
        assert isinstance(ds[:3], TrajectoryDataset)
        assert len(ds[:3]) == 3

    def test_statistics_keys(self):
        stats = self._dataset().statistics()
        for key in ("size", "mean_points", "min_points", "max_points", "has_time"):
            assert key in stats

    def test_split_sizes(self):
        parts = self._dataset(10).split([0.5, 0.5], seed=0)
        assert len(parts) == 2
        assert sum(len(p) for p in parts) == 10

    def test_split_validation(self):
        with pytest.raises(ValueError):
            self._dataset().split([0.9, 0.9])

    def test_subset_preserves_order(self):
        ds = self._dataset()
        subset = ds.subset([3, 1])
        assert subset[0].trajectory_id == 3
        assert subset[1].trajectory_id == 1

    def test_map(self):
        ds = self._dataset()
        doubled = ds.map(lambda t: Trajectory(t.points * 2, t.trajectory_id))
        np.testing.assert_allclose(doubled[0].points, ds[0].points * 2)


class TestSyntheticGeneration:
    def test_available_presets(self):
        assert set(available_presets()) == set(CITY_PRESETS)

    def test_deterministic(self):
        a = generate_dataset("chengdu", size=10, seed=3)
        b = generate_dataset("chengdu", size=10, seed=3)
        for ta, tb in zip(a, b):
            np.testing.assert_allclose(ta.points, tb.points)

    def test_different_seeds_differ(self):
        a = generate_dataset("chengdu", size=5, seed=0)
        b = generate_dataset("chengdu", size=5, seed=1)
        same_shape = a[0].points.shape == b[0].points.shape
        assert not (same_shape and np.allclose(a[0].points, b[0].points))

    def test_size(self):
        assert len(generate_dataset("porto", size=17, seed=0)) == 17

    def test_size_validation(self):
        with pytest.raises(ValueError):
            generate_dataset("porto", size=0)

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            generate_dataset("atlantis", size=5)

    def test_time_presets_have_timestamps(self):
        ds = generate_dataset("tdrive", size=5, seed=0)
        assert ds.has_time
        for trajectory in ds:
            assert np.all(np.diff(trajectory.timestamps) >= 0)

    def test_with_time_override(self):
        ds = generate_dataset("chengdu", size=5, seed=0, with_time=True)
        assert ds.has_time

    def test_minimum_points_respected(self):
        preset = CITY_PRESETS["chengdu"]
        ds = generate_dataset("chengdu", size=30, seed=0)
        assert ds.lengths().min() >= preset.min_points

    def test_all_presets_generate(self):
        for preset in available_presets():
            ds = generate_dataset(preset, size=4, seed=1)
            assert len(ds) == 4


class TestGrid:
    def _grid(self):
        return Grid(BoundingBox(0.0, 0.0, 10.0, 10.0), num_columns=5, num_rows=5)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(BoundingBox(0, 0, 1, 1), num_columns=0)

    def test_cell_of_and_clamping(self):
        grid = self._grid()
        assert grid.cell_of(0.5, 0.5) == (0, 0)
        assert grid.cell_of(9.9, 9.9) == (4, 4)
        assert grid.cell_of(-5.0, 50.0) == (0, 4)

    def test_token_roundtrip(self):
        grid = self._grid()
        token = grid.token_of(4.5, 6.5)
        column, row = token % grid.num_columns, token // grid.num_columns
        assert (column, row) == grid.cell_of(4.5, 6.5)

    def test_cell_center_inside_cell(self):
        grid = self._grid()
        lon, lat = grid.cell_center(2, 3)
        assert grid.cell_of(lon, lat) == (2, 3)

    def test_neighbors_corner(self):
        grid = self._grid()
        assert len(grid.neighbors_of(0, 0)) == 3
        assert len(grid.neighbors_of(2, 2)) == 8

    def test_tokenize_and_features(self):
        grid = self._grid()
        trajectory = Trajectory(np.array([[1.0, 1.0], [9.0, 9.0]]))
        tokens = grid.tokenize(trajectory)
        assert tokens.shape == (2,)
        features = grid.features(trajectory)
        assert features.shape == (2, 4)
        assert features.min() >= 0.0 and features.max() <= 1.0

    def test_for_dataset_covers_points(self):
        ds = generate_dataset("chengdu", size=5, seed=0)
        grid = Grid.for_dataset(ds, 8, 8)
        for trajectory in ds:
            tokens = grid.tokenize(trajectory)
            assert tokens.min() >= 0 and tokens.max() < grid.num_cells


class TestGridArrayParity:
    """The array forms of the grid preprocessing against the scalar API.

    ``cell_of`` / ``neighbors_of`` / ``cell_center`` stay the oracle; the
    vectorised cells, features, tokens and NeuTraj neighbour means must equal
    a per-point loop over them bit for bit.
    """

    @staticmethod
    def _points(grid, seed=0):
        box = grid.bounding_box
        rng = np.random.default_rng(seed)
        # Inside the box, on cell edges, and well outside it on every side.
        inside = rng.uniform([box.min_lon, box.min_lat], [box.max_lon, box.max_lat],
                             size=(40, 2))
        edges = np.array([[box.min_lon, box.min_lat], [box.max_lon, box.max_lat],
                          [box.min_lon + grid.cell_width, box.min_lat + grid.cell_height]])
        span = np.array([box.width, box.height])
        outside = np.array([[box.min_lon, box.min_lat]]) + rng.uniform(-3, 4, size=(40, 2)) * span
        extreme = np.array([[-1e300, 1e300], [1e300, -1e300]])
        return np.vstack([inside, edges, outside, extreme])

    @staticmethod
    def _scalar_means(grid, points, radius):
        means = []
        for lon, lat in points:
            column, row = grid.cell_of(lon, lat)
            cells = [(column, row)] + grid.neighbors_of(column, row, radius)
            means.append(np.array([grid.cell_center(c, r) for c, r in cells]).mean(axis=0))
        return np.array(means)

    @pytest.mark.parametrize("size", [1, 2, 24])
    @pytest.mark.parametrize("radius", [0, 1, 2])
    def test_matches_scalar_loop_bitwise(self, size, radius):
        grid = Grid(BoundingBox(103.9, 30.5, 104.2, 30.8), num_columns=size, num_rows=size)
        points = self._points(grid, seed=size + radius)
        scalar_cells = np.array([grid.cell_of(lon, lat) for lon, lat in points])
        cells = grid.cells_of(points)
        np.testing.assert_array_equal(cells, scalar_cells)
        np.testing.assert_array_equal(grid.cell_sequence(points), scalar_cells)
        np.testing.assert_array_equal(grid.tokenize(points),
                                      [grid.token_of(lon, lat) for lon, lat in points])
        features = grid.features(points)
        np.testing.assert_array_equal(features[:, 2:],
                                      scalar_cells / [grid.num_columns, grid.num_rows])
        means = grid.neighborhood_means(cells, radius)
        assert np.array_equal(means, self._scalar_means(grid, points, radius))

    def test_neutraj_prepare_matches_scalar_loop(self):
        from repro.models import get_model

        ds = generate_dataset("chengdu", size=12, seed=3)
        for radius in (0, 1, 2):
            encoder = get_model("neutraj").build(ds, grid_size=6, neighbor_radius=radius)
            grid, box = encoder.grid, encoder.grid.bounding_box
            batch = encoder.prepare_dataset(ds)
            for trajectory, prepared in zip(ds, batch):
                means = self._scalar_means(grid, trajectory.coordinates, radius)
                smoothed = np.column_stack([
                    (means[:, 0] - box.min_lon) / max(box.width, 1e-12),
                    (means[:, 1] - box.min_lat) / max(box.height, 1e-12)])
                expected = np.hstack([grid.features(trajectory), smoothed])
                assert np.array_equal(prepared, expected)
                assert np.array_equal(encoder.prepare(trajectory), expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_raise(self, bad):
        grid = Grid(BoundingBox(0.0, 0.0, 10.0, 10.0), num_columns=5, num_rows=5)
        points = np.array([[1.0, 1.0], [bad, 2.0]])
        for method in (grid.cells_of, grid.cell_sequence, grid.tokenize, grid.features):
            with pytest.raises(ValueError):
                method(points)


class TestSpatioTemporalGrid:
    def test_requires_time(self):
        ds = generate_dataset("chengdu", size=4, seed=0)
        with pytest.raises(ValueError):
            SpatioTemporalGrid.for_dataset(ds)

    def test_tokenize(self):
        ds = generate_dataset("tdrive", size=4, seed=0)
        st_grid = SpatioTemporalGrid.for_dataset(ds, 4, 4, num_time_bins=6)
        tokens = st_grid.tokenize(ds[0])
        assert tokens.min() >= 0
        assert tokens.max() < st_grid.num_cells

    def test_time_bin_clamped(self):
        ds = generate_dataset("tdrive", size=4, seed=0)
        st_grid = SpatioTemporalGrid.for_dataset(ds, 4, 4, num_time_bins=6)
        assert st_grid.time_bin(-1e9) == 0
        assert st_grid.time_bin(1e9) == 5

    def test_features_shape(self):
        ds = generate_dataset("tdrive", size=4, seed=0)
        st_grid = SpatioTemporalGrid.for_dataset(ds, 4, 4)
        assert st_grid.features(ds[0]).shape == (len(ds[0]), 6)


class TestQuadTree:
    def test_split_on_overflow(self):
        tree = QuadTree(BoundingBox(0.0, 0.0, 1.0, 1.0), max_points=2, max_depth=4)
        rng = np.random.default_rng(0)
        for lon, lat in rng.random((20, 2)):
            tree.insert(lon, lat)
        assert not tree.root.is_leaf
        assert tree.num_nodes > 5

    def test_leaf_for_contains_point(self):
        ds = generate_dataset("chengdu", size=5, seed=0)
        tree = QuadTree.for_dataset(ds, max_points=8, max_depth=5)
        lon, lat = ds[0].coordinates[0]
        leaf = tree.leaf_for(lon, lat)
        assert leaf.is_leaf
        assert leaf.box.min_lon <= lon <= leaf.box.max_lon

    def test_path_to_leaf_monotone_depth(self):
        ds = generate_dataset("chengdu", size=5, seed=0)
        tree = QuadTree.for_dataset(ds, max_points=8, max_depth=5)
        lon, lat = ds[0].coordinates[0]
        path = tree.path_to_leaf(lon, lat)
        assert [node.depth for node in path] == list(range(len(path)))

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadTree(BoundingBox(0, 0, 1, 1), max_points=0)

    def test_trajectory_graph_structure(self):
        ds = generate_dataset("chengdu", size=5, seed=0)
        tree = QuadTree.for_dataset(ds)
        features, adjacency = trajectory_graph(ds[0], tree)
        num_points = len(ds[0])
        assert features.shape[0] == adjacency.shape[0] >= num_points
        assert np.all(adjacency == adjacency.T)
        assert np.all(np.diag(adjacency))
        # consecutive trajectory points are connected
        assert adjacency[0, 1]


class TestNormalizeAndIO:
    def test_normalizer_roundtrip(self):
        ds = generate_dataset("chengdu", size=5, seed=0)
        normalizer = Normalizer.fit(ds)
        points = ds[0].points
        back = normalizer.inverse_transform_points(normalizer.transform_points(points))
        np.testing.assert_allclose(back, points, atol=1e-9)

    def test_normalizer_unit_square(self):
        ds = generate_dataset("chengdu", size=10, seed=0)
        normalised = Normalizer.fit(ds).transform_dataset(ds)
        box = normalised.bounding_box
        assert box.min_lon >= -1e-9 and box.max_lon <= 1.0 + 1e-9

    def test_normalizer_time_requires_fit_with_time(self):
        ds = generate_dataset("chengdu", size=3, seed=0)
        normalizer = Normalizer.fit(ds)
        with pytest.raises(ValueError):
            normalizer.transform_points(np.ones((2, 3)))

    def test_remove_stationary_points(self):
        t = Trajectory(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))
        cleaned = remove_stationary_points(t, min_step=1e-3)
        assert len(cleaned) == 2

    def test_clip_to_box(self):
        t = Trajectory(np.array([[0.0, 0.0], [5.0, 5.0]]))
        clipped = clip_to_box(t, BoundingBox(-1.0, -1.0, 1.0, 1.0))
        assert len(clipped) == 1
        assert clip_to_box(t, BoundingBox(10.0, 10.0, 11.0, 11.0)) is None

    def test_npz_roundtrip(self, tmp_path):
        ds = generate_dataset("tdrive", size=5, seed=0)
        path = tmp_path / "dataset.npz"
        save_npz(ds, path)
        loaded = load_npz(path)
        assert len(loaded) == len(ds)
        np.testing.assert_allclose(loaded[0].points, ds[0].points)

    def test_csv_roundtrip(self, tmp_path):
        ds = generate_dataset("chengdu", size=4, seed=0)
        path = tmp_path / "dataset.csv"
        save_csv(ds, path)
        loaded = load_csv(path)
        assert len(loaded) == len(ds)
        np.testing.assert_allclose(loaded[0].points, ds[0].points, atol=1e-12)

    def test_csv_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            load_csv(path)
