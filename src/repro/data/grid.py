"""Grid-cell partitioning of the trajectory space.

Neutraj discretises the city into a regular grid and feeds grid-cell coordinates to
its recurrent encoder; Tedj uses a 3-D spatio-temporal grid.  Both preprocessing
steps are implemented here.
"""

from __future__ import annotations

import numpy as np

from .trajectory import BoundingBox, Trajectory, TrajectoryDataset

__all__ = ["Grid", "SpatioTemporalGrid"]


class Grid:
    """A regular 2-D grid over a bounding box.

    Cells are indexed by integer ``(column, row)`` pairs and by a flat token id
    ``row * num_columns + column``, which embedding layers can consume directly.
    """

    def __init__(self, bounding_box: BoundingBox, num_columns: int = 32, num_rows: int = 32):
        if num_columns <= 0 or num_rows <= 0:
            raise ValueError("grid dimensions must be positive")
        self.bounding_box = bounding_box
        self.num_columns = num_columns
        self.num_rows = num_rows
        self.cell_width = bounding_box.width / num_columns or 1.0
        self.cell_height = bounding_box.height / num_rows or 1.0

    @property
    def num_cells(self) -> int:
        return self.num_columns * self.num_rows

    @staticmethod
    def for_dataset(dataset: TrajectoryDataset, num_columns: int = 32,
                    num_rows: int = 32, margin: float = 1e-6) -> "Grid":
        """Build a grid covering a dataset's bounding box (with a small margin)."""
        return Grid(dataset.bounding_box.expanded(margin), num_columns, num_rows)

    # ------------------------------------------------------------------ cells
    def cell_of(self, lon: float, lat: float) -> tuple[int, int]:
        """(column, row) of the cell containing a point (clamped to the grid)."""
        column = int((lon - self.bounding_box.min_lon) / self.cell_width)
        row = int((lat - self.bounding_box.min_lat) / self.cell_height)
        column = min(max(column, 0), self.num_columns - 1)
        row = min(max(row, 0), self.num_rows - 1)
        return column, row

    def token_of(self, lon: float, lat: float) -> int:
        """Flat token id of the cell containing a point."""
        column, row = self.cell_of(lon, lat)
        return row * self.num_columns + column

    def cell_center(self, column: int, row: int) -> tuple[float, float]:
        """Centre coordinates of a cell."""
        lon = self.bounding_box.min_lon + (column + 0.5) * self.cell_width
        lat = self.bounding_box.min_lat + (row + 0.5) * self.cell_height
        return lon, lat

    def neighbors_of(self, column: int, row: int, radius: int = 1) -> list[tuple[int, int]]:
        """Cells within a Chebyshev ``radius`` (excluding the cell itself)."""
        cells = []
        for dc in range(-radius, radius + 1):
            for dr in range(-radius, radius + 1):
                if dc == 0 and dr == 0:
                    continue
                nc, nr = column + dc, row + dr
                if 0 <= nc < self.num_columns and 0 <= nr < self.num_rows:
                    cells.append((nc, nr))
        return cells

    def cells_of(self, coords) -> np.ndarray:
        """``(n, 2)`` integer ``(column, row)`` cells of an ``(n, ≥2)`` point array.

        The array form of :meth:`cell_of`, bitwise equal to it point by point
        (truncation toward zero, then clamping to the grid).  Non-finite
        coordinates have no cell and raise ``ValueError``.
        """
        coords = np.asarray(coords, dtype=np.float64)[:, :2]
        if not np.isfinite(coords).all():
            raise ValueError("grid cells need finite coordinates")
        scaled = np.empty_like(coords)
        scaled[:, 0] = (coords[:, 0] - self.bounding_box.min_lon) / self.cell_width
        scaled[:, 1] = (coords[:, 1] - self.bounding_box.min_lat) / self.cell_height
        upper = [self.num_columns - 1, self.num_rows - 1]
        return np.clip(np.trunc(scaled), 0, upper).astype(np.int64)

    def _cell_centers(self, cells: np.ndarray) -> np.ndarray:
        """``(n, 2)`` centres of ``(n, 2)`` cells, :meth:`cell_center`'s arithmetic."""
        centers = np.empty(cells.shape)
        centers[..., 0] = self.bounding_box.min_lon + (cells[..., 0] + 0.5) * self.cell_width
        centers[..., 1] = self.bounding_box.min_lat + (cells[..., 1] + 0.5) * self.cell_height
        return centers

    # ------------------------------------------------------------ trajectories
    @staticmethod
    def _coordinates(trajectory) -> np.ndarray:
        return trajectory.coordinates if isinstance(trajectory, Trajectory) else np.asarray(trajectory)

    def tokenize(self, trajectory: Trajectory) -> np.ndarray:
        """Sequence of flat cell tokens visited by the trajectory."""
        cells = self.cells_of(self._coordinates(trajectory))
        return cells[:, 1] * self.num_columns + cells[:, 0]

    def cell_sequence(self, trajectory: Trajectory) -> np.ndarray:
        """Sequence of (column, row) cells visited by the trajectory."""
        return self.cells_of(self._coordinates(trajectory))

    def features(self, trajectory: Trajectory) -> np.ndarray:
        """Per-point features: normalised coordinates plus normalised cell indices.

        This is the hybrid coordinate/cell representation Neutraj feeds to its GRU.
        """
        coords = self._coordinates(trajectory)[:, :2]
        cells = self.cells_of(coords).astype(np.float64)
        normalised_coords = np.empty_like(coords)
        normalised_coords[:, 0] = (coords[:, 0] - self.bounding_box.min_lon) / max(self.bounding_box.width, 1e-12)
        normalised_coords[:, 1] = (coords[:, 1] - self.bounding_box.min_lat) / max(self.bounding_box.height, 1e-12)
        normalised_cells = cells / [self.num_columns, self.num_rows]
        return np.hstack([normalised_coords, normalised_cells])

    def neighborhood_means(self, cells: np.ndarray, radius: int = 1) -> np.ndarray:
        """Mean centre of each cell together with its :meth:`neighbors_of` cells.

        Centres are summed in the scalar order — the cell itself first, then
        the in-grid neighbours in ``dc``/``dr`` order — so every mean is
        bitwise equal to averaging the list ``[cell] + neighbors_of(cell)``.
        """
        total = self._cell_centers(cells)
        count = np.ones(len(cells))
        for dc in range(-radius, radius + 1):
            for dr in range(-radius, radius + 1):
                if dc == 0 and dr == 0:
                    continue
                neighbor = cells + [dc, dr]
                inside = ((neighbor[:, 0] >= 0) & (neighbor[:, 0] < self.num_columns)
                          & (neighbor[:, 1] >= 0) & (neighbor[:, 1] < self.num_rows))
                total = np.where(inside[:, None], total + self._cell_centers(neighbor), total)
                count += inside
        return total / count[:, None]


class SpatioTemporalGrid:
    """A 3-D (lon, lat, time) grid, the preprocessing used by Tedj.

    Time is binned into ``num_time_bins`` slots over the dataset's observed time range
    (or a caller-provided range).
    """

    def __init__(self, grid: Grid, time_start: float, time_stop: float, num_time_bins: int = 24):
        if num_time_bins <= 0:
            raise ValueError("num_time_bins must be positive")
        if time_stop <= time_start:
            time_stop = time_start + 1.0
        self.grid = grid
        self.time_start = time_start
        self.time_stop = time_stop
        self.num_time_bins = num_time_bins
        self.time_width = (time_stop - time_start) / num_time_bins

    @property
    def num_cells(self) -> int:
        return self.grid.num_cells * self.num_time_bins

    @staticmethod
    def for_dataset(dataset: TrajectoryDataset, num_columns: int = 16, num_rows: int = 16,
                    num_time_bins: int = 24) -> "SpatioTemporalGrid":
        if not dataset.has_time:
            raise ValueError("SpatioTemporalGrid requires a spatio-temporal dataset")
        grid = Grid.for_dataset(dataset, num_columns, num_rows)
        times = np.concatenate([t.timestamps for t in dataset])
        return SpatioTemporalGrid(grid, float(times.min()), float(times.max()) + 1e-9,
                                  num_time_bins)

    def time_bin(self, timestamp: float) -> int:
        """Index of the time slot containing ``timestamp`` (clamped)."""
        index = int((timestamp - self.time_start) / self.time_width)
        return min(max(index, 0), self.num_time_bins - 1)

    def token_of(self, lon: float, lat: float, timestamp: float) -> int:
        """Flat token combining the spatial cell and the time bin."""
        spatial = self.grid.token_of(lon, lat)
        return self.time_bin(timestamp) * self.grid.num_cells + spatial

    def tokenize(self, trajectory: Trajectory) -> np.ndarray:
        """Sequence of spatio-temporal tokens for a timestamped trajectory."""
        if not trajectory.has_time:
            raise ValueError("trajectory has no time column")
        return np.array([self.token_of(lon, lat, t) for lon, lat, t in trajectory.points],
                        dtype=np.int64)

    def features(self, trajectory: Trajectory) -> np.ndarray:
        """Normalised (lon, lat, time, cell-column, cell-row, time-bin) features."""
        if not trajectory.has_time:
            raise ValueError("trajectory has no time column")
        spatial = self.grid.features(trajectory)
        times = trajectory.timestamps
        normalised_time = (times - self.time_start) / max(self.time_stop - self.time_start, 1e-12)
        bins = np.array([self.time_bin(t) for t in times], dtype=np.float64) / self.num_time_bins
        return np.hstack([spatial[:, :2], normalised_time[:, None], spatial[:, 2:], bins[:, None]])
