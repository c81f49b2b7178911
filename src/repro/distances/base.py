"""Shared utilities and the distance-function registry.

Every trajectory distance in this package accepts two trajectories given as
``(n, 2)`` (or ``(n, 3)`` for spatio-temporal measures) NumPy arrays of
``(lon, lat[, t])`` rows and returns a non-negative float.  Functions are
registered by name so experiments can be parameterised with strings
(``"dtw"``, ``"sspd"``, ...), matching how the paper tabulates results per
similarity measure.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "as_points",
    "point_distance_matrix",
    "register_distance",
    "get_distance",
    "available_distances",
    "checked_points",
    "METRIC_PROPERTIES",
]

DistanceFunction = Callable[[np.ndarray, np.ndarray], float]

_REGISTRY: dict[str, DistanceFunction] = {}

#: Which registered measures are true metrics (satisfy the triangle inequality).
#: DTW, SSPD and EDR famously do not; Hausdorff and discrete Fréchet do.
METRIC_PROPERTIES: dict[str, bool] = {}


def as_points(trajectory, spatial_only: bool = True) -> np.ndarray:
    """Coerce a trajectory to a 2-D float array of points.

    Parameters
    ----------
    trajectory:
        Sequence of points or an object exposing ``.points``.
    spatial_only:
        If True, only the first two columns (lon, lat) are returned.
    """
    points = getattr(trajectory, "points", trajectory)
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("a trajectory must be a non-empty (n, d) array of points")
    if points.shape[1] < 2:
        raise ValueError("trajectory points need at least lon and lat columns")
    if spatial_only:
        return points[:, :2]
    return points


def checked_points(points, what: str) -> np.ndarray:
    """``points`` (or its ``.points``) as an ``(n, d>=2)`` float64 array of
    finite coordinates.

    Raises ``ValueError`` naming ``what`` otherwise — the one input check of
    the mutable layers (live streams, the search index, kNN queries), run
    before any state changes so a rejected input leaves nothing half-applied.
    """
    points = np.asarray(getattr(points, "points", points), dtype=np.float64)
    if points.ndim != 2 or points.shape[1] < 2:
        raise ValueError(f"{what} must form an (n, d>=2) array, "
                         f"got shape {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError(f"{what} contain non-finite coordinates")
    return points


def point_distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense matrix of Euclidean distances between every point of ``a`` and ``b``."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))


def register_distance(name: str, is_metric: bool = False):
    """Decorator registering a distance function under ``name``."""

    def decorator(func: DistanceFunction) -> DistanceFunction:
        key = name.lower()
        if key in _REGISTRY:
            raise KeyError(f"distance '{name}' already registered")
        _REGISTRY[key] = func
        METRIC_PROPERTIES[key] = is_metric
        return func

    return decorator


def get_distance(name: str) -> DistanceFunction:
    """Look up a registered distance function by name (case-insensitive)."""
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(f"unknown distance '{name}'; available: {sorted(_REGISTRY)}")
    return _REGISTRY[key]


def available_distances() -> list[str]:
    """Names of every registered distance function."""
    return sorted(_REGISTRY)
