"""Spatio-temporal trajectory distances: TP and DITA.

The paper's Table IV evaluates ST2Vec and Tedj against three spatio-temporal ground
truths: TP, DITA and the discrete Fréchet distance.  TP and DITA are re-implemented
here in their point-based (free-space) forms:

* **TP** — a temporally-constrained closest-pair distance: each point of one
  trajectory is matched to the other trajectory's nearest point, and the spatial and
  temporal gaps of the match are blended with weight ``lambda_spatial``.  This is the
  formulation used by the ST2Vec evaluation (Shang et al.'s "TP" measure adapted from
  road networks to free space).
* **DITA** — a pivot-aligned warping distance: the sequences are aligned with a
  DTW-style monotone coupling over combined spatio-temporal point costs, following the
  DITA system's local-alignment semantics.

Neither measure satisfies the triangle inequality, which is why they appear in the
paper's spatio-temporal violation analysis.
"""

from __future__ import annotations

import math

import numpy as np

from .base import as_points, register_distance

__all__ = ["tp_distance", "dita_distance", "spatiotemporal_point_cost",
           "check_spatiotemporal_args"]


def _require_time(points: np.ndarray, name: str) -> None:
    if points.shape[1] < 3:
        raise ValueError(f"{name} requires trajectories with a time column (lon, lat, t)")


def check_spatiotemporal_args(lambda_spatial: float, time_scale: float) -> None:
    """Reject blend weights outside [0, 1] and non-finite or non-positive time
    scales, which would make the blended cost negative, ``nan`` or ``inf``."""
    if not 0.0 <= lambda_spatial <= 1.0:
        raise ValueError(f"lambda_spatial must lie in [0, 1], got {lambda_spatial!r}")
    if not (math.isfinite(time_scale) and time_scale > 0.0):
        raise ValueError(f"time_scale must be finite and positive, got {time_scale!r}")


def spatiotemporal_point_cost(a: np.ndarray, b: np.ndarray,
                              lambda_spatial: float = 0.5,
                              time_scale: float = 1.0) -> np.ndarray:
    """Blend of spatial and temporal point distances between two point arrays."""
    check_spatiotemporal_args(lambda_spatial, time_scale)
    spatial = np.sqrt(((a[:, None, :2] - b[None, :, :2]) ** 2).sum(axis=-1))
    temporal = np.abs(a[:, None, 2] - b[None, :, 2]) / time_scale
    return lambda_spatial * spatial + (1.0 - lambda_spatial) * temporal


@register_distance("tp", is_metric=False)
def tp_distance(trajectory_a, trajectory_b, lambda_spatial: float = 0.5,
                time_scale: float = 1.0) -> float:
    """TP spatio-temporal distance (symmetric mean closest-pair blend)."""
    a = as_points(trajectory_a, spatial_only=False)
    b = as_points(trajectory_b, spatial_only=False)
    _require_time(a, "tp_distance")
    _require_time(b, "tp_distance")
    cost = spatiotemporal_point_cost(a, b, lambda_spatial, time_scale)
    forward = cost.min(axis=1).mean()
    backward = cost.min(axis=0).mean()
    return float(0.5 * (forward + backward))


@register_distance("dita", is_metric=False)
def dita_distance(trajectory_a, trajectory_b, lambda_spatial: float = 0.5,
                  time_scale: float = 1.0) -> float:
    """DITA spatio-temporal distance (monotone pivot alignment, DTW-style)."""
    a = as_points(trajectory_a, spatial_only=False)
    b = as_points(trajectory_b, spatial_only=False)
    _require_time(a, "dita_distance")
    _require_time(b, "dita_distance")
    cost = spatiotemporal_point_cost(a, b, lambda_spatial, time_scale)
    n, m = cost.shape
    table = np.full((n + 1, m + 1), np.inf)
    table[0, 0] = 0.0
    for i in range(1, n + 1):
        previous = table[i - 1]
        current = table[i]
        row_cost = cost[i - 1]
        for j in range(1, m + 1):
            current[j] = row_cost[j - 1] + min(previous[j], current[j - 1], previous[j - 1])
    return float(table[n, m])
