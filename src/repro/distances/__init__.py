"""``repro.distances`` — trajectory similarity / distance measures.

Spatial measures: DTW, SSPD, EDR, ERP, LCSS, Hausdorff, discrete Fréchet.
Spatio-temporal measures: TP, DITA.
Helpers: pairwise/cross distance matrices, k-NN ground truth, registry lookup.
"""

from .base import (
    as_points,
    point_distance_matrix,
    register_distance,
    get_distance,
    available_distances,
    METRIC_PROPERTIES,
)
from .dtw import dtw_distance, dtw_distance_with_path
from .sspd import sspd_distance, point_to_trajectory_distance
from .edr import edr_distance, edr_distance_normalized
from .erp import erp_distance
from .lcss import lcss_distance, lcss_similarity
from .hausdorff import hausdorff_distance, directed_hausdorff_distance
from .frechet import discrete_frechet_distance
from .spatiotemporal import tp_distance, dita_distance, spatiotemporal_point_cost
from .matrix import (
    pairwise_distance_matrix,
    cross_distance_matrix,
    knn_from_matrix,
    normalize_matrix,
)

__all__ = [
    "as_points", "point_distance_matrix", "register_distance", "get_distance",
    "available_distances", "METRIC_PROPERTIES",
    "dtw_distance", "dtw_distance_with_path",
    "sspd_distance", "point_to_trajectory_distance",
    "edr_distance", "edr_distance_normalized",
    "erp_distance",
    "lcss_distance", "lcss_similarity",
    "hausdorff_distance", "directed_hausdorff_distance",
    "discrete_frechet_distance",
    "tp_distance", "dita_distance", "spatiotemporal_point_cost",
    "pairwise_distance_matrix", "cross_distance_matrix", "knn_from_matrix",
    "normalize_matrix",
]
