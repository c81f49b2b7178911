"""repro — reproduction of the LH-plugin (ICDE 2025).

"Towards Robust Trajectory Embedding for Similarity Computation: When Triangle
Inequality Violations in Distance Metrics Matter" introduces a model-agnostic
Lorentzian-hyperbolic plugin (LH-plugin) for trajectory similarity representation
learning.  This package implements the plugin and every substrate it needs:

* :mod:`repro.nn` — a from-scratch NumPy autodiff / neural-network engine;
* :mod:`repro.distances` — DTW, SSPD, EDR, ERP, LCSS, Hausdorff, discrete Fréchet,
  TP and DITA trajectory distances;
* :mod:`repro.engine` — the pluggable compute engine: vectorized wavefront kernels,
  serial/chunked/shared execution strategies and a content-addressed matrix cache;
* :mod:`repro.data` — trajectory containers, synthetic city generators, grid /
  quadtree preprocessing;
* :mod:`repro.violation` — triangle-inequality violation statistics (TVF, RV, ARVS);
* :mod:`repro.core` — the LH-plugin itself (Lorentz distance, cosh projection,
  dynamic fusion);
* :mod:`repro.models` — Neutraj, TrajGAT, Traj2SimVec, ST2Vec and Tedj re-implementations;
* :mod:`repro.training` / :mod:`repro.eval` — similarity training loop and HR@k /
  NDCG / efficiency evaluation;
* :mod:`repro.search` — the top-k query-serving subsystem: per-measure lower
  bounds, exact filter-and-refine ``knn_search``, embedding ANN, and the
  micro-batching ``SearchService``;
* :mod:`repro.experiments` — one harness per table and figure of the paper.

Quickstart
----------
>>> from repro import generate_dataset, LHPlugin, LHPluginConfig
>>> from repro.models import MeanPoolEncoder
>>> from repro.training import SimilarityTrainer
>>> from repro.distances import pairwise_distance_matrix, normalize_matrix
>>> dataset = generate_dataset("chengdu", size=60, seed=0)
>>> truth = normalize_matrix(pairwise_distance_matrix([t.coordinates for t in dataset], "dtw"))
>>> encoder = MeanPoolEncoder.build(dataset, embedding_dim=16)
>>> trainer = SimilarityTrainer(encoder, plugin=LHPlugin(LHPluginConfig()))
>>> history = trainer.fit(dataset, truth, epochs=3)
"""

from .core import (
    LHPlugin,
    LHPluginConfig,
    PluggedEncoder,
    lorentz_distance,
    lorentz_inner,
    cosh_projection,
    vanilla_projection,
)
from .data import Trajectory, TrajectoryDataset, generate_dataset, available_presets
from .engine import MatrixEngine, get_default_engine, set_default_engine
from .search import SearchService, TrajectoryIndex, knn_search
from .violation import ratio_of_violation, average_relative_violation, violation_report

__version__ = "1.0.0"

__all__ = [
    "LHPlugin", "LHPluginConfig", "PluggedEncoder",
    "lorentz_distance", "lorentz_inner", "cosh_projection", "vanilla_projection",
    "Trajectory", "TrajectoryDataset", "generate_dataset", "available_presets",
    "MatrixEngine", "get_default_engine", "set_default_engine",
    "SearchService", "TrajectoryIndex", "knn_search",
    "ratio_of_violation", "average_relative_violation", "violation_report",
    "__version__",
]
