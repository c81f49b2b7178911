"""Shared experiment pipeline: generate data → ground truth → train → evaluate.

Every table/figure harness composes the same few steps with different parameters, so
they are factored out here.  All experiments are deterministic given their seeds and
run at reduced scale (tens of trajectories, a few epochs) so that the full benchmark
suite completes on a laptop-class CPU; the *relative* behaviour of the plugin versus
the original models is what the reproduction targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import LHPlugin, LHPluginConfig
from ..data import TrajectoryDataset, generate_dataset
from ..distances import normalize_matrix, pairwise_distance_matrix
from ..engine import MatrixEngine, get_default_engine
from ..eval import evaluate_retrieval
from ..models import get_model
from ..training import SimilarityTrainer, default_train_batched

__all__ = ["ExperimentSettings", "VARIANTS", "prepare_experiment", "make_plugin",
           "train_variant", "evaluate_model"]

#: The ablation variants of Table VI; "original" means no plugin at all.
VARIANTS = ("original", "lh-vanilla", "lh-cosh", "fusion-dist")

#: Measures that need a timestamp column.
_SPATIOTEMPORAL_MEASURES = {"tp", "dita"}

#: Extra keyword arguments per measure (EDR's matching threshold is in normalised
#: coordinate units because experiments normalise trajectories to the unit square).
_MEASURE_KWARGS = {"edr": {"epsilon": 0.25}}


@dataclass
class ExperimentSettings:
    """Scale and reproducibility knobs shared by all experiments."""

    preset: str = "chengdu"
    dataset_size: int = 40
    measure: str = "dtw"
    model: str = "neutraj"
    embedding_dim: int = 16
    hidden_dim: int = 24
    epochs: int = 3
    learning_rate: float = 5e-3
    batch_size: int = 16
    num_nearest: int = 5
    num_random: int = 5
    seed: int = 0
    hr_ks: tuple[int, ...] = (5, 10, 50)
    ndcg_ks: tuple[int, ...] = (10, 50)
    plugin: LHPluginConfig = field(default_factory=LHPluginConfig)
    #: Execution strategy for ground-truth matrix construction (``serial``,
    #: ``chunked`` or the zero-copy ``shared`` pool); None uses the
    #: process-wide default engine (``chunked`` with an in-memory cache).
    engine_strategy: str | None = None
    #: Worker-pool size for the ``shared`` strategy; None defers
    #: to ``REPRO_ENGINE_MAX_WORKERS`` / the engine default.
    engine_max_workers: int | None = None
    #: Kernel backend for ground-truth matrix construction (``numpy``,
    #: ``numba`` or ``auto``); None defers to the process-wide resolution
    #: (``set_backend`` / ``REPRO_KERNEL_BACKEND`` / auto).
    kernel_backend: str | None = None
    use_vectorized_kernels: bool = True
    #: Whether training steps run through the mask-aware batched forward
    #: (``encode_batch`` + batched plugin distances).  Defaults to on; the
    #: environment variable ``REPRO_TRAIN_BATCHED=0`` restores the per-sample
    #: reference path process-wide.
    batched_training: bool = field(default_factory=default_train_batched)

    def measure_kwargs(self) -> dict:
        return dict(_MEASURE_KWARGS.get(self.measure, {}))

    def needs_time(self) -> bool:
        return self.measure in _SPATIOTEMPORAL_MEASURES or self.model in ("st2vec", "tedj")

    def make_engine(self) -> MatrixEngine:
        """Engine instance implied by the settings (default engine when unset)."""
        if (self.engine_strategy is None and self.engine_max_workers is None
                and self.kernel_backend is None and self.use_vectorized_kernels):
            return get_default_engine()
        # Share the default engine's cache so explicitly choosing a strategy does
        # not silently forfeit cache hits — except when kernels are disabled, where
        # a kernel-computed cache entry would defeat the point of the reference
        # run, and when a backend is pinned, where a cache entry computed by a
        # different backend could mask (1e-12-scale) cross-backend differences.
        cache = (get_default_engine().cache
                 if self.use_vectorized_kernels and self.kernel_backend is None
                 else None)
        return MatrixEngine(strategy=self.engine_strategy or "chunked",
                            use_kernels=self.use_vectorized_kernels, cache=cache,
                            max_workers=self.engine_max_workers,
                            backend=self.kernel_backend)


def prepare_experiment(settings: ExperimentSettings,
                       engine: MatrixEngine | None = None
                       ) -> tuple[TrajectoryDataset, np.ndarray]:
    """Generate the dataset and its normalised ground-truth distance matrix."""
    with_time = True if settings.needs_time() else None
    dataset = generate_dataset(settings.preset, size=settings.dataset_size,
                               seed=settings.seed, with_time=with_time)
    spatial_only = settings.measure not in _SPATIOTEMPORAL_MEASURES
    trajectories = dataset.point_arrays(spatial_only=spatial_only)
    matrix = pairwise_distance_matrix(trajectories, settings.measure,
                                      engine=engine or settings.make_engine(),
                                      **settings.measure_kwargs())
    return dataset, normalize_matrix(matrix, method="mean")


def make_plugin(settings: ExperimentSettings, variant: str) -> LHPlugin | None:
    """Instantiate the plugin matching an ablation variant (None for "original")."""
    if variant == "original":
        return None
    if variant not in VARIANTS:
        raise KeyError(f"unknown variant '{variant}'; options: {VARIANTS}")
    point_features = 3 if settings.needs_time() else 2
    config = LHPluginConfig.ablation_variant(
        variant,
        beta=settings.plugin.beta,
        compression=settings.plugin.compression,
        factor_dim=settings.plugin.factor_dim,
        fusion_hidden=settings.plugin.fusion_hidden,
        fusion_encoder=settings.plugin.fusion_encoder,
        point_features=point_features,
        seed=settings.seed,
    )
    return LHPlugin(config)


def train_variant(settings: ExperimentSettings, dataset: TrajectoryDataset,
                  target_matrix: np.ndarray, variant: str,
                  eval_every_epoch: bool = False) -> dict:
    """Train one (model, variant) configuration and evaluate retrieval quality.

    Returns a dict with the metrics, the per-epoch history and the trainer (so
    callers can reuse the trained model, e.g. for RVS analysis or efficiency probes).
    """
    encoder_cls = get_model(settings.model)
    encoder = encoder_cls.build(dataset, embedding_dim=settings.embedding_dim,
                                hidden_dim=settings.hidden_dim, seed=settings.seed)
    plugin = make_plugin(settings, variant)
    trainer = SimilarityTrainer(encoder, plugin=plugin, learning_rate=settings.learning_rate,
                                batch_size=settings.batch_size, num_nearest=settings.num_nearest,
                                num_random=settings.num_random, seed=settings.seed,
                                batched=settings.batched_training)

    eval_fn = None
    if eval_every_epoch:
        def eval_fn() -> dict:
            predicted = trainer.model_distance_matrix(dataset)
            return evaluate_retrieval(predicted, target_matrix,
                                      hr_ks=settings.hr_ks, ndcg_ks=settings.ndcg_ks)

    history = trainer.fit(dataset, target_matrix, epochs=settings.epochs, eval_fn=eval_fn)
    predicted = trainer.model_distance_matrix(dataset)
    metrics = evaluate_retrieval(predicted, target_matrix,
                                 hr_ks=settings.hr_ks, ndcg_ks=settings.ndcg_ks)
    return {
        "variant": variant,
        "metrics": metrics,
        "history": history,
        "trainer": trainer,
        "predicted_matrix": predicted,
    }


def evaluate_model(trainer: SimilarityTrainer, dataset: TrajectoryDataset,
                   target_matrix: np.ndarray, settings: ExperimentSettings) -> dict:
    """Re-evaluate an already trained model (used by scalability/robustness sweeps)."""
    predicted = trainer.model_distance_matrix(dataset)
    return evaluate_retrieval(predicted, target_matrix,
                              hr_ks=settings.hr_ks, ndcg_ks=settings.ndcg_ks)
