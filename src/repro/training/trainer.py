"""Training loop for trajectory similarity models, with or without the LH-plugin.

The trainer owns a base encoder and (optionally) an :class:`~repro.core.LHPlugin`.
For every sampled trajectory pair it computes the model's pair distance — plain
Euclidean for the original pipeline, the plugin's fused/Lorentz distance when the
plugin is attached — and regresses it onto the (normalised) ground-truth distance.
This mirrors the paper's setup where the plugin is trained jointly with, but without
modifying, the base model.

Every step pads the distinct trajectories of its pairs into one mask-aware batch,
encodes each exactly once through ``encode_batch``, gathers the embedding rows per
pair and computes all pair distances in one sweep.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from ..core import LHPlugin
from ..data import Normalizer, TrajectoryDataset
from ..obs import histogram, obs_enabled
from ..nn import (
    Adam,
    Tensor,
    clip_grad_norm,
    euclidean_distance,
    mse_loss,
    relative_distance_loss,
    weighted_rank_loss,
)
from .callbacks import EarlyStopping, TrainingHistory
from .sampling import PairSampler

__all__ = ["SimilarityTrainer"]

_LOSSES: dict[str, Callable] = {
    "mse": mse_loss,
    "relative": relative_distance_loss,
    "weighted_rank": weighted_rank_loss,
}


class SimilarityTrainer:
    """Fits an encoder (and optional plugin) to a ground-truth distance matrix.

    Parameters
    ----------
    encoder:
        Any :class:`~repro.models.TrajectoryEncoder`.
    plugin:
        Optional :class:`~repro.core.LHPlugin`; when present its distance replaces the
        Euclidean embedding distance during training and evaluation.
    learning_rate, batch_size, num_nearest, num_random, loss, clip_norm, seed:
        Optimisation hyper-parameters; ``num_nearest`` / ``num_random`` control the
        per-anchor pair sampling.
    """

    def __init__(self, encoder, plugin: LHPlugin | None = None, learning_rate: float = 5e-3,
                 batch_size: int = 16, num_nearest: int = 5, num_random: int = 5,
                 loss: str = "mse", clip_norm: float = 5.0, seed: int = 0):
        if loss not in _LOSSES:
            raise ValueError(f"unknown loss '{loss}'; options: {sorted(_LOSSES)}")
        self.encoder = encoder
        self.plugin = plugin
        self.batch_size = max(batch_size, 1)
        self.num_nearest = num_nearest
        self.num_random = num_random
        self.loss_name = loss
        self.loss_fn = _LOSSES[loss]
        self.clip_norm = clip_norm
        self.seed = seed
        parameters = list(encoder.parameters())
        if plugin is not None:
            parameters.extend(plugin.parameters())
        self.optimizer = Adam(parameters, lr=learning_rate) if parameters else None
        self.history = TrainingHistory()

    # ------------------------------------------------------------------ helpers
    def _point_sequences(self, dataset: TrajectoryDataset) -> list[np.ndarray] | None:
        """Normalised point sequences for the fusion encoder (None if not needed)."""
        if self.plugin is None or self.plugin.fusion is None:
            return None
        normalizer = Normalizer.fit(dataset)
        wants_time = self.plugin.config.point_features == 3 and dataset.has_time
        sequences = []
        for trajectory in dataset:
            points = trajectory.points if wants_time else trajectory.coordinates
            sequences.append(normalizer.transform_points(points))
        return sequences

    def _predictions(self, batch: np.ndarray, prepared: list,
                     point_sequences: list | None) -> Tensor:
        """Pair distances for one batch through the mask-aware batched forward.

        Each distinct trajectory of the batch is encoded exactly once (one padded
        ``encode_batch`` call), its embedding row gathered into the per-pair blocks,
        and all pair distances computed in a single batched sweep.
        """
        batch = np.asarray(batch, dtype=np.int64)
        unique, inverse = np.unique(batch, return_inverse=True)
        inverse = inverse.reshape(batch.shape)
        embeddings = self.encoder.encode_batch([prepared[int(index)] for index in unique])
        embeddings_a = embeddings[inverse[:, 0]]
        embeddings_b = embeddings[inverse[:, 1]]
        if self.plugin is None:
            return euclidean_distance(embeddings_a, embeddings_b, axis=-1)
        factors_a = factors_b = None
        if self.plugin.fusion is not None:
            v_lo, v_eu = self.plugin.fusion.factors_batch(
                [point_sequences[int(index)] for index in unique])
            factors_a = (v_lo[inverse[:, 0]], v_eu[inverse[:, 0]])
            factors_b = (v_lo[inverse[:, 1]], v_eu[inverse[:, 1]])
        return self.plugin.pair_distances_from(embeddings_a, embeddings_b,
                                               factors_a, factors_b)

    # ---------------------------------------------------------------------- fit
    def fit(self, dataset: TrajectoryDataset, target_matrix: np.ndarray, epochs: int = 5,
            eval_fn: Callable[[], dict] | None = None, early_stopping: EarlyStopping | None = None,
            verbose: bool = False) -> TrainingHistory:
        """Train for ``epochs`` epochs against ``target_matrix``.

        ``eval_fn`` (no arguments, returns a metrics dict) is invoked after every
        epoch and recorded in the history — used by the robustness and scalability
        experiments to trace accuracy curves.
        """
        if self.optimizer is None:
            raise RuntimeError("the model has no trainable parameters")
        target_matrix = np.asarray(target_matrix, dtype=np.float64)
        if target_matrix.ndim != 2 or target_matrix.shape[0] != target_matrix.shape[1]:
            raise ValueError(
                f"target_matrix must be a square 2-D distance matrix, got shape "
                f"{target_matrix.shape}")
        if len(target_matrix) != len(dataset):
            raise ValueError(
                f"target_matrix is {len(target_matrix)}x{len(target_matrix)} but the "
                f"dataset holds {len(dataset)} trajectories; pass the matrix computed "
                f"over exactly this dataset")
        prepared = self.encoder.prepare_dataset(dataset)
        point_sequences = self._point_sequences(dataset)
        sampler = PairSampler(target_matrix, self.num_nearest, self.num_random,
                              seed=self.seed)

        # Epoch phase timings are gated on REPRO_OBS: when off, the loop pays
        # one boolean check per segment and no clock reads.
        observing = obs_enabled()
        for epoch in range(1, epochs + 1):
            epoch_start = time.perf_counter() if observing else 0.0
            encode_seconds = loss_seconds = step_seconds = 0.0
            pairs = sampler.epoch_pairs()
            epoch_loss = 0.0
            num_batches = 0
            mark = 0.0
            for start in range(0, len(pairs), self.batch_size):
                batch = pairs[start:start + self.batch_size]
                if observing:
                    mark = time.perf_counter()
                predicted = self._predictions(batch, prepared, point_sequences)
                if observing:
                    now = time.perf_counter()
                    encode_seconds += now - mark
                    mark = now
                loss = self.loss_fn(predicted, Tensor(sampler.targets_of(batch)))
                if observing:
                    now = time.perf_counter()
                    loss_seconds += now - mark
                    mark = now
                self.optimizer.zero_grad()
                loss.backward()
                if self.clip_norm:
                    clip_grad_norm(self.optimizer.parameters, self.clip_norm)
                self.optimizer.step()
                if observing:
                    # The "step" segment covers the whole backward-and-update
                    # half: zero_grad, backward, clipping and the Adam step.
                    step_seconds += time.perf_counter() - mark
                epoch_loss += float(loss.data)
                num_batches += 1
            mean_loss = epoch_loss / max(num_batches, 1)
            metrics = eval_fn() if eval_fn is not None else None
            if observing:
                epoch_seconds = time.perf_counter() - epoch_start
                histogram("train.epoch_seconds").observe(epoch_seconds)
                histogram("train.encode_seconds").observe(encode_seconds)
                histogram("train.loss_seconds").observe(loss_seconds)
                histogram("train.step_seconds").observe(step_seconds)
                metrics = dict(metrics or {})
                metrics.update(epoch_seconds=epoch_seconds,
                               encode_seconds=encode_seconds,
                               loss_seconds=loss_seconds,
                               step_seconds=step_seconds)
            self.history.record(epoch, mean_loss, metrics)
            if verbose:
                print(f"epoch {epoch}: loss={mean_loss:.4f}"
                      + (f" metrics={metrics}" if metrics else ""))
            if early_stopping is not None and early_stopping.update(mean_loss):
                break
        return self.history

    # --------------------------------------------------------------- inference
    def embed(self, dataset: TrajectoryDataset) -> np.ndarray:
        """Euclidean embeddings of a dataset using the (trained) base encoder."""
        return self.encoder.embed_dataset(dataset)

    def model_distance_matrix(self, dataset: TrajectoryDataset,
                              embeddings: np.ndarray | None = None) -> np.ndarray:
        """All-pairs model distances for a dataset (plugin-aware).

        Without the plugin this is the Euclidean distance between embeddings; with the
        plugin it is the fused (or pure Lorentz) distance, computed with the fast
        NumPy path.
        """
        embeddings = embeddings if embeddings is not None else self.embed(dataset)
        if self.plugin is None:
            difference = embeddings[:, None, :] - embeddings[None, :, :]
            return np.sqrt((difference ** 2).sum(axis=-1))
        point_sequences = self._point_sequences(dataset)
        database = self.plugin.embed_database(embeddings, point_sequences)
        return self.plugin.distance_matrix(database)
