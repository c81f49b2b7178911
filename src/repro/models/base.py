"""The trajectory-encoder interface and a registry of the paper's base models.

Every base model maps a trajectory to a Euclidean embedding.  The LH-plugin is
model-agnostic, so the only contract an encoder must satisfy is:

* ``prepare(trajectory)`` — convert a :class:`~repro.data.Trajectory` into the
  model-specific input (grid features, graph, token sequence, ...).  Preparation is
  NumPy-only and cacheable.
* ``encode_batch(prepared_list)`` — the one differentiable forward pass: a
  padded, mask-aware sweep over a ragged batch, returning a ``(B,
  embedding_dim)`` tensor.  A single trajectory is a one-item batch; row ``i``
  of a ``B``-item batch must equal the one-item batch of item ``i`` within 1e-9,
  in values and parameter gradients (pinned by ``tests/test_batch_parity.py``).

Models also expose a ``build`` classmethod that performs any dataset-level
preprocessing they need (fitting a grid, a quadtree, a spatio-temporal grid).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..data import Normalizer, Trajectory, TrajectoryDataset
from ..nn import Module, Tensor, no_grad

__all__ = ["TrajectoryEncoder", "register_model", "get_model", "available_models"]

_MODEL_REGISTRY: dict[str, Callable] = {}


class TrajectoryEncoder(Module):
    """Base class for trajectory embedding models."""

    def __init__(self, embedding_dim: int):
        super().__init__()
        if embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        self.embedding_dim = embedding_dim

    # ------------------------------------------------------------------ contract
    def prepare(self, trajectory: Trajectory):
        """Model-specific preprocessing of one trajectory (NumPy only)."""
        raise NotImplementedError

    def encode_batch(self, prepared_list: Sequence) -> Tensor:
        """Differentiable ``(B, embedding_dim)`` embeddings of a ragged batch."""
        raise NotImplementedError

    # ----------------------------------------------------------------- utilities
    def prepare_dataset(self, dataset: TrajectoryDataset) -> list:
        """Prepare every trajectory of a dataset."""
        return self.prepare_batch(list(dataset))

    def prepare_batch(self, trajectories) -> list:
        """Prepare a batch of trajectories (the ``encode_batch`` counterpart)."""
        return [self.prepare(trajectory) for trajectory in trajectories]

    def embed_dataset(self, dataset: TrajectoryDataset, prepared: list | None = None,
                      batch_size: int = 64) -> np.ndarray:
        """Embeddings for a whole dataset, computed without autograd overhead.

        Routes through :meth:`encode_batch` in chunks of ``batch_size`` so the
        all-pairs embedding step of evaluation shares the batched forward path.
        """
        prepared = prepared if prepared is not None else self.prepare_dataset(dataset)
        if not prepared:
            return np.zeros((0, self.embedding_dim))
        batch_size = max(int(batch_size), 1)
        blocks = []
        with no_grad():
            for start in range(0, len(prepared), batch_size):
                block = self.encode_batch(prepared[start:start + batch_size])
                blocks.append(block.data.copy())
        return np.concatenate(blocks, axis=0)

    @classmethod
    def build(cls, dataset: TrajectoryDataset, embedding_dim: int = 16,
              seed: int = 0, **kwargs) -> "TrajectoryEncoder":
        """Construct an encoder with any dataset-level preprocessing it needs."""
        raise NotImplementedError

    @staticmethod
    def fit_normalizer(dataset: TrajectoryDataset) -> Normalizer:
        """Convenience used by models that consume normalised coordinates."""
        return Normalizer.fit(dataset)


def register_model(name: str):
    """Decorator registering an encoder class under a model name."""

    def decorator(cls):
        key = name.lower()
        if key in _MODEL_REGISTRY:
            raise KeyError(f"model '{name}' already registered")
        _MODEL_REGISTRY[key] = cls
        return cls

    return decorator


def get_model(name: str):
    """Look up an encoder class by registered name."""
    key = name.lower()
    if key not in _MODEL_REGISTRY:
        raise KeyError(f"unknown model '{name}'; available: {sorted(_MODEL_REGISTRY)}")
    return _MODEL_REGISTRY[key]


def available_models() -> list[str]:
    """Names of all registered encoder models."""
    return sorted(_MODEL_REGISTRY)
