"""The LH-plugin: a model-agnostic hyperbolic add-on for trajectory encoders.

The plugin leaves the base Euclidean encoder untouched (Section III).  Around it, it
adds the two modules of Figure 3:

* **Hyperbolic Projection** — lifts the Euclidean embedding onto the hyperboloid
  ``H(β)`` (cosh projection by default, vanilla for ablations) so the **Lorentz
  distance** can be used;
* **Dynamic Fusion** — blends the Lorentz and Euclidean distances with a per-pair
  learned proportion ``α_Lo``.

Two call paths are exposed: a differentiable pair path over aligned ``(B, d)``
embedding blocks used by the trainer (:meth:`LHPlugin.pair_distances_from`; one
pair is a 1-row block), and a vectorised NumPy path used for retrieval over
pre-embedded databases (:meth:`LHPlugin.distance_matrix`), mirroring how the
paper's efficiency experiment pre-embeds trajectories offline.
"""

from __future__ import annotations

import numpy as np

from ..nn import Module, Tensor, as_tensor, euclidean_distance, no_grad
from .config import LHPluginConfig
from .fusion import DynamicFusion, fuse_distances, lorentz_proportion  # noqa: F401
from .lorentz import lorentz_distance_matrix, lorentz_distance_t  # noqa: F401
from .projection import project, project_t, space_scale, time_like_coordinate

__all__ = ["LHPlugin", "PluggedEncoder"]


class LHPlugin(Module):
    """Model-agnostic Lorentzian-Hyperbolic plugin (the paper's core contribution)."""

    def __init__(self, config: LHPluginConfig | None = None, **config_kwargs):
        super().__init__()
        if config is None:
            config = LHPluginConfig(**config_kwargs)
        elif config_kwargs:
            config = config.with_updates(**config_kwargs)
        self.config = config
        self.fusion = DynamicFusion(config) if config.use_fusion else None

    # ----------------------------------------------------------------- projection
    def project(self, euclidean_embeddings: np.ndarray) -> np.ndarray:
        """Project Euclidean embeddings onto ``H(β)`` (NumPy, batched)."""
        return project(euclidean_embeddings, beta=self.config.beta,
                       c=self.config.compression, method=self.config.projection)

    def project_t(self, euclidean_embedding: Tensor) -> Tensor:
        """Differentiable projection of a single (or batched) embedding."""
        return project_t(euclidean_embedding, beta=self.config.beta,
                         c=self.config.compression, method=self.config.projection)

    # -------------------------------------------------------------- training path
    def pair_distances_from(self, embeddings_a: Tensor, embeddings_b: Tensor,
                            factors_a: tuple[Tensor, Tensor] | None = None,
                            factors_b: tuple[Tensor, Tensor] | None = None) -> Tensor:
        """Differentiable plugin distances for aligned ``(B, d)`` embedding blocks.

        Projection, Lorentz distance, Euclidean distance and the fusion
        proportion all run on whole embedding blocks; ``factors_*`` are the
        ``(V_Lo, V_Eu)`` pairs of ``(B, factor_dim)`` blocks from
        :meth:`DynamicFusion.factors_batch`, needed only when dynamic fusion is
        enabled.  Returns a ``(B,)`` distance tensor.
        """
        embeddings_a = as_tensor(embeddings_a)
        embeddings_b = as_tensor(embeddings_b)
        if embeddings_a.ndim != 2 or embeddings_b.ndim != 2:
            raise ValueError("pair_distances_from expects (B, d) embedding blocks")
        hyperbolic_a = self.project_t(embeddings_a)
        hyperbolic_b = self.project_t(embeddings_b)
        lorentz = lorentz_distance_t(hyperbolic_a, hyperbolic_b, beta=self.config.beta)
        if self.fusion is None:
            return lorentz
        if factors_a is None or factors_b is None:
            raise ValueError("dynamic fusion requires factor vectors for both sides")
        euclidean = euclidean_distance(embeddings_a, embeddings_b, axis=-1)
        alpha = lorentz_proportion(factors_a[0], factors_a[1], factors_b[0], factors_b[1])
        return fuse_distances(lorentz, euclidean, alpha)

    # ------------------------------------------------------------- inference path
    def embed_database(self, euclidean_embeddings: np.ndarray,
                       point_sequences=None) -> dict:
        """Precompute everything retrieval needs for a database of embeddings.

        The hyperbolic projection is stored in its compact form, two scalars per
        embedding: the squared norm ``squared_norm`` (``‖x‖²``) and the space-like
        scale ``space_scale`` (``s``, see :func:`~repro.core.projection.space_scale`).
        The time-like coordinate ``x₀`` is a cheap function of ``‖x‖²`` and is
        derived at query time, so the plugin's memory overhead stays at two floats
        per trajectory; fusion factor vectors are added when dynamic fusion is
        enabled.  This is the "pre-embedding" step of the efficiency experiment: it
        is done once, offline.  The embeddings must be ``(n, d)`` with one point
        sequence per row.
        """
        euclidean_embeddings = np.asarray(euclidean_embeddings, dtype=np.float64)
        if euclidean_embeddings.ndim != 2:
            raise ValueError("embed_database expects (n, d) embeddings, got shape "
                             f"{euclidean_embeddings.shape}")
        if point_sequences is not None:
            point_sequences = list(point_sequences)
            if len(point_sequences) != len(euclidean_embeddings):
                raise ValueError(f"embed_database got {len(point_sequences)} point "
                                 f"sequences for {len(euclidean_embeddings)} embeddings")
        squared_norm = (euclidean_embeddings ** 2).sum(axis=1)
        entry = {
            "euclidean": euclidean_embeddings,
            "squared_norm": squared_norm,
            "space_scale": space_scale(squared_norm, beta=self.config.beta,
                                       c=self.config.compression,
                                       method=self.config.projection),
        }
        if self.fusion is not None:
            if point_sequences is None:
                raise ValueError("dynamic fusion requires the raw point sequences")
            entry["factors"] = self.fusion.factors_numpy(point_sequences)
        return entry

    def _time_like(self, entry: dict) -> np.ndarray:
        """The time-like coordinates ``x₀`` of a pre-embedded entry."""
        return time_like_coordinate(entry["squared_norm"], beta=self.config.beta,
                                    c=self.config.compression,
                                    method=self.config.projection)

    def distance_matrix(self, query_db: dict, database_db: dict | None = None) -> np.ndarray:
        """All-pairs plugin distances between two pre-embedded databases (NumPy).

        The Lorentz Gram matrix is rebuilt from the shared Euclidean Gram matrix
        ``G`` and the stored scalars as ``s_q·s_d·G − x₀_q·x₀_d`` (``x₀`` derived
        from ``‖x‖²``), and the Euclidean distance as ``sqrt(‖q‖² + ‖d‖² − 2G)``, so
        the plugin adds only element-wise work on top of the matrix product the
        Euclidean path needs anyway.  That work runs in place over ``G``, the
        result, one scratch array and ``α``, in the operation order of the plain
        expressions, so the values are bit for bit those of the expressions
        written out.
        """
        database_db = query_db if database_db is None else database_db
        if self.fusion is not None and not ("factors" in query_db
                                            and "factors" in database_db):
            raise ValueError("a fusion plugin needs the 'factors' key in both entries; "
                             "embed them with a fusion plugin and the point sequences")
        gram = query_db["euclidean"] @ database_db["euclidean"].T
        query_time = self._time_like(query_db)
        database_time = (query_time if database_db is query_db
                         else self._time_like(database_db))
        # Lorentz: |s_q·s_d·G − x₀_q·x₀_d| − β.
        lorentz = np.multiply.outer(query_db["space_scale"], database_db["space_scale"])
        lorentz *= gram
        scratch = np.multiply.outer(query_time, database_time)
        lorentz -= scratch
        np.abs(lorentz, out=lorentz)
        lorentz -= self.config.beta
        if self.fusion is None:
            return lorentz
        # Euclidean: sqrt(max(‖q‖² + ‖d‖² − 2G, 0)), left in ``scratch``.
        np.add.outer(query_db["squared_norm"], database_db["squared_norm"], out=scratch)
        gram *= 2.0
        scratch -= gram
        del gram
        np.maximum(scratch, 0.0, out=scratch)
        np.sqrt(scratch, out=scratch)
        # Fusion: α·L + (1 − α)·E.
        alpha = DynamicFusion.alpha_matrix(query_db["factors"], database_db["factors"])
        lorentz *= alpha
        np.subtract(1.0, alpha, out=alpha)
        alpha *= scratch
        lorentz += alpha
        return lorentz


class PluggedEncoder(Module):
    """A base trajectory encoder with an :class:`LHPlugin` attached.

    This is the integration layer the paper calls "plug-and-play": the base encoder's
    architecture, preprocessing and parameters are reused as-is; the plugin only adds
    its projection (parameter-free) and, optionally, the fusion factor encoder.
    """

    def __init__(self, base_encoder: Module, plugin: LHPlugin):
        super().__init__()
        self.base_encoder = base_encoder
        self.plugin = plugin

    @property
    def embedding_dim(self) -> int:
        return self.base_encoder.embedding_dim

    def prepare(self, trajectory):
        """Delegate input preparation to the base encoder."""
        return self.base_encoder.prepare(trajectory)

    def prepare_batch(self, trajectories):
        """Delegate batch preparation to the base encoder."""
        return self.base_encoder.prepare_batch(trajectories)

    def encode_batch(self, prepared_list) -> Tensor:
        """Batched Euclidean embeddings from the (unchanged) base encoder."""
        return self.base_encoder.encode_batch(prepared_list)

    def embed_many(self, prepared_list, batch_size: int = 64) -> np.ndarray:
        """Euclidean embeddings for many trajectories without autograd overhead.

        Chunks through the base encoder's mask-aware ``encode_batch`` so the
        pre-embedding step scales with batch width rather than Python loop count.
        """
        prepared_list = list(prepared_list)
        if not prepared_list:
            return np.zeros((0, self.embedding_dim))
        batch_size = max(int(batch_size), 1)
        blocks = []
        with no_grad():
            for start in range(0, len(prepared_list), batch_size):
                block = self.encode_batch(prepared_list[start:start + batch_size])
                blocks.append(block.data.copy())
        return np.concatenate(blocks, axis=0)
