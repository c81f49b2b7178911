"""Unit tests for the dynamic fusion module, the plugin config and the LHPlugin."""

import numpy as np
import pytest

from repro.core import (
    DynamicFusion,
    FactorEncoder,
    LHPlugin,
    LHPluginConfig,
    PluggedEncoder,
    fuse_distances,
    lorentz_proportion,
    projection_scalars,
)
from repro.core.projection import time_like_coordinate
from repro.data import generate_dataset
from repro.models import MeanPoolEncoder
from repro.nn import Tensor, pad_sequences


def _one_item(points):
    """A single point sequence as a one-item padded batch and its mask."""
    padded, mask = pad_sequences([points])
    return Tensor(padded), mask


def _alpha(fusion, points_a, points_b):
    """``α_Lo`` of one pair from one-item factor batches (a 1-element tensor)."""
    return lorentz_proportion(*fusion.factors_batch([points_a]),
                              *fusion.factors_batch([points_b]))


class TestConfig:
    def test_defaults_match_paper(self):
        config = LHPluginConfig()
        assert config.beta == 1.0
        assert config.compression == 4.0
        assert config.projection == "cosh"
        assert config.use_fusion is True

    @pytest.mark.parametrize("kwargs", [
        {"beta": 0.0}, {"compression": -1.0}, {"projection": "poincare"},
        {"fusion_encoder": "transformer"}, {"factor_dim": 0}, {"point_features": 4},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LHPluginConfig(**kwargs)

    def test_with_updates(self):
        config = LHPluginConfig().with_updates(beta=2.0)
        assert config.beta == 2.0
        assert config.compression == 4.0

    def test_ablation_variants(self):
        vanilla = LHPluginConfig.ablation_variant("lh-vanilla")
        assert vanilla.projection == "vanilla" and not vanilla.use_fusion
        cosh = LHPluginConfig.ablation_variant("lh-cosh")
        assert cosh.projection == "cosh" and not cosh.use_fusion
        fusion = LHPluginConfig.ablation_variant("fusion-dist")
        assert fusion.use_fusion

    def test_ablation_unknown(self):
        with pytest.raises(KeyError):
            LHPluginConfig.ablation_variant("original")


class TestFactorEncoderAndFusion:
    def test_factor_vectors_positive(self):
        encoder = FactorEncoder(LHPluginConfig(factor_dim=4, fusion_hidden=8))
        v_lo, v_eu = encoder(*_one_item(np.random.default_rng(0).random((10, 2))))
        assert (v_lo.data > 0).all()
        assert (v_eu.data > 0).all()
        assert v_lo.shape == (1, 4) and v_eu.shape == (1, 4)

    def test_mean_encoder_variant(self):
        encoder = FactorEncoder(LHPluginConfig(factor_dim=4, fusion_encoder="mean"))
        v_lo, v_eu = encoder(*_one_item(np.random.default_rng(0).random((10, 2))))
        assert v_lo.shape == (1, 4) and v_eu.shape == (1, 4)

    def test_rejects_non_sequence_input(self):
        encoder = FactorEncoder(LHPluginConfig())
        with pytest.raises(ValueError):
            encoder(np.ones((4, 2)), np.ones(4))

    def test_lorentz_proportion_in_unit_interval(self):
        rng = np.random.default_rng(1)
        encoder = FactorEncoder(LHPluginConfig(factor_dim=4, fusion_hidden=8))
        alpha = lorentz_proportion(*encoder(*_one_item(rng.random((8, 2)))),
                                   *encoder(*_one_item(rng.random((12, 2)))))
        assert alpha.shape == (1,)
        assert 0.0 < alpha.data[0] < 1.0

    def test_fuse_distances_blend(self):
        fused = fuse_distances(Tensor(2.0), Tensor(4.0), Tensor(0.25))
        assert fused.item() == pytest.approx(0.25 * 2.0 + 0.75 * 4.0)

    def test_fusion_alpha_symmetric(self):
        fusion = DynamicFusion(LHPluginConfig(factor_dim=4, fusion_hidden=8))
        rng = np.random.default_rng(2)
        a, b = rng.random((7, 2)), rng.random((9, 2))
        assert _alpha(fusion, a, b).data[0] == pytest.approx(_alpha(fusion, b, a).data[0])

    def test_factors_numpy_matches_tensor_path(self):
        fusion = DynamicFusion(LHPluginConfig(factor_dim=4, fusion_hidden=8))
        sequences = [np.random.default_rng(i).random((6, 2)) for i in range(3)]
        lo, eu = fusion.factors_numpy(sequences)
        v_lo, v_eu = fusion.factors_batch([sequences[1]])
        np.testing.assert_allclose(lo[1], v_lo.data[0], atol=1e-12)
        np.testing.assert_allclose(eu[1], v_eu.data[0], atol=1e-12)

    def test_alpha_matrix_matches_pairwise(self):
        fusion = DynamicFusion(LHPluginConfig(factor_dim=4, fusion_hidden=8))
        sequences = [np.random.default_rng(i).random((6, 2)) for i in range(4)]
        factors = fusion.factors_numpy(sequences)
        matrix = DynamicFusion.alpha_matrix(factors, factors)
        assert matrix.shape == (4, 4)
        assert ((matrix > 0) & (matrix < 1)).all()
        pair = _alpha(fusion, sequences[0], sequences[2]).data[0]
        assert matrix[0, 2] == pytest.approx(pair, abs=1e-10)


class TestLHPlugin:
    def _plugin(self, **kwargs):
        return LHPlugin(LHPluginConfig(factor_dim=4, fusion_hidden=8, **kwargs))

    def test_config_kwargs_constructor(self):
        plugin = LHPlugin(beta=2.0, use_fusion=False)
        assert plugin.config.beta == 2.0
        assert plugin.fusion is None

    def test_pair_distance_differentiable(self):
        plugin = self._plugin()
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(1, 8)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 8)), requires_grad=True)
        distance = plugin.pair_distances_from(
            a, b, plugin.fusion.factors_batch([rng.random((5, 2))]),
            plugin.fusion.factors_batch([rng.random((7, 2))]))
        distance.sum().backward()
        assert a.grad is not None and b.grad is not None
        assert distance.shape == (1,)
        assert distance.data[0] >= 0.0

    def test_pair_distance_requires_points_when_fusion_enabled(self):
        plugin = self._plugin()
        with pytest.raises(ValueError):
            plugin.pair_distances_from(Tensor(np.ones((1, 4))), Tensor(np.ones((1, 4))))

    def test_pure_lorentz_plugin_needs_no_points(self):
        plugin = self._plugin(use_fusion=False)
        distance = plugin.pair_distances_from(Tensor(np.ones((1, 4))),
                                              Tensor(np.zeros((1, 4))))
        assert distance.data[0] > 0.0

    def test_self_distance_zero(self):
        plugin = self._plugin(use_fusion=False)
        embedding = Tensor(np.random.default_rng(1).normal(size=(1, 6)))
        distance = plugin.pair_distances_from(embedding, embedding)
        assert distance.data[0] == pytest.approx(0.0, abs=1e-9)

    def test_embed_database_contents(self):
        plugin = self._plugin()
        rng = np.random.default_rng(2)
        embeddings = rng.normal(size=(5, 6))
        sequences = [rng.random((6, 2)) for _ in range(5)]
        database = plugin.embed_database(embeddings, sequences)
        assert set(database) == {"euclidean", "squared_norm", "space_scale", "factors"}
        assert database["squared_norm"].shape == (5,)
        time_like, scale = projection_scalars(embeddings, beta=plugin.config.beta,
                                              c=plugin.config.compression)
        assert np.array_equal(database["squared_norm"], (embeddings ** 2).sum(axis=1))
        assert np.array_equal(database["space_scale"], scale)
        assert np.array_equal(time_like_coordinate(database["squared_norm"],
                                                   beta=plugin.config.beta,
                                                   c=plugin.config.compression), time_like)

    @pytest.mark.parametrize("embeddings, count", [
        (np.ones((6, 4)), 1), (np.ones((6, 4)), 4), (np.ones(4), 1)])
    def test_embed_database_rejects_mismatched_input(self, embeddings, count):
        sequences = [np.random.default_rng(i).random((5, 2)) for i in range(count)]
        with pytest.raises(ValueError):
            self._plugin().embed_database(embeddings, sequences)

    def test_distance_matrix_names_missing_factors(self):
        embeddings = np.random.default_rng(6).normal(size=(3, 4))
        entry = self._plugin(use_fusion=False).embed_database(embeddings)
        with pytest.raises(ValueError, match="factors"):
            self._plugin().distance_matrix(entry)

    def test_embed_database_requires_sequences_for_fusion(self):
        plugin = self._plugin()
        with pytest.raises(ValueError):
            plugin.embed_database(np.ones((3, 4)))

    def test_distance_matrix_matches_pair_distance(self):
        plugin = self._plugin()
        rng = np.random.default_rng(3)
        embeddings = rng.normal(size=(4, 6))
        sequences = [rng.random((6, 2)) for _ in range(4)]
        database = plugin.embed_database(embeddings, sequences)
        matrix = plugin.distance_matrix(database)
        for i in range(4):
            for j in range(4):
                expected = plugin.pair_distances_from(
                    Tensor(embeddings[i:i + 1]), Tensor(embeddings[j:j + 1]),
                    plugin.fusion.factors_batch([sequences[i]]),
                    plugin.fusion.factors_batch([sequences[j]])).data[0]
                # The training path adds a tiny epsilon inside sqrt/pow for gradient
                # safety, so the two paths agree only up to ~1e-6.
                assert matrix[i, j] == pytest.approx(expected, abs=1e-5)

    def test_distance_matrix_diagonal_zero(self):
        plugin = self._plugin(use_fusion=False)
        embeddings = np.random.default_rng(4).normal(size=(6, 5))
        matrix = plugin.distance_matrix(plugin.embed_database(embeddings))
        np.testing.assert_allclose(np.diag(matrix), np.zeros(6), atol=1e-9)

    def test_vanilla_projection_variant(self):
        plugin = LHPlugin(LHPluginConfig.ablation_variant("lh-vanilla"))
        embeddings = np.random.default_rng(5).normal(size=(4, 5))
        matrix = plugin.distance_matrix(plugin.embed_database(embeddings))
        assert matrix.shape == (4, 4)
        assert (matrix >= -1e-9).all()

    def test_plugin_has_parameters_only_with_fusion(self):
        assert sum(1 for _ in self._plugin().parameters()) > 0
        assert sum(1 for _ in self._plugin(use_fusion=False).parameters()) == 0


class TestPluggedEncoder:
    def test_wraps_base_encoder(self):
        dataset = generate_dataset("chengdu", size=10, seed=0)
        base = MeanPoolEncoder.build(dataset, embedding_dim=8, seed=0)
        plugged = PluggedEncoder(base, LHPlugin(LHPluginConfig(factor_dim=4, fusion_hidden=8)))
        assert plugged.embedding_dim == 8
        prepared = plugged.prepare(dataset[0])
        assert plugged.encode_batch([prepared]).shape == (1, 8)

    def test_pair_distance_and_embed_many(self):
        dataset = generate_dataset("chengdu", size=6, seed=1)
        base = MeanPoolEncoder.build(dataset, embedding_dim=8, seed=0)
        plugin = LHPlugin(LHPluginConfig(use_fusion=False))
        plugged = PluggedEncoder(base, plugin)
        prepared = [plugged.prepare(t) for t in dataset]
        embeddings = plugged.encode_batch(prepared[:2])
        distance = plugin.pair_distances_from(embeddings[:1], embeddings[1:])
        assert distance.shape == (1,)
        assert distance.data[0] >= 0.0
        embeddings = plugged.embed_many(prepared)
        assert embeddings.shape == (6, 8)
