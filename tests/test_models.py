"""Unit tests for the base trajectory encoder models."""

import numpy as np
import pytest

from repro.data import generate_dataset
from repro.models import (
    MeanPoolEncoder,
    NeutrajEncoder,
    ST2VecEncoder,
    Traj2SimVecEncoder,
    TrajGATEncoder,
    TedjEncoder,
    TrajectoryEncoder,
    available_models,
    get_model,
)
from repro.nn import no_grad

SPATIAL_MODELS = [MeanPoolEncoder, NeutrajEncoder, TrajGATEncoder, Traj2SimVecEncoder]
TEMPORAL_MODELS = [ST2VecEncoder, TedjEncoder]


@pytest.fixture(scope="module")
def spatial_dataset():
    return generate_dataset("chengdu", size=12, seed=0)


@pytest.fixture(scope="module")
def temporal_dataset():
    return generate_dataset("tdrive", size=12, seed=0)


class TestRegistry:
    def test_all_models_registered(self):
        names = available_models()
        for expected in ("meanpool", "neutraj", "trajgat", "traj2simvec", "st2vec", "tedj"):
            assert expected in names

    def test_get_model(self):
        assert get_model("neutraj") is NeutrajEncoder
        assert get_model("NEUTRAJ") is NeutrajEncoder

    def test_get_model_unknown(self):
        with pytest.raises(KeyError):
            get_model("bert")

    def test_base_class_contract(self):
        encoder = TrajectoryEncoder(embedding_dim=4)
        with pytest.raises(NotImplementedError):
            encoder.prepare(None)
        with pytest.raises(NotImplementedError):
            encoder.encode_batch([None])
        with pytest.raises(ValueError):
            TrajectoryEncoder(embedding_dim=0)


class TestSpatialModels:
    @pytest.mark.parametrize("encoder_cls", SPATIAL_MODELS)
    def test_build_and_encode_shape(self, encoder_cls, spatial_dataset):
        encoder = encoder_cls.build(spatial_dataset, embedding_dim=8, seed=0)
        prepared = encoder.prepare(spatial_dataset[0])
        embedding = encoder.encode_batch([prepared])
        assert embedding.shape == (1, 8)
        assert np.isfinite(embedding.data).all()

    @pytest.mark.parametrize("encoder_cls", SPATIAL_MODELS)
    def test_deterministic_given_seed(self, encoder_cls, spatial_dataset):
        first = encoder_cls.build(spatial_dataset, embedding_dim=8, seed=3)
        second = encoder_cls.build(spatial_dataset, embedding_dim=8, seed=3)
        with no_grad():
            a = first.encode_batch([first.prepare(spatial_dataset[1])]).data
            b = second.encode_batch([second.prepare(spatial_dataset[1])]).data
        np.testing.assert_allclose(a, b)

    @pytest.mark.parametrize("encoder_cls", SPATIAL_MODELS)
    def test_different_trajectories_differ(self, encoder_cls, spatial_dataset):
        encoder = encoder_cls.build(spatial_dataset, embedding_dim=8, seed=0)
        with no_grad():
            a, b = encoder.encode_batch(encoder.prepare_batch(spatial_dataset[:2])).data
        assert not np.allclose(a, b)

    @pytest.mark.parametrize("encoder_cls", SPATIAL_MODELS)
    def test_gradients_reach_parameters(self, encoder_cls, spatial_dataset):
        encoder = encoder_cls.build(spatial_dataset, embedding_dim=8, seed=0)
        embedding = encoder.encode_batch([encoder.prepare(spatial_dataset[0])])
        (embedding * embedding).sum().backward()
        grads = [p.grad is not None for p in encoder.parameters()]
        assert any(grads)

    @pytest.mark.parametrize("encoder_cls", SPATIAL_MODELS)
    def test_embed_dataset_shape(self, encoder_cls, spatial_dataset):
        encoder = encoder_cls.build(spatial_dataset, embedding_dim=8, seed=0)
        embeddings = encoder.embed_dataset(spatial_dataset)
        assert embeddings.shape == (len(spatial_dataset), 8)


class TestModelSpecificBehaviour:
    def test_neutraj_prepare_features(self, spatial_dataset):
        encoder = NeutrajEncoder.build(spatial_dataset, embedding_dim=8, grid_size=8)
        features = encoder.prepare(spatial_dataset[0])
        assert features.shape == (len(spatial_dataset[0]), 6)
        assert np.isfinite(features).all()

    def test_trajgat_prepare_is_graph(self, spatial_dataset):
        encoder = TrajGATEncoder.build(spatial_dataset, embedding_dim=8)
        features, adjacency = encoder.prepare(spatial_dataset[0])
        assert features.shape[0] == adjacency.shape[0]
        assert adjacency.dtype == bool

    def test_traj2simvec_prefixes(self, spatial_dataset):
        encoder = Traj2SimVecEncoder.build(spatial_dataset, embedding_dim=8, num_splits=3)
        prepared = encoder.prepare(spatial_dataset[0])
        full, prefixes = encoder.encode_batch_with_prefixes([prepared])
        assert full.shape == (1, 8)
        assert len(prefixes) == 3
        assert all(prefix.shape == (1, 8) for prefix in prefixes)
        lengths = encoder.prefix_lengths(prepared)
        assert lengths == sorted(lengths)
        assert lengths[-1] <= len(prepared)

    def test_st2vec_requires_time(self, spatial_dataset):
        with pytest.raises(ValueError):
            ST2VecEncoder.build(spatial_dataset, embedding_dim=8)

    def test_tedj_requires_time(self, spatial_dataset):
        with pytest.raises(ValueError):
            TedjEncoder.build(spatial_dataset, embedding_dim=8)


class TestTemporalModels:
    @pytest.mark.parametrize("encoder_cls", TEMPORAL_MODELS)
    def test_build_and_encode_shape(self, encoder_cls, temporal_dataset):
        encoder = encoder_cls.build(temporal_dataset, embedding_dim=8, seed=0)
        embedding = encoder.encode_batch([encoder.prepare(temporal_dataset[0])])
        assert embedding.shape == (1, 8)
        assert np.isfinite(embedding.data).all()

    @pytest.mark.parametrize("encoder_cls", TEMPORAL_MODELS)
    def test_rejects_spatial_only_trajectory(self, encoder_cls, temporal_dataset,
                                             spatial_dataset):
        encoder = encoder_cls.build(temporal_dataset, embedding_dim=8, seed=0)
        with pytest.raises(ValueError):
            encoder.prepare(spatial_dataset[0])

    def test_st2vec_prepare_streams(self, temporal_dataset):
        encoder = ST2VecEncoder.build(temporal_dataset, embedding_dim=8)
        spatial, temporal = encoder.prepare(temporal_dataset[0])
        assert spatial.shape[1] == 2
        assert temporal.shape[1] == 2
        assert spatial.shape[0] == temporal.shape[0]

    def test_tedj_tokens_within_vocabulary(self, temporal_dataset):
        encoder = TedjEncoder.build(temporal_dataset, embedding_dim=8, grid_size=6,
                                    num_time_bins=6)
        tokens, continuous = encoder.prepare(temporal_dataset[0])
        assert tokens.max() < encoder.st_grid.num_cells
        assert continuous.shape == (len(tokens), 3)
