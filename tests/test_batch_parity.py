"""Parity suite for the mask-aware batched learning stack.

The contract: every batched forward (``encode_batch``, the batched plugin
distances, the batched training step) must reproduce its per-sample reference
within 1e-9 on ragged-length batches — padding must never leak into values or
gradients.  These tests pin that contract for all six encoders, the Traj2SimVec
prefix path, the LH-plugin distance paths and full plugin-attached training
steps.
"""

import numpy as np
import pytest

from repro.config import EnvError
from repro.core import LHPlugin, LHPluginConfig
from repro.data import generate_dataset
from repro.distances import normalize_matrix, pairwise_distance_matrix
from repro.models import get_model
from repro.nn import (
    GRU,
    LSTM,
    Tensor,
    masked_mean,
    no_grad,
    pad_sequences,
    pad_token_sequences,
)
from repro.training import PairSampler, SimilarityTrainer, default_train_batched

TOLERANCE = 1e-9

SPATIAL_MODELS = ["meanpool", "neutraj", "trajgat", "traj2simvec"]
TEMPORAL_MODELS = ["st2vec", "tedj"]


@pytest.fixture(scope="module")
def spatial_dataset():
    return generate_dataset("chengdu", size=10, seed=0)


@pytest.fixture(scope="module")
def temporal_dataset():
    return generate_dataset("tdrive", size=10, seed=0)


@pytest.fixture(scope="module")
def spatial_truth(spatial_dataset):
    matrix = pairwise_distance_matrix(
        spatial_dataset.point_arrays(spatial_only=True), "dtw")
    return normalize_matrix(matrix, method="mean")


def _dataset_for(name, spatial_dataset, temporal_dataset):
    return temporal_dataset if name in TEMPORAL_MODELS else spatial_dataset


# ------------------------------------------------------------ padding helpers
class TestPaddingHelpers:
    def test_pad_sequences_shapes_and_mask(self):
        rng = np.random.default_rng(0)
        sequences = [rng.normal(size=(t, 3)) for t in (4, 1, 6)]
        padded, mask = pad_sequences(sequences)
        assert padded.shape == (3, 6, 3)
        assert mask.shape == (3, 6)
        for row, sequence in enumerate(sequences):
            np.testing.assert_array_equal(padded[row, :len(sequence)], sequence)
            assert mask[row].sum() == len(sequence)
            assert np.all(padded[row, len(sequence):] == 0.0)

    def test_pad_sequences_validation(self):
        with pytest.raises(ValueError):
            pad_sequences([])
        with pytest.raises(ValueError):
            pad_sequences([np.zeros((0, 2))])
        with pytest.raises(ValueError):
            pad_sequences([np.zeros((2, 2)), np.zeros((2, 3))])

    def test_pad_token_sequences(self):
        padded, mask = pad_token_sequences([np.array([3, 1]), np.array([2])])
        np.testing.assert_array_equal(padded, [[3, 1], [2, 0]])
        np.testing.assert_array_equal(mask, [[1.0, 1.0], [1.0, 0.0]])

    def test_masked_mean_matches_per_row_mean(self):
        rng = np.random.default_rng(1)
        sequences = [rng.normal(size=(t, 4)) for t in (5, 2, 7)]
        padded, mask = pad_sequences(sequences)
        pooled = masked_mean(Tensor(padded), mask)
        for row, sequence in enumerate(sequences):
            np.testing.assert_allclose(pooled.data[row], sequence.mean(axis=0),
                                       atol=TOLERANCE)


# ------------------------------------------------------------- masked RNN core
class TestMaskedRecurrence:
    @pytest.mark.parametrize("cls", [LSTM, GRU])
    def test_final_state_matches_per_sample(self, cls):
        rng = np.random.default_rng(2)
        net = cls(3, 5, rng=np.random.default_rng(3))
        sequences = [rng.normal(size=(t, 3)) for t in (6, 1, 3, 9)]
        padded, mask = pad_sequences(sequences)
        _, state = net(Tensor(padded), return_sequence=False, mask=mask)
        final = state[0] if isinstance(state, tuple) else state
        for row, sequence in enumerate(sequences):
            _, single = net(Tensor(sequence), return_sequence=False)
            single_final = single[0] if isinstance(single, tuple) else single
            np.testing.assert_allclose(final.data[row], single_final.data,
                                       atol=TOLERANCE)

    def test_padding_gets_zero_gradient(self):
        rng = np.random.default_rng(4)
        sequences = [rng.normal(size=(t, 3)) for t in (5, 2)]
        padded, mask = pad_sequences(sequences)
        x = Tensor(padded, requires_grad=True)
        net = GRU(3, 4, rng=np.random.default_rng(5))
        _, hidden = net(x, return_sequence=False, mask=mask)
        (hidden * hidden).sum().backward()
        for row, sequence in enumerate(sequences):
            assert np.all(x.grad[row, len(sequence):] == 0.0)
            assert np.any(x.grad[row, :len(sequence)] != 0.0)

    def test_mask_shape_validated(self):
        net = GRU(2, 3)
        with pytest.raises(ValueError):
            net(Tensor(np.zeros((2, 4, 2))), mask=np.ones((2, 5)))


# ----------------------------------------------------------- encoder parity
class TestEncoderParity:
    @pytest.mark.parametrize("name", SPATIAL_MODELS + TEMPORAL_MODELS)
    def test_encode_batch_matches_encode(self, name, spatial_dataset, temporal_dataset):
        dataset = _dataset_for(name, spatial_dataset, temporal_dataset)
        encoder = get_model(name).build(dataset, embedding_dim=8, seed=0)
        prepared = encoder.prepare_dataset(dataset)
        with no_grad():
            batch = encoder.encode_batch(prepared)
            singles = np.stack([encoder.encode(item).data for item in prepared])
        assert batch.shape == (len(dataset), 8)
        np.testing.assert_allclose(batch.data, singles, atol=TOLERANCE)

    @pytest.mark.parametrize("name", SPATIAL_MODELS + TEMPORAL_MODELS)
    def test_singleton_batch(self, name, spatial_dataset, temporal_dataset):
        dataset = _dataset_for(name, spatial_dataset, temporal_dataset)
        encoder = get_model(name).build(dataset, embedding_dim=8, seed=0)
        prepared = encoder.prepare(dataset[3])
        with no_grad():
            batch = encoder.encode_batch([prepared])
            single = encoder.encode(prepared)
        np.testing.assert_allclose(batch.data[0], single.data, atol=TOLERANCE)

    @pytest.mark.parametrize("name", SPATIAL_MODELS + TEMPORAL_MODELS)
    def test_encode_batch_rejects_empty(self, name, spatial_dataset, temporal_dataset):
        dataset = _dataset_for(name, spatial_dataset, temporal_dataset)
        encoder = get_model(name).build(dataset, embedding_dim=8, seed=0)
        with pytest.raises(ValueError):
            encoder.encode_batch([])

    def test_gradients_match_per_sample(self, spatial_dataset):
        """Batched backward accumulates the same parameter gradients."""
        encoder = get_model("neutraj").build(spatial_dataset, embedding_dim=8, seed=0)
        prepared = encoder.prepare_dataset(spatial_dataset)[:4]

        batch = encoder.encode_batch(prepared)
        (batch * batch).sum().backward()
        batched_grads = {name: param.grad.copy()
                         for name, param in encoder.named_parameters()}
        encoder.zero_grad()

        for item in prepared:
            embedding = encoder.encode(item)
            (embedding * embedding).sum().backward()
        for name, param in encoder.named_parameters():
            np.testing.assert_allclose(batched_grads[name], param.grad,
                                       atol=TOLERANCE, err_msg=name)

    def test_embed_dataset_matches_per_sample_encode(self, spatial_dataset):
        encoder = get_model("traj2simvec").build(spatial_dataset, embedding_dim=8, seed=0)
        embeddings = encoder.embed_dataset(spatial_dataset, batch_size=4)
        prepared = encoder.prepare_dataset(spatial_dataset)
        with no_grad():
            singles = np.stack([encoder.encode(item).data for item in prepared])
        np.testing.assert_allclose(embeddings, singles, atol=TOLERANCE)

    def test_prepare_batch_matches_prepare(self, spatial_dataset):
        encoder = get_model("meanpool").build(spatial_dataset, embedding_dim=8, seed=0)
        batch = encoder.prepare_batch(list(spatial_dataset))
        for prepared, trajectory in zip(batch, spatial_dataset):
            np.testing.assert_array_equal(prepared, encoder.prepare(trajectory))


class TestTraj2SimVecPrefixParity:
    def test_batched_prefixes_match_per_sample(self, spatial_dataset):
        encoder = get_model("traj2simvec").build(spatial_dataset, embedding_dim=8,
                                                 seed=0, num_splits=3)
        prepared = encoder.prepare_dataset(spatial_dataset)
        with no_grad():
            full_batch, prefix_batch = encoder.encode_batch_with_prefixes(prepared)
            assert len(prefix_batch) == 3
            for row, item in enumerate(prepared):
                full, prefixes = encoder.encode_with_prefixes(item)
                np.testing.assert_allclose(full_batch.data[row], full.data,
                                           atol=TOLERANCE)
                for split in range(3):
                    np.testing.assert_allclose(prefix_batch[split].data[row],
                                               prefixes[split].data,
                                               atol=TOLERANCE, err_msg=f"split {split}")


# ------------------------------------------------------------- plugin parity
class TestPluginBatchParity:
    @pytest.mark.parametrize("config_kwargs", [
        {"use_fusion": False},
        {"use_fusion": False, "projection": "vanilla"},
        {"factor_dim": 4, "fusion_hidden": 8},
        {"factor_dim": 4, "fusion_hidden": 8, "fusion_encoder": "mean"},
    ])
    def test_pair_distances_match_per_pair(self, config_kwargs):
        rng = np.random.default_rng(6)
        plugin = LHPlugin(LHPluginConfig(**config_kwargs))
        count, dim = 6, 5
        block_a = rng.normal(size=(count, dim))
        block_b = rng.normal(size=(count, dim))
        sequences_a = [rng.random((t, 2)) for t in (3, 1, 5, 2, 8, 4)]
        sequences_b = [rng.random((t, 2)) for t in (2, 6, 1, 4, 3, 7)]
        with no_grad():
            if plugin.fusion is None:
                batched = plugin.pair_distances_from(Tensor(block_a), Tensor(block_b))
                singles = [plugin.pair_distance(Tensor(block_a[i]),
                                                Tensor(block_b[i])).item()
                           for i in range(count)]
            else:
                factors_a = plugin.fusion.factors_batch(sequences_a)
                factors_b = plugin.fusion.factors_batch(sequences_b)
                batched = plugin.pair_distances_from(Tensor(block_a), Tensor(block_b),
                                                     factors_a, factors_b)
                singles = [plugin.pair_distance(Tensor(block_a[i]), Tensor(block_b[i]),
                                                sequences_a[i], sequences_b[i]).item()
                           for i in range(count)]
        np.testing.assert_allclose(batched.data, singles, atol=TOLERANCE)

    def test_pair_distances_requires_blocks(self):
        plugin = LHPlugin(LHPluginConfig(use_fusion=False))
        with pytest.raises(ValueError):
            plugin.pair_distances_from(Tensor(np.zeros(4)), Tensor(np.zeros(4)))

    def test_pair_distances_requires_factors_with_fusion(self):
        plugin = LHPlugin(LHPluginConfig(factor_dim=2, fusion_hidden=4))
        with pytest.raises(ValueError):
            plugin.pair_distances_from(Tensor(np.zeros((2, 4))),
                                       Tensor(np.zeros((2, 4))))

    def test_factors_numpy_matches_batch_and_single(self):
        rng = np.random.default_rng(7)
        plugin = LHPlugin(LHPluginConfig(factor_dim=3, fusion_hidden=6))
        sequences = [rng.random((t, 2)) for t in (4, 1, 7, 3)]
        lorentz, euclid = plugin.fusion.factors_numpy(sequences, batch_size=2)
        assert lorentz.shape == (4, 3) and euclid.shape == (4, 3)
        with no_grad():
            for row, sequence in enumerate(sequences):
                v_lo, v_eu = plugin.fusion.factors(sequence)
                np.testing.assert_allclose(lorentz[row], v_lo.data, atol=TOLERANCE)
                np.testing.assert_allclose(euclid[row], v_eu.data, atol=TOLERANCE)


# ----------------------------------------------------------- training parity
class TestTrainingStepParity:
    def _losses(self, dataset, truth, model, plugin_config, batched, epochs=2):
        encoder = get_model(model).build(dataset, embedding_dim=8, seed=0)
        plugin = LHPlugin(plugin_config) if plugin_config is not None else None
        trainer = SimilarityTrainer(encoder, plugin=plugin, seed=0, batched=batched)
        return trainer.fit(dataset, truth, epochs=epochs).losses

    @pytest.mark.parametrize("model,plugin_config", [
        ("meanpool", None),
        ("meanpool", LHPluginConfig(factor_dim=4, fusion_hidden=8)),
        ("neutraj", LHPluginConfig(use_fusion=False)),
        ("neutraj", LHPluginConfig(factor_dim=4, fusion_hidden=8)),
    ])
    def test_batched_training_follows_per_sample_losses(self, spatial_dataset,
                                                        spatial_truth, model,
                                                        plugin_config):
        batched = self._losses(spatial_dataset, spatial_truth, model,
                               plugin_config, batched=True)
        reference = self._losses(spatial_dataset, spatial_truth, model,
                                 plugin_config, batched=False)
        np.testing.assert_allclose(batched, reference, rtol=1e-7, atol=TOLERANCE)

    def test_env_toggle_controls_default(self, monkeypatch, spatial_dataset):
        encoder = get_model("meanpool").build(spatial_dataset, embedding_dim=8, seed=0)
        monkeypatch.setenv("REPRO_TRAIN_BATCHED", "0")
        assert not SimilarityTrainer(encoder).batched
        monkeypatch.setenv("REPRO_TRAIN_BATCHED", "1")
        assert SimilarityTrainer(encoder).batched
        assert not SimilarityTrainer(encoder, batched=False).batched

    def test_env_toggle_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRAIN_BATCHED", "garbage")
        with pytest.raises(EnvError, match="REPRO_TRAIN_BATCHED"):
            default_train_batched()

    def test_epoch_pairs_is_index_array(self, spatial_truth):
        sampler = PairSampler(spatial_truth, num_nearest=2, num_random=1, seed=0)
        pairs = sampler.epoch_pairs()
        assert isinstance(pairs, np.ndarray)
        assert pairs.dtype == np.int64
        assert pairs.ndim == 2 and pairs.shape[1] == 2
        np.testing.assert_allclose(sampler.targets_of(pairs),
                                   [spatial_truth[i, j] for i, j in pairs])

    def test_non_square_target_matrix_rejected_up_front(self, spatial_dataset,
                                                        spatial_truth):
        encoder = get_model("meanpool").build(spatial_dataset, embedding_dim=8, seed=0)
        trainer = SimilarityTrainer(encoder, seed=0)
        with pytest.raises(ValueError, match="square"):
            trainer.fit(spatial_dataset, spatial_truth[:, :4], epochs=1)
        with pytest.raises(ValueError, match="holds 10 trajectories"):
            trainer.fit(spatial_dataset, spatial_truth[:4, :4], epochs=1)
