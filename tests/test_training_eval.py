"""Unit tests for sampling, the trainer, callbacks and evaluation metrics."""

import numpy as np
import pytest

from repro.core import LHPlugin, LHPluginConfig
from repro.data import generate_dataset
from repro.distances import normalize_matrix, pairwise_distance_matrix
from repro.eval import (
    database_memory_bytes,
    euclidean_distance_matrix,
    evaluate_retrieval,
    hit_rate,
    ndcg,
    per_query_hit_rate,
    retrieval_latency,
    time_callable,
)
from repro.models import MeanPoolEncoder
from repro.training import (
    EarlyStopping,
    PairSampler,
    SimilarityTrainer,
    TrainingHistory,
    sample_triplets,
)


@pytest.fixture(scope="module")
def small_problem():
    dataset = generate_dataset("chengdu", size=16, seed=0)
    truth = normalize_matrix(
        pairwise_distance_matrix(dataset.point_arrays(spatial_only=True), "dtw"))
    return dataset, truth


class TestPairSampler:
    def _matrix(self, n=8):
        rng = np.random.default_rng(0)
        matrix = rng.random((n, n))
        matrix = (matrix + matrix.T) / 2
        np.fill_diagonal(matrix, 0.0)
        return matrix

    def test_epoch_pairs_cover_every_anchor(self):
        sampler = PairSampler(self._matrix(), num_nearest=2, num_random=1, seed=0)
        pairs = sampler.epoch_pairs(shuffle=False)
        anchors = {i for i, _ in pairs}
        assert anchors == set(range(8))

    def test_nearest_pairs_are_nearest(self):
        matrix = self._matrix()
        sampler = PairSampler(matrix, num_nearest=1, num_random=0, seed=0)
        pairs = sampler.epoch_pairs(shuffle=False)
        for anchor, other in pairs:
            masked = matrix[anchor].copy()
            masked[anchor] = np.inf
            assert other == int(np.argmin(masked))

    def test_no_self_pairs(self):
        sampler = PairSampler(self._matrix(), num_nearest=2, num_random=3, seed=1)
        assert all(i != j for i, j in sampler.epoch_pairs())

    def test_target_of(self):
        matrix = self._matrix()
        sampler = PairSampler(matrix)
        assert sampler.targets_of(np.array([[1, 2]])) == pytest.approx([matrix[1, 2]])

    def test_validation(self):
        with pytest.raises(ValueError):
            PairSampler(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            PairSampler(self._matrix(), num_nearest=0, num_random=0)

    def test_sample_triplets_properties(self):
        matrix = self._matrix()
        triplets = sample_triplets(matrix, num_triplets=20, seed=0)
        assert len(triplets) == 20
        for anchor, positive, negative in triplets:
            assert anchor != positive
            assert matrix[anchor, positive] <= matrix[anchor, negative] + 1e-12

    def test_sample_triplets_needs_three(self):
        with pytest.raises(ValueError):
            sample_triplets(np.zeros((2, 2)), 5)


class TestCallbacks:
    def test_history_records(self):
        history = TrainingHistory()
        history.record(1, 0.5, {"hr@10": 0.2})
        history.record(2, 0.3)
        assert len(history) == 2
        assert history.best_loss == pytest.approx(0.3)
        assert history.metric_curve("hr@10") == [0.2]
        assert "losses" in history.as_dict()

    def test_early_stopping_triggers(self):
        stopper = EarlyStopping(patience=2)
        assert not stopper.update(1.0)
        assert not stopper.update(1.0)
        assert stopper.update(1.0)

    def test_early_stopping_resets_on_improvement(self):
        stopper = EarlyStopping(patience=2)
        stopper.update(1.0)
        stopper.update(1.0)
        assert not stopper.update(0.5)

    def test_early_stopping_validation(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)


class TestTrainer:
    def test_loss_decreases_without_plugin(self, small_problem):
        dataset, truth = small_problem
        encoder = MeanPoolEncoder.build(dataset, embedding_dim=8, seed=0)
        trainer = SimilarityTrainer(encoder, learning_rate=1e-2, seed=0)
        history = trainer.fit(dataset, truth, epochs=4)
        assert history.losses[-1] < history.losses[0]

    def test_loss_decreases_with_plugin(self, small_problem):
        dataset, truth = small_problem
        encoder = MeanPoolEncoder.build(dataset, embedding_dim=8, seed=0)
        plugin = LHPlugin(LHPluginConfig(factor_dim=4, fusion_hidden=8))
        trainer = SimilarityTrainer(encoder, plugin=plugin, learning_rate=1e-2, seed=0)
        history = trainer.fit(dataset, truth, epochs=3)
        assert history.losses[-1] < history.losses[0]

    def test_model_distance_matrix_properties(self, small_problem):
        dataset, truth = small_problem
        encoder = MeanPoolEncoder.build(dataset, embedding_dim=8, seed=0)
        trainer = SimilarityTrainer(encoder, seed=0)
        trainer.fit(dataset, truth, epochs=1)
        matrix = trainer.model_distance_matrix(dataset)
        assert matrix.shape == (len(dataset), len(dataset))
        np.testing.assert_allclose(np.diag(matrix), np.zeros(len(dataset)), atol=1e-9)
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-9)

    def test_eval_fn_recorded_in_history(self, small_problem):
        dataset, truth = small_problem
        encoder = MeanPoolEncoder.build(dataset, embedding_dim=8, seed=0)
        trainer = SimilarityTrainer(encoder, seed=0)
        history = trainer.fit(dataset, truth, epochs=2, eval_fn=lambda: {"marker": 1.0})
        assert history.metric_curve("marker") == [1.0, 1.0]

    def test_early_stopping_limits_epochs(self, small_problem):
        dataset, truth = small_problem
        encoder = MeanPoolEncoder.build(dataset, embedding_dim=8, seed=0)
        trainer = SimilarityTrainer(encoder, learning_rate=1e-9, seed=0)
        history = trainer.fit(dataset, truth, epochs=10,
                              early_stopping=EarlyStopping(patience=1, min_delta=10.0))
        assert len(history) < 10

    def test_mismatched_matrix_rejected(self, small_problem):
        dataset, truth = small_problem
        encoder = MeanPoolEncoder.build(dataset, embedding_dim=8, seed=0)
        trainer = SimilarityTrainer(encoder, seed=0)
        with pytest.raises(ValueError):
            trainer.fit(dataset, truth[:4, :4], epochs=1)

    def test_unknown_loss_rejected(self, small_problem):
        dataset, _ = small_problem
        encoder = MeanPoolEncoder.build(dataset, embedding_dim=8, seed=0)
        with pytest.raises(ValueError):
            SimilarityTrainer(encoder, loss="hinge")


class TestRetrievalMetrics:
    def test_perfect_prediction_scores_one(self):
        rng = np.random.default_rng(0)
        truth = rng.random((10, 10))
        truth = (truth + truth.T) / 2
        np.fill_diagonal(truth, 0.0)
        metrics = evaluate_retrieval(truth, truth, hr_ks=(5,), ndcg_ks=(5,))
        assert metrics["hr@5"] == pytest.approx(1.0)
        assert metrics["ndcg@5"] == pytest.approx(1.0)

    def test_random_prediction_scores_below_perfect(self):
        rng = np.random.default_rng(1)
        truth = rng.random((20, 20))
        truth = (truth + truth.T) / 2
        np.fill_diagonal(truth, 0.0)
        shuffled = rng.random((20, 20))
        assert hit_rate(shuffled, truth, 5) < 1.0

    def test_hit_rate_manual_case(self):
        truth = np.array([[0.0, 1.0, 2.0, 3.0],
                          [1.0, 0.0, 1.0, 2.0],
                          [2.0, 1.0, 0.0, 1.0],
                          [3.0, 2.0, 1.0, 0.0]])
        prediction = truth[:, ::-1]  # reverse the ranking
        assert hit_rate(prediction, truth, 1) <= 0.25

    def test_ndcg_discounts_rank(self):
        truth = np.array([[0.0, 1.0, 2.0, 3.0],
                          [1.0, 0.0, 1.5, 2.0],
                          [2.0, 1.5, 0.0, 1.0],
                          [3.0, 2.0, 1.0, 0.0]])
        slightly_wrong = truth.copy()
        slightly_wrong[0, 1], slightly_wrong[0, 2] = truth[0, 2], truth[0, 1]
        assert ndcg(slightly_wrong, truth, 2) <= 1.0

    def test_per_query_hit_rate_shape(self):
        rng = np.random.default_rng(2)
        truth = rng.random((8, 8))
        truth = (truth + truth.T) / 2
        np.fill_diagonal(truth, 0.0)
        rates = per_query_hit_rate(truth, truth, 3)
        assert rates.shape == (8,)
        np.testing.assert_allclose(rates, np.ones(8))

    def test_evaluate_retrieval_clamps_large_k(self):
        truth = np.random.default_rng(3).random((6, 6))
        truth = (truth + truth.T) / 2
        np.fill_diagonal(truth, 0.0)
        metrics = evaluate_retrieval(truth, truth, hr_ks=(50,), ndcg_ks=(50,))
        assert metrics["hr@50"] == pytest.approx(1.0)

    def test_evaluate_retrieval_shape_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_retrieval(np.zeros((3, 3)), np.zeros((4, 4)))

    def test_euclidean_distance_matrix_matches_direct(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(7, 3))
        matrix = euclidean_distance_matrix(a, b)
        direct = np.sqrt(((a[:, None] - b[None]) ** 2).sum(-1))
        np.testing.assert_allclose(matrix, direct, atol=1e-9)


class TestEfficiency:
    def test_time_callable_positive(self):
        assert time_callable(lambda: sum(range(1000)), repeats=2) >= 0.0

    def test_time_callable_validation(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeats=0)

    def test_database_memory_bytes(self):
        embeddings = np.zeros((10, 4))
        assert database_memory_bytes(embeddings) == embeddings.nbytes
        plugin = LHPlugin(LHPluginConfig(factor_dim=2, fusion_hidden=4))
        sequences = [np.random.default_rng(i).random((4, 2)) for i in range(10)]
        database = plugin.embed_database(embeddings, sequences)
        assert database_memory_bytes(database) > embeddings.nbytes

    def test_retrieval_latency_reports(self):
        rng = np.random.default_rng(5)
        database = rng.normal(size=(200, 8))
        queries = rng.normal(size=(5, 8))
        report = retrieval_latency(queries, database, k=3, repeats=2)
        assert report["latency_seconds"] > 0.0
        assert report["database_size"] == 200
        assert not report["with_plugin"]

    def test_retrieval_latency_with_plugin(self):
        rng = np.random.default_rng(6)
        database = rng.normal(size=(100, 8))
        queries = rng.normal(size=(4, 8))
        plugin = LHPlugin(LHPluginConfig(factor_dim=2, fusion_hidden=4))
        sequences = [rng.random((4, 2)) for _ in range(100)]
        query_sequences = [rng.random((4, 2)) for _ in range(4)]
        report = retrieval_latency(queries, database, k=3, plugin=plugin,
                                   query_sequences=query_sequences,
                                   database_sequences=sequences, repeats=2)
        assert report["with_plugin"]
        assert report["memory_bytes"] > 0
