"""``repro.training`` — pair sampling, training loop and training callbacks."""

from .sampling import PairSampler, sample_triplets
from .callbacks import TrainingHistory, EarlyStopping
from .trainer import SimilarityTrainer

__all__ = ["PairSampler", "sample_triplets", "TrainingHistory", "EarlyStopping",
           "SimilarityTrainer"]
