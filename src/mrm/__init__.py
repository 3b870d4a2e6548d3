"""Multi-level representation model for clinical event sequences.

Event streams are encoded per event, enriched with windowed top-k
attention over near-in-time neighbors, compressed by a minimax-span
interval partition with per-group max pooling, and summarized by an LSTM
feeding a sigmoid outcome head. Ships with a synthetic benchmark
generator, LSTM and logistic-regression baselines, ranking metrics and a
CLI.
"""

__version__ = "0.1.0"

from .diffcore import AdamState, Tensor, adam_step, no_grad
from .events import (ClinicalEvent, DatasetConfig, DatasetError, EventSequence,
                     fit_normalization, frequency_vector, load_dataset,
                     normalize_numeric, split_dataset, write_dataset)
from .evalmetrics import (EvalReport, TrainConfig, TrainingDiverged,
                          average_precision, auc, train, train_lr_baseline)
from .model import (ConfigError, MrmConfig, MrmParams, encode_events, forward,
                    forward_batch, loss, sparse_attention)
from .partition import (InfeasiblePartitionError, Partition, greedy_feasible,
                        optimal_partition)
from .syngen import SynthConfig, SynthConfigError, generate, label_oracle

__all__ = [
    "AdamState", "Tensor", "adam_step", "no_grad",
    "ClinicalEvent", "DatasetConfig", "DatasetError", "EventSequence",
    "fit_normalization", "frequency_vector", "load_dataset",
    "normalize_numeric", "split_dataset", "write_dataset",
    "EvalReport", "TrainConfig", "TrainingDiverged", "average_precision",
    "auc", "train", "train_lr_baseline",
    "ConfigError", "MrmConfig", "MrmParams", "encode_events", "forward",
    "forward_batch", "loss", "sparse_attention",
    "InfeasiblePartitionError", "Partition", "greedy_feasible", "optimal_partition",
    "SynthConfig", "SynthConfigError", "generate", "label_oracle",
]
