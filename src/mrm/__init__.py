"""Multi-level representation model for clinical event sequences.

Event streams are encoded per event, enriched with windowed top-k
attention over near-in-time neighbors, compressed by a minimax-span
interval partition with per-group max pooling, and summarized by an LSTM
feeding a sigmoid outcome head. Ships with a synthetic benchmark
generator, LSTM and logistic-regression baselines, ranking metrics and a
CLI. The modules (mrm.events, mrm.model, mrm.evalmetrics, ...) are the
API; the package itself exports only __version__.
"""

__version__ = "0.1.0"
