"""Ranking metrics, the training loop with early stopping, and baselines."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from . import model as mrm_model
from .events import (ConfigError, check_number, entries, frequency_vector,
                     write_keyvalues)

log = logging.getLogger("mrm.train")


class TrainingDiverged(RuntimeError):
    """The optimizer hit a non-finite loss or gradient."""


def auc(scores, labels) -> float:
    """Pairwise ranking statistic: the fraction of (positive, negative)
    pairs the scores order correctly, ties counting one half."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    n = s.size
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError(f"auc needs both classes, got {n_pos} positive / "
                         f"{n_neg} negative")
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(n, dtype=np.float64)
    sorted_s = s[order]
    i = 0
    while i < n:  # average ranks across tied scores
        j = i
        while j + 1 < n and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def average_precision(scores, labels) -> float:
    """Mean, over positives in descending-score order, of the precision at
    each positive's rank. Ties are broken by original index (stable), so
    the value is deterministic on tied scores."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if not (y == 1).any():
        raise ValueError("average_precision needs at least one positive")
    order = np.argsort(-s, kind="stable")
    y_sorted = (y[order] == 1)
    precision_at = np.cumsum(y_sorted) / np.arange(1, s.size + 1)
    return float(precision_at[y_sorted].mean())


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 20
    patience: int = 3
    seed: int = 0
    clip_norm: float = 5.0

    def __post_init__(self):
        for name in ("lr", "clip_norm"):
            check_number(name, getattr(self, name), 0, strict=True)
        for name, least in (("batch_size", 1), ("max_epochs", 1), ("patience", 0),
                            ("seed", 0)):
            check_number(name, getattr(self, name), least, integer=True)
        if self.patience >= self.max_epochs:
            raise ConfigError(f"need 0 <= patience < max_epochs, got "
                              f"patience={self.patience} max_epochs={self.max_epochs}",
                              field="patience")


@dataclass
class EvalReport:
    """Test-split metrics of the selected model plus the training trace."""

    auc: float
    ap: float
    n_pos: int
    n_neg: int
    train_auc: float
    train_ap: float
    valid_auc: float
    best_epoch: int
    loss_trace: list = field(default_factory=list)  # (epoch, train_loss, valid_auc)


def score_sequences(kind: str, params, seqs, config, partitions=None) -> np.ndarray:
    """Forward probabilities for a list of sequences, no graph kept.

    kind must be params.kind (ConfigError otherwise). One mrm sequence
    goes through model.forward, the single-sequence entry point. Otherwise
    scoring takes two passes. The sequences are sorted by length and their
    per-event layers (model.group_vectors) run in chunks of at most
    config.capacity() truncated events, so a chunk costs about as much
    memory as one sequence of maximal length. The pooled rows of
    consecutive chunks are then buffered and scored by one model.outcome
    call (one LSTM and head) per at most config.capacity() rows, which
    bounds the LSTM's buffers the same way. An mrm chunk has at most
    max_groups rows per sequence, so many chunks share one LSTM call; a
    plain_lstm chunk has one row per event and is scored alone. Scores
    come back in input order.
    """
    if kind != params.kind:
        raise ConfigError(f"cannot score {params.kind!r} params as a {kind!r} model")
    if kind == "mrm" and len(seqs) == 1:
        with dc.no_grad():
            y_hat, _ = mrm_model.forward(seqs[0], params, config,
                                         None if partitions is None else partitions[0])
        return y_hat.data.reshape(1)
    scores = np.empty(len(seqs))
    cap = config.capacity()
    lengths = [min(len(s), cap) for s in seqs]
    chunks, size = [], 0
    for i in sorted(range(len(seqs)), key=lengths.__getitem__):
        if not chunks or size + lengths[i] > cap:
            chunks.append([])
            size = 0
        chunks[-1].append(i)
        size += lengths[i]
    with dc.no_grad():
        pending, rows = [], 0  # (chunk, pooled rows, offsets) awaiting the LSTM
        for chunk in chunks:
            parts = None if partitions is None else [partitions[i] for i in chunk]
            x, offsets = mrm_model.group_vectors([seqs[i] for i in chunk], params,
                                                 config, parts)
            if rows + x.shape[0] > cap:  # never on the first: a chunk fits
                _score_pooled(pending, params, scores)
                pending, rows = [], 0
            pending.append((chunk, x, offsets))
            rows += x.shape[0]
        if pending:
            _score_pooled(pending, params, scores)
    return scores


def _score_pooled(pending, params, scores):
    """One model.outcome call over the pooled rows of the pending (chunk,
    rows, offsets) triples; writes the scores of their sequences."""
    # one chunk (a small cohort, or any plain_lstm chunk) is scored from its
    # rows as they are: the copy and the offset list cost short cohorts ~2 %
    if len(pending) == 1:
        index, x, ends = pending[0]
    else:
        index = [i for chunk, _, _ in pending for i in chunk]
        ends = [0]
        for _, _, offsets in pending:
            ends.extend(offsets[1:] + ends[-1])
        x = dc.Tensor(np.concatenate([rows.data for _, rows, _ in pending]))
    scores[index] = mrm_model.outcome(x, ends, params).data


_SPLITS = ("train", "valid", "test")


def _check_splits(datasets):
    """Every split must hold both classes: the AUCs of model selection and
    of the report are undefined otherwise. Checked before the first step
    so a bad split fails fast instead of after an epoch of training."""
    for name, seqs in zip(_SPLITS, datasets):
        n_pos = sum(s.label for s in seqs)
        if n_pos == 0 or n_pos == len(seqs):
            raise ValueError(
                f"{name} split needs both classes, got {n_pos} positive / "
                f"{len(seqs) - n_pos} negative of {len(seqs)} sequences")


def _fit(named_params, batch_loss_fn, scores, datasets, train_config) -> EvalReport:
    """Shared early-stopping loop and its report.

    datasets are the (train, valid, test) splits; batch_loss_fn(indices,
    labels) builds the mean-loss graph of the training sequences at
    indices, whose labels are given; scores(split) returns the scores of
    split "train", "valid" or "test". Keeps the best validation-AUC
    parameters and restores them; only then are the test and training
    splits scored for the report.
    """
    labels = {name: np.array([s.label for s in seqs], dtype=np.intp)
              for name, seqs in zip(_SPLITS, datasets)}
    n_train = len(datasets[0])
    state = dc.AdamState(lr=train_config.lr)
    rng = np.random.default_rng(train_config.seed)
    trace = []
    best_auc = -np.inf
    best_epoch = 0
    best_arrays = {name: t.data.copy() for name, t in named_params.items()}
    bad_epochs = 0
    for epoch in range(1, train_config.max_epochs + 1):
        order = rng.permutation(n_train)
        epoch_loss = 0.0
        for batch_id, start in enumerate(range(0, n_train, train_config.batch_size)):
            batch = order[start:start + train_config.batch_size]
            total = batch_loss_fn(batch, labels["train"][batch])
            if not np.isfinite(total.data):
                raise TrainingDiverged(
                    f"non-finite loss in epoch {epoch}, batch {batch_id}")
            for t in named_params.values():
                t.zero_grad()
            total.backward()
            grads = {name: t.grad for name, t in named_params.items()
                     if t.grad is not None}
            dc.clip_gradients(grads, train_config.clip_norm)
            try:
                dc.adam_step(named_params, grads, state)
            except FloatingPointError as err:
                raise TrainingDiverged(
                    f"epoch {epoch}, batch {batch_id}: {err}") from None
            epoch_loss += float(total.data) * len(batch)
        train_loss = epoch_loss / n_train
        valid_auc = auc(scores("valid"), labels["valid"])
        trace.append((epoch, train_loss, valid_auc))
        log.info("epoch %d: train_loss=%.4f valid_auc=%.4f", epoch, train_loss,
                 valid_auc)
        if valid_auc > best_auc:
            best_auc = valid_auc
            best_epoch = epoch
            best_arrays = {name: t.data.copy() for name, t in named_params.items()}
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > train_config.patience:
                log.info("early stop after epoch %d (best epoch %d)", epoch,
                         best_epoch)
                break
    for name, t in named_params.items():
        t.data = best_arrays[name]
    test_scores = scores("test")
    train_scores = scores("train")
    return EvalReport(
        auc=auc(test_scores, labels["test"]),
        ap=average_precision(test_scores, labels["test"]),
        n_pos=int((labels["test"] == 1).sum()),
        n_neg=int((labels["test"] == 0).sum()),
        train_auc=auc(train_scores, labels["train"]),
        train_ap=average_precision(train_scores, labels["train"]),
        valid_auc=best_auc,
        best_epoch=best_epoch,
        loss_trace=trace,
    )


def train(model_kind: str, datasets, train_config: TrainConfig,
          model_config: mrm_model.MrmConfig):
    """Train an "mrm" or "plain_lstm" model on (train, valid, test) splits.

    Adam on the mean cross entropy of shuffled mini-batches, each one
    batched forward graph (model.forward_batch); after each epoch the
    validation AUC decides early stopping and model selection.
    Test data is only touched after selection finishes. Returns
    (params, EvalReport).
    """
    params = mrm_model.MrmParams.init(model_config, seed=train_config.seed,
                                      kind=model_kind)
    _check_splits(datasets)
    splits = dict(zip(_SPLITS, datasets))
    partitions = dict.fromkeys(splits)
    if model_kind == "mrm":
        # times never change, so the per-sequence partition is computed once
        partitions = {k: [mrm_model.sequence_partition(s, model_config) for s in v]
                      for k, v in splits.items()}

    def batch_loss(indices, labels):
        seqs, parts = splits["train"], partitions["train"]
        y_hat = mrm_model.forward_batch(
            [seqs[i] for i in indices], params, model_config,
            None if parts is None else [parts[i] for i in indices])
        return mrm_model.loss(y_hat, labels)

    def scores(split):
        return score_sequences(model_kind, params, splits[split], model_config,
                               partitions[split])

    return params, _fit(params.named(), batch_loss, scores, datasets, train_config)


def lr_scores(weights: np.ndarray, bias, fv_matrix: np.ndarray) -> np.ndarray:
    """Logistic-regression probabilities of the rows of fv_matrix."""
    with dc.no_grad():
        return dc.logistic(dc.Tensor(fv_matrix), dc.Tensor(weights),
                           dc.Tensor(bias)).data


def train_lr_baseline(datasets, l2: float, train_config: TrainConfig,
                      n_codes: int):
    """Logistic regression on per-code frequency vectors with an L2
    penalty, trained with the same optimizer machinery and early-stopping
    protocol. l2 must be a finite number >= 0. Returns ({"weight", "bias"}
    params, EvalReport)."""
    check_number("l2", l2, 0)
    _check_splits(datasets)
    fv = {name: np.stack([frequency_vector(s, n_codes) for s in seqs])
          for name, seqs in zip(_SPLITS, datasets)}
    weight = dc.Tensor(np.zeros(n_codes), requires_grad=True)
    bias = dc.Tensor(0.0, requires_grad=True)
    named = {"weight": weight, "bias": bias}

    def batch_loss(indices, labels):
        mean = mrm_model.loss(
            dc.logistic(dc.Tensor(fv["train"][indices]), weight, bias), labels)
        if l2 > 0:
            mean = dc.add(mean, dc.scale(dc.sum_all(dc.mul(weight, weight)), l2))
        return mean

    def scores(split):
        return lr_scores(weight.data, bias.data, fv[split])

    return named, _fit(named, batch_loss, scores, datasets, train_config)


# ---------------------------------------------------------------------------
# report files


# .report key -> (EvalReport field, type), in the order written
REPORT_KEYS = {"test_auc": ("auc", float), "test_ap": ("ap", float),
               "n_pos": ("n_pos", int), "n_neg": ("n_neg", int),
               "train_auc": ("train_auc", float), "train_ap": ("train_ap", float),
               "valid_auc": ("valid_auc", float), "best_epoch": ("best_epoch", int)}


def write_report(path, report: EvalReport, extra: dict | None = None):
    """Flat key-value serialization (a float's str is its exact repr)."""
    write_keyvalues(path, {**entries(report, REPORT_KEYS), **(extra or {})})


def write_trace_csv(path, report: EvalReport):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,valid_auc\n")
        for epoch, train_loss, valid_auc in report.loss_trace:
            fh.write(f"{epoch},{train_loss!r},{valid_auc!r}\n")
