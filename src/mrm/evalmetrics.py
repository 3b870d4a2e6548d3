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

    The sequences are sorted by length and scored in chunks of at most
    config.capacity() (truncated) events, one forward_batch call each, so
    a chunk costs about as much memory as one sequence of maximal length
    and the LSTM carries little padding. Scores come back in input
    order.
    """
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
        for chunk in chunks:
            parts = None if partitions is None else [partitions[i] for i in chunk]
            # one mrm sequence goes through forward, the single-sequence
            # entry point, which perfbench's tracer times per call
            if kind == "mrm" and len(chunk) == 1:
                y_hat = mrm_model.forward(seqs[chunk[0]], params, config,
                                          None if parts is None else parts[0])[0]
            else:
                y_hat = mrm_model.forward_batch([seqs[i] for i in chunk], params,
                                                config, parts, kind=kind)
            scores[chunk] = y_hat.data
    return scores


def _labels(seqs) -> np.ndarray:
    return np.array([s.label for s in seqs], dtype=np.intp)


def _check_splits(datasets):
    """Every split must hold both classes: the AUCs of model selection and
    of the report are undefined otherwise. Checked before the first step
    so a bad split fails fast instead of after an epoch of training."""
    for name, seqs in zip(("train", "valid", "test"), datasets):
        n_pos = sum(s.label for s in seqs)
        if n_pos == 0 or n_pos == len(seqs):
            raise ValueError(
                f"{name} split needs both classes, got {n_pos} positive / "
                f"{len(seqs) - n_pos} negative of {len(seqs)} sequences")


def _fit(named_params, batch_loss_fn, scorer, n_train, train_config):
    """Shared early-stopping loop.

    batch_loss_fn(indices) builds the mean-loss graph for a batch;
    scorer(split) returns scores for "train"/"valid"/"test". Keeps the
    best validation-AUC parameters and restores them before returning.
    """
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
            total = batch_loss_fn(batch)
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
        valid_auc = scorer("valid")
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
    return trace, best_auc, best_epoch


def _report(scorer, labels_by_split, trace, best_auc, best_epoch) -> EvalReport:
    test_scores = scorer("test")
    train_scores = scorer("train")
    y_test = labels_by_split["test"]
    return EvalReport(
        auc=auc(test_scores, y_test),
        ap=average_precision(test_scores, y_test),
        n_pos=int((y_test == 1).sum()),
        n_neg=int((y_test == 0).sum()),
        train_auc=auc(train_scores, labels_by_split["train"]),
        train_ap=average_precision(train_scores, labels_by_split["train"]),
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
    if model_kind not in ("mrm", "plain_lstm"):
        raise ValueError(f"unknown model kind {model_kind!r}")
    _check_splits(datasets)
    train_seqs, valid_seqs, test_seqs = datasets
    params = mrm_model.MrmParams.init(model_config, seed=train_config.seed,
                                      kind=model_kind)
    named = params.named()

    splits = {"train": train_seqs, "valid": valid_seqs, "test": test_seqs}
    labels_by_split = {k: _labels(v) for k, v in splits.items()}
    partitions = dict.fromkeys(splits)
    if model_kind == "mrm":
        # times never change, so the per-sequence partition is computed once
        partitions = {k: [mrm_model.sequence_partition(s, model_config) for s in v]
                      for k, v in splits.items()}

    def batch_loss(indices):
        parts = partitions["train"]
        y_hat = mrm_model.forward_batch(
            [train_seqs[i] for i in indices], params, model_config,
            None if parts is None else [parts[i] for i in indices], kind=model_kind)
        return mrm_model.loss(y_hat, labels_by_split["train"][indices])

    def scorer(split):
        scores = score_sequences(model_kind, params, splits[split], model_config,
                                 partitions[split])
        if split == "valid":
            return auc(scores, labels_by_split["valid"])
        return scores

    trace, best_auc, best_epoch = _fit(named, batch_loss, scorer,
                                       len(train_seqs), train_config)
    return params, _report(scorer, labels_by_split, trace, best_auc, best_epoch)


def lr_scores(weights: np.ndarray, bias: float, fv_matrix: np.ndarray) -> np.ndarray:
    z = fv_matrix @ weights + bias
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def train_lr_baseline(datasets, l2: float, train_config: TrainConfig,
                      n_codes: int):
    """Logistic regression on per-code frequency vectors with an L2
    penalty, trained with the same optimizer machinery and early-stopping
    protocol. l2 must be a finite number >= 0. Returns ({"weight", "bias"}
    params, EvalReport)."""
    check_number("l2", l2, 0)
    _check_splits(datasets)
    train_seqs, valid_seqs, test_seqs = datasets
    splits = {"train": train_seqs, "valid": valid_seqs, "test": test_seqs}
    fv = {k: np.stack([frequency_vector(s, n_codes) for s in v])
          for k, v in splits.items()}
    labels_by_split = {k: _labels(v) for k, v in splits.items()}

    weight = dc.Tensor(np.zeros(n_codes), requires_grad=True)
    bias = dc.Tensor(0.0, requires_grad=True)
    named = {"weight": weight, "bias": bias}

    def batch_loss(indices):
        xb = dc.Tensor(fv["train"][indices])
        mean = mrm_model.loss(dc.sigmoid(dc.add(dc.matmul(xb, weight), bias)),
                              labels_by_split["train"][indices])
        if l2 > 0:
            mean = dc.add(mean, dc.scale(dc.sum_all(dc.mul(weight, weight)), l2))
        return mean

    def scorer(split):
        scores = lr_scores(weight.data, bias.item(), fv[split])
        if split == "valid":
            return auc(scores, labels_by_split["valid"])
        return scores

    trace, best_auc, best_epoch = _fit(named, batch_loss, scorer,
                                       len(train_seqs), train_config)
    return named, _report(scorer, labels_by_split, trace, best_auc, best_epoch)


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
