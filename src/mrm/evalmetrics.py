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
    sorted_s = s[order]
    # each run [first, last] of tied sorted scores shares its average rank
    first = np.flatnonzero(np.r_[True, sorted_s[1:] != sorted_s[:-1]])
    last = np.r_[first[1:], n] - 1
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
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


def score_sequences(kind: str, params, seqs, config, cohort=None) -> np.ndarray:
    """Forward probabilities for a list of sequences, no graph kept.

    kind must be params.kind (ConfigError otherwise). One mrm sequence
    goes through model.forward, the single-sequence entry point, which runs
    what a one-sequence cohort would (group_vectors and outcome over
    Batch.of([seq])). The branch stays because the perfbench tracer takes
    its per-sequence model figures from model.forward calls alone, and its
    smoke test needs such calls in a run. Otherwise
    scoring takes two passes over a model.Cohort of seqs: the one passed
    by a caller that scores seqs again and again, or one built here. The
    cohort stores the sequences sorted by length, and their per-event
    layers (model.group_vectors) run on slices of at most
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
            y_hat, _ = mrm_model.forward(seqs[0], params, config)
        return y_hat.data.reshape(1)
    scores = np.empty(len(seqs))
    if not len(seqs):
        return scores
    if cohort is None:
        cohort = mrm_model.Cohort(seqs, config, kind)
    cap = config.capacity()
    bounds, size = [], 0  # the first stored sequence of every chunk
    for p, n in enumerate(cohort.lengths.tolist()):
        if not bounds or size + n > cap:
            bounds.append(p)
            size = 0
        size += n
    bounds.append(len(cohort))
    with dc.no_grad():
        pending, rows = [], 0  # (input indices, pooled rows, offsets) awaiting the LSTM
        for start, stop in zip(bounds[:-1], bounds[1:]):
            x, offsets = mrm_model.group_vectors(cohort.chunk(start, stop), params,
                                                 config)
            if rows + x.shape[0] > cap:  # never on the first: a chunk fits
                _score_pooled(pending, params, scores)
                pending, rows = [], 0
            pending.append((cohort.order[start:stop], x, offsets))
            rows += x.shape[0]
        if pending:
            _score_pooled(pending, params, scores)
    return scores


def _score_pooled(pending, params, scores):
    """One model.outcome call over the pooled rows of the pending (input
    indices, rows, offsets) triples; writes the scores of their sequences."""
    # one chunk (a small cohort, or any plain_lstm chunk) is scored from its
    # rows as they are: the copy and the offset list cost short cohorts ~2 %
    if len(pending) == 1:
        index, x, ends = pending[0]
    else:
        index = np.concatenate([chunk for chunk, _, _ in pending])
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


@np.errstate(all="ignore")  # the non-finite checks, not numpy's warnings, report divergence
def _fit(named_params, batch_loss_fn, scores, datasets, train_config) -> EvalReport:
    """Shared early-stopping loop and its report.

    datasets are the (train, valid, test) splits; batch_loss_fn(indices,
    labels) builds the mean-loss graph of the training sequences at
    indices, whose labels are given; scores(split) returns the scores of
    split "train", "valid" or "test". Keeps the best validation-AUC
    parameters and restores them; only then are the test and training
    splits scored for the report. Each epoch logs its training loss, its
    validation AUC, the mean and the largest gradient norm before clipping
    and the share of steps that clipped.
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
        norms = []  # the gradient norm of every step, before clipping
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
            norms.append(dc.clip_gradients(grads, train_config.clip_norm))
            try:
                dc.adam_step(named_params, grads, state)
            except FloatingPointError as err:
                raise TrainingDiverged(
                    f"epoch {epoch}, batch {batch_id}: {err}") from None
            epoch_loss += float(total.data) * len(batch)
        train_loss = epoch_loss / n_train
        valid_auc = auc(scores("valid"), labels["valid"])
        trace.append((epoch, train_loss, valid_auc))
        log.info("epoch %d: train_loss=%.4f valid_auc=%.4f grad_norm_mean=%.4g "
                 "grad_norm_max=%.4g clip_rate=%.4f", epoch, train_loss, valid_auc,
                 sum(norms) / len(norms), max(norms),
                 sum(norm > train_config.clip_norm for norm in norms) / len(norms))
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
    batched forward graph (model.group_vectors, then model.outcome); after
    each epoch the validation AUC decides early stopping and model
    selection. Each split is one model.Cohort, built before the first
    epoch: every training batch is gathered from the training cohort, and
    every scoring call (validation each epoch, then test and train) passes
    its split's cohort to score_sequences with the split list itself.
    Test data is only touched after selection finishes. Returns
    (params, EvalReport).
    """
    params = mrm_model.MrmParams.init(model_config, seed=train_config.seed,
                                      kind=model_kind)
    _check_splits(datasets)
    splits = dict(zip(_SPLITS, datasets))
    # times never change, so each split's structure is built once
    cohorts = {name: mrm_model.Cohort(seqs, model_config, model_kind)
               for name, seqs in splits.items()}

    def batch_loss(indices, labels):
        x, offsets = mrm_model.group_vectors(cohorts["train"].batch(indices), params,
                                             model_config)
        return mrm_model.loss(mrm_model.outcome(x, offsets, params), labels)

    def scores(split):
        return score_sequences(model_kind, params, splits[split], model_config,
                               cohorts[split])

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
            mean = dc.add_l2(mean, weight, l2)
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
