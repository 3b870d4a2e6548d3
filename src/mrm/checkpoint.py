"""The checkpoint schema: one writer, one reader and one scoring path for
the mrm, plain_lstm and lr models.

A checkpoint is a diffcore archive (format version 1) whose metadata is a
JSON object with exactly these entries:

    kind           "mrm", "plain_lstm" or "lr"
    dataset        {"N_c", "N_f", "maxFeat"}: the vocabulary sizes
    feature_stats  {"0": [mean, std], ..., "<N_f - 1>": [mean, std]}
    train          {"lr", "batch_size", "max_epochs", "patience", "seed", "clip"}
    model          {"D_m", "N_h", "D_a", "topk", "T_r", "M", "L_G"}  (not lr)
    l2             the L2 penalty, a number >= 0                      (lr only)

Its arrays are those of model.param_shapes for mrm and plain_lstm, and
"weight" (N_c,) and "bias" () for lr, all finite.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from . import evalmetrics as ev
from .events import (ConfigError, DatasetConfig, DatasetError, check_number,
                     frequency_vector, normalize_numeric)
from .model import MrmConfig, MrmParams, check_arrays

KINDS = ("mrm", "plain_lstm", "lr")

# metadata key -> config field, per block
DATASET_KEYS = {"N_c": "n_codes", "N_f": "n_features", "maxFeat": "max_features"}
MODEL_KEYS = {"D_m": "model_dim", "N_h": "n_heads", "D_a": "head_dim", "topk": "topk",
              "T_r": "window_hours", "M": "max_groups", "L_G": "max_group_len"}
TRAIN_KEYS = {"lr": "lr", "batch_size": "batch_size", "max_epochs": "max_epochs",
              "patience": "patience", "seed": "seed", "clip": "clip_norm"}
# config field -> the metadata entry that sets it
_ENTRIES = {"l2": "l2", **{field: f"{block}.{key}" for block, keys in (
    ("dataset", DATASET_KEYS), ("model", MODEL_KEYS), ("train", TRAIN_KEYS))
    for key, field in keys.items()}}


@dataclass(frozen=True)
class Checkpoint:
    """A trained predictor. params is an MrmParams, or for lr the
    {"weight", "bias"} arrays; model and l2 are None where the kind has
    none. dataset carries the normalization stats."""

    kind: str
    dataset: DatasetConfig
    model: MrmConfig | None
    params: object
    train: ev.TrainConfig
    l2: float | None = None


def _block(config, keys: dict) -> dict:
    return {key: getattr(config, field) for key, field in keys.items()}


def write_checkpoint(path, ckpt: Checkpoint):
    """Write ckpt as a format-1 archive with the metadata of the schema."""
    meta = {"kind": ckpt.kind, "dataset": _block(ckpt.dataset, DATASET_KEYS),
            "feature_stats": {str(fid): [mean, std] for fid, (mean, std)
                              in ckpt.dataset.feature_stats.items()},
            "train": _block(ckpt.train, TRAIN_KEYS)}
    if ckpt.kind == "lr":
        meta["l2"] = ckpt.l2
        arrays = ckpt.params
    else:
        meta["model"] = _block(ckpt.model, MODEL_KEYS)
        arrays = ckpt.params.arrays()
    dc.save_checkpoint(path, arrays, meta)


def read_checkpoint(path, sidecar: DatasetConfig | None = None) -> Checkpoint:
    """Load and check a checkpoint: every metadata entry, then every array.

    A fault raises DatasetError naming the entry, e.g. "dataset.N_c", or
    the array. With a sidecar config, its vocabulary sizes must equal the
    checkpoint's. Array shapes are checked before anything of the sizes
    the metadata claims is allocated."""
    arrays, meta = dc.load_checkpoint(path)

    def fault(entry, problem):
        where = f"checkpoint metadata {entry}" if entry else "checkpoint metadata"
        return DatasetError(f"{path}: {where}: {problem}")

    def fields(block, keys):
        values = meta[block]
        if not isinstance(values, dict) or set(values) != set(keys):
            raise fault(block, f"must be an object with keys {sorted(keys)}, "
                               f"got {values!r}")
        return {field: values[key] for key, field in keys.items()}

    kind = meta.get("kind")
    if kind not in KINDS:
        raise fault("kind", f"unknown model kind {kind!r}")
    blocks = {"kind", "dataset", "feature_stats", "train",
              "l2" if kind == "lr" else "model"}
    odd = sorted(blocks ^ set(meta))
    if odd:
        raise fault(odd[0], "missing" if odd[0] in blocks
                    else f"not part of a {kind} checkpoint")
    model = None
    try:
        dataset = DatasetConfig(**fields("dataset", DATASET_KEYS))
        stats = meta["feature_stats"]
        if (not isinstance(stats, dict) or len(stats) != dataset.n_features
                or not all(str(fid) in stats for fid in range(dataset.n_features))):
            raise fault("feature_stats", f"must map each feature id in "
                                         f"[0, {dataset.n_features}) to [mean, std]")
        for fid, pair in stats.items():
            if not (isinstance(pair, list) and len(pair) == 2):
                raise fault(f"feature_stats.{fid}", f"must be [mean, std], got {pair!r}")
        dataset = dataclasses.replace(dataset, feature_stats={
            int(fid): tuple(pair) for fid, pair in stats.items()})
        train = ev.TrainConfig(**fields("train", TRAIN_KEYS))
        if kind == "lr":
            check_number("l2", meta["l2"], 0)
        else:
            model = MrmConfig(dataset.n_codes, dataset.n_features, dataset.max_features,
                              **fields("model", MODEL_KEYS))
    except ConfigError as err:
        raise fault(_ENTRIES.get(err.field), err) from None
    if sidecar is not None and _block(sidecar, DATASET_KEYS) != meta["dataset"]:
        raise DatasetError(f"{path}: checkpoint/config mismatch: checkpoint has "
                           f"{meta['dataset']}, dataset has "
                           f"{_block(sidecar, DATASET_KEYS)}")
    try:
        params = (check_arrays(arrays, {"weight": (dataset.n_codes,), "bias": ()})
                  if kind == "lr" else MrmParams.from_arrays(arrays, model, kind))
    except ConfigError as err:
        raise DatasetError(f"{path}: {err}") from None
    return Checkpoint(kind, dataset, model, params, train, meta.get("l2"))


def checkpoint_scores(ckpt: Checkpoint, sequences) -> np.ndarray:
    """Outcome probabilities of sequences (as loaded, not yet normalized)
    under a checkpoint's model, in input order."""
    if ckpt.kind == "lr":
        fv = np.stack([frequency_vector(s, ckpt.dataset.n_codes) for s in sequences])
        return ev.lr_scores(ckpt.params["weight"], float(ckpt.params["bias"]), fv)
    return ev.score_sequences(ckpt.kind, ckpt.params,
                              normalize_numeric(sequences, ckpt.dataset), ckpt.model)
