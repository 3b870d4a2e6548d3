"""The checkpoint schema: one writer, one reader and one scoring path for
the mrm, plain_lstm and lr models.

A checkpoint is an npz archive (format version 1, see write_archive) whose
metadata is a JSON object with exactly these entries:

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
import json
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np

from . import evalmetrics as ev
from .events import (DATASET_KEYS, ConfigError, DatasetConfig, DatasetError, _quote,
                     build_config, check_number, entries, frequency_vector,
                     normalize_numeric)
from .model import MrmConfig, MrmParams, check_arrays

KINDS = ("mrm", "plain_lstm", "lr")
CHECKPOINT_FORMAT_VERSION = 1

# metadata key -> (config field, type), per block; "dataset" uses
# events.DATASET_KEYS
MODEL_KEYS = {"D_m": ("model_dim", int), "N_h": ("n_heads", int),
              "D_a": ("head_dim", int), "topk": ("topk", int),
              "T_r": ("window_hours", float), "M": ("max_groups", int),
              "L_G": ("max_group_len", int)}
TRAIN_KEYS = {"lr": ("lr", float), "batch_size": ("batch_size", int),
              "max_epochs": ("max_epochs", int), "patience": ("patience", int),
              "seed": ("seed", int), "clip": ("clip_norm", float)}
_TABLES = {"dataset": DATASET_KEYS, "model": MODEL_KEYS, "train": TRAIN_KEYS}


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


def write_archive(path, arrays: dict, meta=None):
    """Write a flat name->array archive: the arrays, row-major in double
    precision, plus "__format_version__", the one-element integer array
    [1], and "__meta__", meta (any JSON-serializable value) as JSON text."""
    reserved = [name for name in arrays if name.startswith("__")]
    if reserved:
        raise ValueError(f"parameter names {reserved} clash with reserved keys")
    np.savez(path, __format_version__=np.array([CHECKPOINT_FORMAT_VERSION],
                                               dtype=np.int64),
             __meta__=np.array(json.dumps(meta or {}, sort_keys=True)),
             **{name: np.asarray(arr, dtype=np.float64, order="C")
                for name, arr in arrays.items()})


# what numpy, zipfile and json raise on a damaged or foreign file (TypeError:
# a bare .npy array, KeyError: no header)
_DAMAGE = (zipfile.BadZipFile, zlib.error, EOFError, RuntimeError, ValueError,
           KeyError, TypeError, OSError)


def read_archive(path):
    """Read an archive back as (arrays, meta), meta a dict.

    A file that is no intact archive with the header raises DatasetError
    naming path; only a file that cannot be opened raises OSError."""
    with open(path, "rb") as fh:
        try:
            with np.load(fh) as f:
                arrays = {name: f[name] for name in f.files}
            version = arrays["__format_version__"]
            meta = json.loads(str(arrays["__meta__"]))
        except _DAMAGE as err:
            raise DatasetError(f"{path}: not a checkpoint, or a damaged one "
                               f"({type(err).__name__}: {err})") from None
    if not (version.shape == (1,) and version.dtype.kind in "iu"
            and version[0] == CHECKPOINT_FORMAT_VERSION):
        raise DatasetError(f"{path}: checkpoint format version must be the "
                           f"one-element integer array [{CHECKPOINT_FORMAT_VERSION}], "
                           f"got {_quote(version)}")
    if not isinstance(meta, dict):
        raise DatasetError(f"{path}: checkpoint metadata is a JSON "
                           f"{type(meta).__name__}, not an object")
    return ({name: arr for name, arr in arrays.items() if not name.startswith("__")},
            meta)


def write_checkpoint(path, ckpt: Checkpoint):
    """Write ckpt as a format-1 archive with the metadata of the schema."""
    meta = {"kind": ckpt.kind, "dataset": entries(ckpt.dataset, DATASET_KEYS),
            "feature_stats": {str(fid): [mean, std] for fid, (mean, std)
                              in ckpt.dataset.feature_stats.items()},
            "train": entries(ckpt.train, TRAIN_KEYS)}
    if ckpt.kind == "lr":
        meta["l2"] = ckpt.l2
        arrays = ckpt.params
    else:
        meta["model"] = entries(ckpt.model, MODEL_KEYS)
        arrays = ckpt.params.arrays()
    write_archive(path, arrays, meta)


def read_checkpoint(path, sidecar: DatasetConfig | None = None) -> Checkpoint:
    """Load and check a checkpoint: every metadata entry, then every array.

    A fault raises DatasetError naming the entry, e.g. "dataset.N_c", or
    the array. With a sidecar config, its vocabulary sizes must equal the
    checkpoint's. Array shapes are checked before anything of the sizes
    the metadata claims is allocated."""
    arrays, meta = read_archive(path)

    where = f"{path}: checkpoint metadata"

    def fault(entry, problem):
        return DatasetError(f"{where} {entry}: {problem}" if entry
                            else f"{where}: {problem}")

    kind = meta.get("kind")
    if kind not in KINDS:
        raise fault("kind", f"unknown model kind {_quote(kind)}")
    blocks = {"kind", "dataset", "feature_stats", "train",
              "l2" if kind == "lr" else "model"}
    odd = sorted(blocks ^ set(meta))
    if odd:
        raise fault(_quote(odd[0], str), "missing" if odd[0] in blocks
                    else f"not part of a {kind} checkpoint")
    for block in sorted(blocks & set(_TABLES)):
        keys = _TABLES[block]
        if not isinstance(meta[block], dict) or set(meta[block]) != set(keys):
            raise fault(block, f"must be an object with keys {sorted(keys)}, "
                               f"got {_quote(meta[block])}")
    dataset = build_config(DatasetConfig, meta["dataset"], DATASET_KEYS,
                           f"{where} dataset.")
    stats = meta["feature_stats"]
    if (not isinstance(stats, dict) or len(stats) != dataset.n_features
            or not all(str(fid) in stats for fid in range(dataset.n_features))):
        raise fault("feature_stats", f"must map each feature id in "
                                     f"[0, {dataset.n_features}) to [mean, std]")
    for fid, pair in stats.items():
        if not (isinstance(pair, list) and len(pair) == 2):
            raise fault(f"feature_stats.{fid}", f"must be [mean, std], got {_quote(pair)}")
    try:
        dataset = dataclasses.replace(dataset, feature_stats={
            int(fid): tuple(pair) for fid, pair in stats.items()})
        if kind == "lr":
            check_number("l2", meta["l2"], 0)
    except ConfigError as err:
        raise fault(None, err) from None
    train = build_config(ev.TrainConfig, meta["train"], TRAIN_KEYS, f"{where} train.")
    model = None if kind == "lr" else build_config(
        MrmConfig, meta["model"], MODEL_KEYS, f"{where} model.",
        n_codes=dataset.n_codes, n_features=dataset.n_features,
        max_features=dataset.max_features)
    if sidecar is not None and entries(sidecar, DATASET_KEYS) != meta["dataset"]:
        raise DatasetError(f"{path}: checkpoint/config mismatch: checkpoint has "
                           f"{meta['dataset']}, dataset has "
                           f"{entries(sidecar, DATASET_KEYS)}")
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
        return ev.lr_scores(ckpt.params["weight"], ckpt.params["bias"], fv)
    return ev.score_sequences(ckpt.kind, ckpt.params,
                              normalize_numeric(sequences, ckpt.dataset), ckpt.model)
