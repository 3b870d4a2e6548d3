"""Event/sequence data model, file IO, normalization, counts and splits.

A dataset file is UTF-8 with one JSON record per line:

    {"patient_id": "p1", "label": 1, "events": [
        {"code": 17, "t": 3.5, "cat": [2], "num": [[4, 0.82]]}, ...]}

A sidecar flat key-value file carries the vocabulary sizes::

    N_c = 3418
    N_f = 649
    maxFeat = 3
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np


class DatasetError(ValueError):
    """Malformed or out-of-range dataset content."""


@dataclass(slots=True)
class ClinicalEvent:
    """One timestamped record: type code, occurrence time in hours, and
    up to max_features categorical/numerical feature attachments."""

    code: int
    t: float
    cat_features: list = field(default_factory=list)
    num_features: list = field(default_factory=list)  # (feature_id, value) pairs


@dataclass
class EventSequence:
    """A labeled patient record; events sorted non-decreasing by time."""

    patient_id: str
    label: int
    events: list

    def __len__(self):
        return len(self.events)

    def times(self) -> np.ndarray:
        return np.array([e.t for e in self.events], dtype=np.float64)


@dataclass(frozen=True)
class DatasetConfig:
    """Vocabulary sizes plus (once fitted) per-feature normalization stats."""

    n_codes: int
    n_features: int
    max_features: int
    feature_stats: dict | None = None  # feature_id -> (mean, std), std pre-floored

    def __post_init__(self):
        if self.n_codes < 1:
            raise ValueError(f"n_codes must be >= 1, got {self.n_codes}")
        if self.n_features < 0 or self.max_features < 0:
            raise ValueError("n_features and max_features must be >= 0")
        if self.feature_stats is not None:
            for fid, (_, std) in self.feature_stats.items():
                if std <= 0:
                    raise ValueError(f"std for feature {fid} not positive after floor")


def _validate_event(ev: ClinicalEvent, config: DatasetConfig, where: str):
    if not (0 <= ev.code < config.n_codes):
        raise DatasetError(f"{where}: code {ev.code} outside [0, {config.n_codes})")
    if not math.isfinite(ev.t):
        raise DatasetError(f"{where}: non-finite time {ev.t!r}")
    if len(ev.cat_features) + len(ev.num_features) > config.max_features:
        raise DatasetError(
            f"{where}: {len(ev.cat_features)} categorical + "
            f"{len(ev.num_features)} numerical features exceed maxFeat="
            f"{config.max_features}")
    for fid in ev.cat_features:
        if not (0 <= fid < config.n_features):
            raise DatasetError(f"{where}: categorical feature id {fid} outside "
                               f"[0, {config.n_features})")
    for fid, value in ev.num_features:
        if not (0 <= fid < config.n_features):
            raise DatasetError(f"{where}: numerical feature id {fid} outside "
                               f"[0, {config.n_features})")
        if not math.isfinite(value):
            raise DatasetError(f"{where}: non-finite value for feature {fid}")


def _parse_record(obj, config: DatasetConfig, where: str) -> EventSequence:
    try:
        patient_id = str(obj["patient_id"])
        label = obj["label"]
        raw_events = obj["events"]
    except (KeyError, TypeError) as err:
        raise DatasetError(f"{where}: missing key {err}") from None
    if isinstance(label, bool) or label not in (0, 1):  # True == 1 in Python
        raise DatasetError(f"{where}: label must be 0 or 1, got {label!r}")
    if not raw_events:
        raise DatasetError(f"{where}: empty event list")
    events = []
    for k, raw in enumerate(raw_events):
        try:
            ev = ClinicalEvent(
                code=int(raw["code"]),
                t=float(raw["t"]),
                cat_features=[int(c) for c in raw.get("cat", [])],
                num_features=[(int(fid), float(v)) for fid, v in raw.get("num", [])],
            )
        except (KeyError, TypeError, ValueError) as err:
            raise DatasetError(f"{where}: bad event {k}: {err}") from None
        _validate_event(ev, config, f"{where} event {k}")
        events.append(ev)
    events.sort(key=lambda e: e.t)  # stable: file order preserved for ties
    return EventSequence(patient_id=patient_id, label=int(label), events=events)


def load_dataset(path, config: DatasetConfig):
    """Parse a line-delimited dataset file, validating against config.

    Events come back sorted by time (stable for ties). Errors name the
    offending 1-based line number.
    """
    sequences = []
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise DatasetError(f"line {ln}: invalid JSON: {err.msg}") from None
            sequences.append(_parse_record(obj, config, f"line {ln}"))
    return sequences


def write_dataset(path, sequences):
    """Write sequences in the line-delimited format (deterministic bytes)."""
    with open(path, "w", encoding="utf-8") as fh:
        for seq in sequences:
            rec = {
                "patient_id": seq.patient_id,
                "label": seq.label,
                "events": [
                    {"code": e.code, "t": e.t, "cat": list(e.cat_features),
                     "num": [[fid, v] for fid, v in e.num_features]}
                    for e in seq.events
                ],
            }
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


STD_FLOOR = 1e-6


def fit_normalization(sequences, config: DatasetConfig) -> DatasetConfig:
    """Per-feature mean/std from (training) sequences, std floored.

    Every feature id in [0, n_features) gets an entry; ids never observed
    keep the pass-through stats (0, 1). Returns a new config, the input is
    untouched.
    """
    values = {}
    for seq in sequences:
        for ev in seq.events:
            for fid, v in ev.num_features:
                values.setdefault(fid, []).append(v)
    stats = {}
    for fid in range(config.n_features):
        if fid in values:
            arr = np.asarray(values[fid], dtype=np.float64)
            stats[fid] = (float(arr.mean()), max(float(arr.std()), STD_FLOOR))
        else:
            stats[fid] = (0.0, 1.0)
    return dataclasses.replace(config, feature_stats=stats)


def normalize_numeric(sequences, config: DatasetConfig):
    """Replace each numerical value v by (v - mean) / std using the stats
    stored in config (fitted on the training split). Pure: returns new
    sequences. Apply once; idempotence is not promised."""
    if config.feature_stats is None:
        raise DatasetError("config has no normalization stats; fit on the "
                           "training split first")
    out = []
    for seq in sequences:
        events = []
        for ev in seq.events:
            num = []
            for fid, v in ev.num_features:
                try:
                    mean, std = config.feature_stats[fid]
                except KeyError:
                    raise DatasetError(f"unknown feature id {fid}") from None
                num.append((fid, (v - mean) / std))
            events.append(ClinicalEvent(ev.code, ev.t, list(ev.cat_features), num))
        out.append(EventSequence(seq.patient_id, seq.label, events))
    return out


def frequency_vector(seq: EventSequence, n_codes: int) -> np.ndarray:
    """Per-code occurrence counts; entries sum to the sequence length."""
    codes = np.array([e.code for e in seq.events], dtype=np.intp)
    if codes.size and (codes.min() < 0 or codes.max() >= n_codes):
        raise DatasetError(f"code outside [0, {n_codes})")
    return np.bincount(codes, minlength=n_codes).astype(np.float64)


def split_dataset(sequences, fractions=(0.7, 0.1, 0.2), seed: int = 0):
    """Deterministic shuffled (train, valid, test) partition.

    Train/valid sizes are floors of their fractions; the remainder goes to
    test. The three lists are disjoint and cover the input.
    """
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {fractions}")
    n = len(sequences)
    if n < 3:
        raise ValueError(f"need at least 3 sequences to split, got {n}")
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(math.floor(n * fractions[0]))
    n_valid = int(math.floor(n * fractions[1]))
    train = [sequences[i] for i in order[:n_train]]
    valid = [sequences[i] for i in order[n_train:n_train + n_valid]]
    test = [sequences[i] for i in order[n_train + n_valid:]]
    return train, valid, test


# ---------------------------------------------------------------------------
# sidecar config files (flat key-value)


def write_sidecar_config(path, config: DatasetConfig, extra: dict | None = None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"N_c = {config.n_codes}\n")
        fh.write(f"N_f = {config.n_features}\n")
        fh.write(f"maxFeat = {config.max_features}\n")
        for key, value in (extra or {}).items():
            fh.write(f"{key} = {value}\n")


def read_keyvalue_file(path) -> dict:
    """Parse `key = value` lines; '#' starts a comment."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DatasetError(f"{path} line {ln}: expected 'key = value'")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def load_sidecar_config(path) -> DatasetConfig:
    kv = read_keyvalue_file(path)
    try:
        return DatasetConfig(n_codes=int(kv["N_c"]), n_features=int(kv["N_f"]),
                             max_features=int(kv["maxFeat"]))
    except KeyError as err:
        raise DatasetError(f"{path}: missing key {err}") from None
