"""Event/sequence data model, file IO, normalization, counts and splits.

A dataset file is UTF-8 with one JSON record per line:

    {"patient_id": "p1", "label": 1, "events": [
        {"code": 17, "t": 3.5, "cat": [2], "num": [[4, 0.82]]}, ...]}

A sidecar flat key-value file carries the vocabulary sizes::

    N_c = 3418
    N_f = 649
    maxFeat = 3

In memory a sequence is a set of numpy columns, not a list of event
objects: one code and one time per event, and the features in CSR form
(flat id and value arrays plus row pointers).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import numbers
import operator
import sys
from dataclasses import dataclass, field

import numpy as np


class DatasetError(ValueError):
    """Malformed or out-of-range dataset content."""


class ConfigError(ValueError):
    """A configuration value of a wrong type or out of range. field names
    the offending field when the fault is one field's alone."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def check_number(name, value, least=None, integer=False, strict=False, most=None):
    """Raise ConfigError unless value is a finite number >= least (> least
    when strict), or an integer >= least when integer is set, and at most
    most when given. Bools are no numbers here."""
    number = (not isinstance(value, bool)
              and isinstance(value, numbers.Integral if integer else numbers.Real)
              # an int is finite however large; math.isfinite may overflow on it
              and (isinstance(value, numbers.Integral) or math.isfinite(value)))
    if not number or (least is not None and (value <= least if strict
                                             else value < least)):
        bound = "" if least is None else f" {'>' if strict else '>='} {least:g}"
        what = "an integer" if integer else "a finite number"
        raise ConfigError(f"{name} must be {what}{bound}, got {_quote(value)}", field=name)
    if most is not None and value > most:
        raise ConfigError(f"{name} must be at most {most}, got {_quote(value)}",
                          field=name)


@dataclass(slots=True)
class ClinicalEvent:
    """One timestamped record: type code, occurrence time in hours, and
    up to max_features categorical/numerical feature attachments."""

    code: int
    t: float
    cat_features: list = field(default_factory=list)
    num_features: list = field(default_factory=list)  # (feature_id, value) pairs


def _pointers(counts) -> np.ndarray:
    """CSR row pointers: 0 followed by the running sum of counts."""
    return np.array([0, *itertools.accumulate(counts)], dtype=np.int32)


def _take_rows(ptr: np.ndarray, index: np.ndarray):
    """Row pointers of the CSR rows ``index`` (in that order), of the
    dtype of ptr, and the positions of their items in the flat array."""
    first = ptr[index]
    counts = ptr[index + 1] - first
    new_ptr = np.zeros(index.size + 1, dtype=ptr.dtype)
    np.cumsum(counts, out=new_ptr[1:])
    item = np.repeat(first - new_ptr[:-1], counts) + np.arange(new_ptr[-1])
    return new_ptr, item


def _rows(codes, times, cat_ptr, cat_ids, num_ptr, num_ids, num_values):
    """(code, t, cat_features, num_features) of every event, from columns
    given as Python lists."""
    pairs = list(zip(num_ids, num_values))
    return zip(codes, times,
               map(cat_ids.__getitem__, map(slice, cat_ptr, cat_ptr[1:])),
               map(pairs.__getitem__, map(slice, num_ptr, num_ptr[1:])))


_DTYPES = (np.int32, np.float64, np.int32, np.int32, np.int32, np.int32, np.float64)


def event_columns(codes, times, cat_features, num_features) -> tuple:
    """The columns, in the order of EventSequence.columns(), of events
    given as per-event sequences: codes, times, each event's categorical
    feature ids and each event's (feature_id, value) pairs."""
    pairs = [p for event_pairs in num_features for p in event_pairs]
    return (np.array(codes, dtype=np.int32), np.array(times, dtype=np.float64),
            _pointers(map(len, cat_features)),
            np.array([f for ids in cat_features for f in ids], dtype=np.int32),
            _pointers(map(len, num_features)),
            np.array([fid for fid, _ in pairs], dtype=np.int32),
            np.array([v for _, v in pairs], dtype=np.float64))


class EventSequence:
    """A labeled patient record stored as columns, one entry per event.

    ``codes`` (int32) and ``times()`` (float64) have one entry per event.
    Event i's categorical feature ids are
    ``cat_ids[cat_ptr[i]:cat_ptr[i + 1]]``, and its numerical feature ids
    and values are ``num_ids`` and ``num_values`` over the same range of
    ``num_ptr``. Sequences derived from one another (normalized, reordered
    or concatenated) may share columns, so the arrays must not be changed
    in place.

    The constructor takes ClinicalEvents and neither sorts nor validates
    them; load_dataset does both. ``events`` builds ClinicalEvents from
    the columns on demand.
    """

    __slots__ = ("patient_id", "label", "codes", "_times", "cat_ptr", "cat_ids",
                 "num_ptr", "num_ids", "num_values")

    def __init__(self, patient_id, label, events):
        events = list(events)
        self._set(patient_id, label, *event_columns(
            [e.code for e in events], [e.t for e in events],
            [e.cat_features for e in events], [e.num_features for e in events]))

    def _set(self, patient_id, label, codes, times, cat_ptr, cat_ids, num_ptr,
             num_ids, num_values):
        self.patient_id = patient_id
        self.label = label
        self.codes = codes
        self._times = times
        self.cat_ptr = cat_ptr
        self.cat_ids = cat_ids
        self.num_ptr = num_ptr
        self.num_ids = num_ids
        self.num_values = num_values

    @classmethod
    def from_columns(cls, patient_id, label, *columns):
        """A sequence over the given arrays, in the order of columns()."""
        seq = cls.__new__(cls)
        seq._set(patient_id, label, *columns)
        return seq

    def columns(self) -> tuple:
        """(codes, times, cat_ptr, cat_ids, num_ptr, num_ids, num_values)."""
        return (self.codes, self._times, self.cat_ptr, self.cat_ids, self.num_ptr,
                self.num_ids, self.num_values)

    def __len__(self):
        return self.codes.size

    def times(self) -> np.ndarray:
        return self._times

    @property
    def events(self) -> list:
        """The events as ClinicalEvents, built afresh on every access."""
        return [ClinicalEvent(*row)
                for row in _rows(*(c.tolist() for c in self.columns()))]

    def take(self, index) -> EventSequence:
        """The events at ``index`` (an integer array), in that order."""
        index = np.asarray(index, dtype=np.intp)
        cat_ptr, cat_item = _take_rows(self.cat_ptr, index)
        num_ptr, num_item = _take_rows(self.num_ptr, index)
        return EventSequence.from_columns(
            self.patient_id, self.label, self.codes[index], self._times[index],
            cat_ptr, self.cat_ids[cat_item], num_ptr, self.num_ids[num_item],
            self.num_values[num_item])

    def __eq__(self, other):
        if not isinstance(other, EventSequence):
            return NotImplemented
        return (self.patient_id == other.patient_id and self.label == other.label
                and all(np.array_equal(a, b)
                        for a, b in zip(self.columns(), other.columns())))

    def __repr__(self):
        return (f"EventSequence(patient_id={self.patient_id!r}, label={self.label!r}, "
                f"n_events={len(self)})")


def concatenate(sequences) -> EventSequence:
    """The events of every sequence back to back, as one sequence whose
    patient_id and label mean nothing (a single sequence comes back as it
    is). Its times restart at every seam, so it only carries per-event
    work such as encoding."""
    if len(sequences) == 1:
        return sequences[0]
    cols = list(zip(*(s.columns() for s in sequences)))
    sizes = [len(s) for s in sequences]

    def pointers(ptrs):
        # sequence b's pointers shift by the items of the sequences before it
        shift = np.zeros(len(ptrs), dtype=np.int64)
        np.cumsum([p[-1] for p in ptrs[:-1]], out=shift[1:])
        out = np.zeros(sum(sizes) + 1, dtype=np.int64)
        np.concatenate([p[1:] for p in ptrs], out=out[1:])
        out[1:] += np.repeat(shift, sizes)
        return out

    codes, times, cat_ptr, cat_ids, num_ptr, num_ids, num_values = cols
    return EventSequence.from_columns(
        "", 0, np.concatenate(codes), np.concatenate(times), pointers(cat_ptr),
        np.concatenate(cat_ids), pointers(num_ptr), np.concatenate(num_ids),
        np.concatenate(num_values))


_MAX_INDEX = int(np.iinfo(np.intp).max)


@dataclass(frozen=True)
class DatasetConfig:
    """Vocabulary sizes plus (once fitted) per-feature normalization stats."""

    n_codes: int
    n_features: int
    max_features: int
    feature_stats: dict | None = None  # feature_id -> (mean, std), std pre-floored

    def __post_init__(self):
        # a vocabulary size is an array length, so it must fit an index
        check_number("n_codes", self.n_codes, 1, integer=True, most=_MAX_INDEX)
        check_number("n_features", self.n_features, 0, integer=True, most=_MAX_INDEX)
        check_number("max_features", self.max_features, 0, integer=True)
        for fid, (mean, std) in (self.feature_stats or {}).items():
            check_number(f"feature_stats[{fid}] mean", mean)
            check_number(f"feature_stats[{fid}] std", std, 0, strict=True)


def _quote(value, show=repr) -> str:
    """show(value) for an error message, cut to its first 80 characters
    plus "…" when longer, so a huge or deeply nested value in a file makes
    a short message."""
    text = show(value)
    return text if len(text) <= 80 else text[:80] + "…"


def _first_fault(rules):
    """The message of the first rule broken, or None. A rule is (values, ok,
    message): ok tests a list of values at once, and message(i) names
    values[i], the first value that fails ok on its own."""
    for values, ok, message in rules:
        if not ok(values):
            return message(next(i for i in range(len(values)) if not ok(values[i:i + 1])))
    return None


def _integers(values) -> bool:
    return set(map(type, values)) <= {int}


def _numbers(values) -> bool:
    """Whether every value is a number a float can hold."""
    kinds = set(map(type, values))
    return kinds <= {float} or kinds <= {int, float} and all(
        abs(v) <= sys.float_info.max for v in values if type(v) is int)


def _finite(values) -> bool:
    return all(map(math.isfinite, values))


def _type_fault(codes, times, cat_ptr, cat_ids, num_ptr, num_ids, num_values):
    """The message of the first type rule the columns break, or None: codes
    and feature ids are JSON integers, times and values are JSON numbers a
    float can hold, and a bool is neither."""
    integer, number = "must be an integer, got", "must be a finite number, got"
    return _first_fault((
        (codes, _integers, lambda i: f"code {integer} {_quote(codes[i])}"),
        (times, _numbers, lambda i: f"t {number} {_quote(times[i])}"),
        (cat_ids, _integers,
         lambda i: f"categorical feature id {integer} {_quote(cat_ids[i])}"),
        (num_ids, _integers,
         lambda i: f"numerical feature id {integer} {_quote(num_ids[i])}"),
        (num_values, _numbers, lambda i: f"value of feature {_quote(num_ids[i])} "
                                         f"{number} {_quote(num_values[i])}")))


def _range_fault(config, codes, times, cat_ptr, cat_ids, num_ptr, num_ids, num_values):
    """The message of the first range rule of config the columns break, or
    None; every value is of its type already."""
    def below(end):
        return lambda values: not values or (0 <= min(values) and max(values) < end)

    n_c, n_f, max_f = config.n_codes, config.n_features, config.max_features
    per_event = list(map(operator.add, cat_ptr, num_ptr))
    counts = list(map(operator.sub, per_event[1:], per_event))
    return _first_fault((
        (codes, below(n_c), lambda i: f"code {_quote(codes[i])} outside [0, {n_c})"),
        (times, _finite, lambda i: f"non-finite time {_quote(times[i])}"),
        (counts, lambda values: max(values) <= max_f,
         lambda i: f"{cat_ptr[i + 1] - cat_ptr[i]} categorical + "
                   f"{num_ptr[i + 1] - num_ptr[i]} numerical features exceed "
                   f"maxFeat={max_f}"),
        (cat_ids, below(n_f),
         lambda i: f"categorical feature id {_quote(cat_ids[i])} outside [0, {n_f})"),
        (num_ids, below(n_f),
         lambda i: f"numerical feature id {_quote(num_ids[i])} outside [0, {n_f})"),
        (num_values, _finite,
         lambda i: f"non-finite value for feature {_quote(num_ids[i])}")))


def _shape_fault(raw):
    """The message of the first shape rule event ``raw`` breaks, or None: an
    event is an object with a code and a t, its cat a list of ids and its
    num a list of [id, value] pairs."""
    if type(raw) is not dict:
        return f"event must be a JSON object, got {type(raw).__name__}"
    for key in ("code", "t"):
        if key not in raw:
            return f"missing key {key!r}"
    if type(raw.get("cat", [])) is not list:
        return f"cat must be a list of feature ids, got {_quote(raw['cat'])}"
    num = raw.get("num", [])
    if type(num) is not list or not all(type(p) is list and len(p) == 2 for p in num):
        return f"num must be a list of [id, value] pairs, got {_quote(num)}"
    return None


def _check(fault, columns, where):
    """Raise DatasetError when fault(*columns) finds a fault, naming the
    first event k that has one (as where(k)) and the message fault gives
    for that event alone."""
    if fault(*columns) is None:
        return
    codes, times, cat_ptr, cat_ids, num_ptr, num_ids, num_values = columns
    for k in range(len(codes)):
        (c0, c1), (n0, n1) = cat_ptr[k:k + 2], num_ptr[k:k + 2]
        message = fault(codes[k:k + 1], times[k:k + 1], [0, c1 - c0], cat_ids[c0:c1],
                        [0, n1 - n0], num_ids[n0:n1], num_values[n0:n1])
        if message is not None:
            raise DatasetError(f"{where(k)}: {message}")


def _parse_record(obj, config: DatasetConfig, where: str) -> EventSequence:
    if not isinstance(obj, dict):
        raise DatasetError(f"{where}: record must be a JSON object, got "
                           f"{type(obj).__name__}")
    try:
        patient_id = str(obj["patient_id"])
        label = obj["label"]
        raw_events = obj["events"]
    except KeyError as err:
        raise DatasetError(f"{where}: missing key {err}") from None
    if isinstance(label, bool) or label not in (0, 1):  # True == 1 in Python
        raise DatasetError(f"{where}: label must be 0 or 1, got {_quote(label)}")
    if not isinstance(raw_events, list):
        raise DatasetError(f"{where}: events must be a list, got "
                           f"{type(raw_events).__name__}")
    if not raw_events:
        raise DatasetError(f"{where}: empty event list")
    codes, times, cat_ptr, cat_ids, num_ptr, pairs = [], [], [0], [], [0], []
    try:
        for raw in raw_events:
            codes.append(raw["code"])
            times.append(raw["t"])
            cat, num = raw.get("cat", []), raw.get("num", [])
            if type(cat) is not list or type(num) is not list:
                raise TypeError
            cat_ids.extend(cat)
            pairs.extend(num)
            cat_ptr.append(len(cat_ids))
            num_ptr.append(len(pairs))
        if not (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}):
            raise TypeError
    except (KeyError, TypeError):  # some event breaks a shape rule: name the first
        k, message = next((k, m) for k, m in enumerate(map(_shape_fault, raw_events)) if m)
        raise DatasetError(f"{where}: bad event {k}: {message}") from None
    columns = (codes, times, cat_ptr, cat_ids, num_ptr,
               [fid for fid, _ in pairs], [v for _, v in pairs])
    # every shape fault before any type fault, and every type fault before
    # any range fault: the range rules compare values
    _check(_type_fault, columns, lambda k: f"{where}: bad event {k}")
    _check(lambda *c: _range_fault(config, *c), columns, lambda k: f"{where} event {k}")
    seq = EventSequence.from_columns(
        patient_id, int(label), *(np.array(c, dtype=dtype)
                                  for c, dtype in zip(columns, _DTYPES)))
    if (seq.times()[1:] < seq.times()[:-1]).any():
        seq = seq.take(np.argsort(seq.times(), kind="stable"))  # ties keep file order
    return seq


def load_dataset(path, config: DatasetConfig):
    """Parse a line-delimited dataset file, validating against config.

    Events come back sorted by time (stable for ties). Errors name the
    offending 1-based line number; a file without records is an error.
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
            # an integer past int's digit limit, or nesting past the
            # interpreter's recursion limit
            except (ValueError, RecursionError) as err:
                raise DatasetError(f"line {ln}: {err}") from None
            sequences.append(_parse_record(obj, config, f"line {ln}"))
    if not sequences:
        raise DatasetError(f"{path}: no records")
    return sequences


def write_dataset(path, sequences):
    """Write sequences in the line-delimited format (deterministic bytes)."""
    with open(path, "w", encoding="utf-8") as fh:
        for seq in sequences:
            rec = {
                "patient_id": seq.patient_id,
                "label": seq.label,
                "events": [{"code": code, "t": t, "cat": cat, "num": num}
                           for code, t, cat, num in
                           _rows(*(c.tolist() for c in seq.columns()))],
            }
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


STD_FLOOR = 1e-6


def fit_normalization(sequences, config: DatasetConfig) -> DatasetConfig:
    """Per-feature mean/std from (training) sequences, std floored.

    Every feature id in [0, n_features) gets an entry; ids never observed
    keep the pass-through stats (0, 1). Returns a new config, the input is
    untouched.
    """
    ids = np.concatenate([np.zeros(0, dtype=np.int32)]
                         + [s.num_ids for s in sequences])
    values = np.concatenate([np.zeros(0)] + [s.num_values for s in sequences])
    order = np.argsort(ids, kind="stable")  # per feature, in sequence order
    ids, values = ids[order], values[order]
    bounds = np.searchsorted(ids, np.arange(config.n_features + 1))
    stats = {}
    for fid in range(config.n_features):
        arr = values[bounds[fid]:bounds[fid + 1]]
        if arr.size:
            stats[fid] = (float(arr.mean()), max(float(arr.std()), STD_FLOOR))
        else:
            stats[fid] = (0.0, 1.0)
    return dataclasses.replace(config, feature_stats=stats)


def normalize_numeric(sequences, config: DatasetConfig):
    """Replace each numerical value v by (v - mean) / std using the stats
    stored in config (fitted on the training split). Pure: returns new
    sequences, which share every column but the values with their inputs.
    Apply once; idempotence is not promised."""
    if config.feature_stats is None:
        raise DatasetError("config has no normalization stats; fit on the "
                           "training split first")
    n_f = config.n_features
    mean = np.zeros(n_f)
    std = np.ones(n_f)
    known = np.zeros(n_f, dtype=bool)
    for fid, (m, s) in config.feature_stats.items():
        if 0 <= fid < n_f:
            mean[fid], std[fid], known[fid] = m, s, True
    out = []
    for seq in sequences:
        ids = seq.num_ids
        ok = (ids >= 0) & (ids < n_f)
        ok[ok] = known[ids[ok]]
        if not ok.all():
            raise DatasetError(f"unknown feature id {int(ids[np.argmin(ok)])}")
        *columns, values = seq.columns()
        out.append(EventSequence.from_columns(seq.patient_id, seq.label, *columns,
                                              (values - mean[ids]) / std[ids]))
    return out


def frequency_vector(seq: EventSequence, n_codes: int) -> np.ndarray:
    """Per-code occurrence counts; entries sum to the sequence length."""
    codes = seq.codes
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
# flat key-value files: the sidecar, the generator config and the report

# file key -> (config field, type); the sidecar and the checkpoint's
# "dataset" block both spell the vocabulary sizes so
DATASET_KEYS = {"N_c": ("n_codes", int), "N_f": ("n_features", int),
                "maxFeat": ("max_features", int)}


def entries(config, keys: dict) -> dict:
    """{key: value of its field in config} over a key table, in its order."""
    return {key: getattr(config, field) for key, (field, _) in keys.items()}


def build_config(make, values: dict, keys: dict, where: str, **given):
    """make(**given, ...) with the value of each table key in values passed
    as the key's config field; entries outside the table are ignored, and
    a value given for the same field must be equal. A ConfigError of make
    raises DatasetError naming where + the key."""
    fields = {field: values[key] for key, (field, _) in keys.items() if key in values}
    for key, (field, _) in keys.items():
        if field in fields and field in given and fields[field] != given[field]:
            raise DatasetError(f"{where}{key}: holds {_quote(fields[field])}, but "
                               f"{_quote(given[field])} is given")
    try:
        return make(**{**fields, **given})
    except ConfigError as err:
        key = next((key for key, (field, _) in keys.items() if field == err.field),
                   err.field)
        raise DatasetError(f"{where}{key}: {err}") from None


def read_keyvalue_file(path, keys: dict | None = None) -> dict:
    """Parse `key = value` lines; '#' starts a comment and a key may occur
    once. Values of the keys in the table are converted by its type, the
    others stay strings."""
    out, lines = {}, {}
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DatasetError(f"{path} line {ln}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in lines:
                raise DatasetError(f"{path} line {ln}: {_quote(key, str)} repeats "
                                   f"line {lines[key]}")
            lines[key] = ln
            kind = keys[key][1] if keys and key in keys else str
            try:
                out[key] = kind(value)
            except ValueError:
                raise DatasetError(f"{path} line {ln}: {key} must be "
                                   f"{'an integer' if kind is int else 'a number'}, "
                                   f"got {_quote(value)}") from None
    return out


def write_keyvalues(path, mapping: dict):
    """Write one `key = value` line per entry, in the mapping's order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in mapping.items())


def write_sidecar_config(path, config: DatasetConfig, extra: dict | None = None):
    write_keyvalues(path, {**entries(config, DATASET_KEYS), **(extra or {})})


def load_sidecar_config(path) -> DatasetConfig:
    values = read_keyvalue_file(path, DATASET_KEYS)
    missing = [key for key in DATASET_KEYS if key not in values]
    if missing:
        raise DatasetError(f"{path}: missing key {missing[0]!r}")
    return build_config(DatasetConfig, values, DATASET_KEYS, f"{path}: ")
