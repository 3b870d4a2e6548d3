"""Synthetic labeled event sequences with planted multi-scale signal.

Every sequence carries exactly one event of each of four marker codes
(a, b, c, d) on top of a homogeneous background stream. The label is

    y = 1  iff  |t_a - t_b| <= t_signal  AND  first c precedes first d

so the discriminative information lives in short-range co-occurrence
(the a/b gap) and long-range ordering (c before d), never in counts:
negatives get the same markers at non-qualifying gaps/orders, which keeps
per-code count marginals identical across classes and starves any
frequency-based model of signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import (ConfigError, DatasetConfig, DatasetError, EventSequence,
                     build_config, check_number, event_columns, read_keyvalue_file)

# the generator's faults are ConfigErrors like every config's; the old name stays
SynthConfigError = ConfigError

# Times are hours. A background stream spans about seq_len_max / base_rate
# hours and the signal window is t_signal; both stay within MAX_HOURS, so
# every time is a finite float, and t_signal is at least MIN_SIGNAL_HOURS,
# so the signal gaps stay far above the roundoff of such times.
MAX_HOURS = 1e6
MIN_SIGNAL_HOURS = 1e-6


@dataclass(frozen=True)
class SynthConfig:
    n_sequences: int
    vocab_size: int = 50
    seq_len_range: tuple = (20, 60)
    base_rate: float = 2.0           # mean background events per hour
    t_signal: float = 0.4            # co-occurrence window, hours
    marker_a: int = 0
    marker_b: int = 1
    marker_c: int = 2
    marker_d: int = 3
    positive_fraction: float = 0.5
    seed: int = 0
    n_feature_ids: int = 8           # noise feature vocabulary
    max_features: int = 3

    def __post_init__(self):
        check_number("n_sequences", self.n_sequences, 1, integer=True)
        # four marker codes plus at least one background code
        check_number("vocab_size", self.vocab_size, 5, integer=True)
        check_number("seq_len_min", self.seq_len_min, 8, integer=True)
        check_number("seq_len_max", self.seq_len_max, self.seq_len_min, integer=True)
        check_number("base_rate", self.base_rate, 0, strict=True)
        if self.base_rate * MAX_HOURS < self.seq_len_max:
            raise ConfigError(f"base_rate must be >= seq_len_max / {MAX_HOURS:g} "
                              f"events per hour, got {self.base_rate!r}",
                              field="base_rate")
        check_number("t_signal", self.t_signal, MIN_SIGNAL_HOURS)
        if self.t_signal > MAX_HOURS:
            raise ConfigError(f"t_signal must be <= {MAX_HOURS:g}, got "
                              f"{self.t_signal!r}", field="t_signal")
        markers = self.markers()
        for k, name in enumerate(_MARKER_FIELDS):
            check_number(name, markers[k], 0, integer=True)
            if markers[k] >= self.vocab_size or markers[k] in markers[:k]:
                raise ConfigError(f"{name} must be a code in [0, {self.vocab_size}) "
                                  f"distinct from the other markers, got {markers}",
                                  field=name)
        check_number("positive_fraction", self.positive_fraction, 0, strict=True)
        if self.positive_fraction >= 1:
            raise ConfigError(f"positive_fraction must be < 1, got "
                              f"{self.positive_fraction}", field="positive_fraction")
        check_number("seed", self.seed, 0, integer=True)
        # _noise_features draws up to two distinct categorical ids per event
        check_number("n_feature_ids", self.n_feature_ids, 2, integer=True)
        check_number("max_features", self.max_features, 2, integer=True)

    @property
    def seq_len_min(self):
        return self.seq_len_range[0]

    @property
    def seq_len_max(self):
        return self.seq_len_range[1]

    def markers(self):
        return (self.marker_a, self.marker_b, self.marker_c, self.marker_d)


_MARKER_FIELDS = ("marker_a", "marker_b", "marker_c", "marker_d")

# generator-config key -> (SynthConfig field, type), in the order that
# `mrm generate` echoes them into the sidecar
SYNTH_KEYS = {"n_sequences": ("n_sequences", int), "vocab_size": ("vocab_size", int),
              "seq_len_min": ("seq_len_min", int), "seq_len_max": ("seq_len_max", int),
              "base_rate": ("base_rate", float), "T_signal": ("t_signal", float),
              **{name: (name, int) for name in _MARKER_FIELDS},
              "positive_fraction": ("positive_fraction", float), "seed": ("seed", int),
              "n_feature_ids": ("n_feature_ids", int),
              "max_features": ("max_features", int)}


# the file gives the length range by its two ends; a missing n_sequences
# reaches the checks as None
def _from_file(n_sequences=None, seq_len_min=SynthConfig.seq_len_range[0],
               seq_len_max=SynthConfig.seq_len_range[1], **fields) -> SynthConfig:
    return SynthConfig(n_sequences, seq_len_range=(seq_len_min, seq_len_max), **fields)


def load_synth_config(path, seed: int) -> SynthConfig:
    """The generator config of a key-value file of SYNTH_KEYS, generating
    with seed; a seed key in the file must equal it."""
    values = read_keyvalue_file(path, SYNTH_KEYS)
    unknown = sorted(set(values) - set(SYNTH_KEYS))
    if unknown:
        raise DatasetError(f"{path}: unknown keys {unknown}")
    return build_config(_from_file, values, SYNTH_KEYS, f"{path}: ", seed=seed)


def dataset_config_for(config: SynthConfig) -> DatasetConfig:
    return DatasetConfig(n_codes=config.vocab_size,
                         n_features=config.n_feature_ids,
                         max_features=config.max_features)


# positives keep the a/b gap clear of the window edge; negative gaps are
# pushed well past it so float roundoff can never flip the rule
_POS_GAP = (0.05, 0.95)
_NEG_GAP = (1.5, 4.0)
_MIN_ORDER_GAP_HOURS = 1.0


def _noise_features(rng, config: SynthConfig):
    n_cat = int(rng.integers(0, 3))
    # choice() of zero items draws nothing, so skipping it keeps the stream
    cat = sorted(rng.choice(config.n_feature_ids, size=n_cat,
                            replace=False).tolist()) if n_cat else []
    num = []
    if n_cat < config.max_features and rng.random() < 0.5:
        fid = int(rng.integers(0, config.n_feature_ids))
        # per-feature location/scale so normalization has real work to do
        num.append((fid, float(rng.normal(10.0 * fid, 1.0 + fid))))
    return cat, num


def _one_sequence(i: int, config: SynthConfig) -> EventSequence:
    rng = np.random.default_rng([config.seed, i])
    y = 1 if rng.random() < config.positive_fraction else 0
    length = int(rng.integers(config.seq_len_range[0], config.seq_len_range[1] + 1))
    n_background = length - 4

    bg_times = np.cumsum(rng.exponential(1.0 / config.base_rate, size=n_background))
    span = float(bg_times[-1]) if n_background else length / config.base_rate
    non_markers = [c for c in range(config.vocab_size) if c not in config.markers()]
    bg_codes = rng.choice(non_markers, size=n_background, replace=True)

    if y:
        window_ok, order_ok = True, True
    else:
        r = rng.random()
        window_ok, order_ok = (False, True) if r < 0.4 else \
                              (True, False) if r < 0.8 else (False, False)

    t_a = float(rng.uniform(0.0, span))
    gap_range = _POS_GAP if window_ok else _NEG_GAP
    gap = float(rng.uniform(*gap_range)) * config.t_signal
    t_b = t_a + (gap if rng.random() < 0.5 else -gap)
    if t_b < 0.0:
        t_b = t_a + gap

    early = float(rng.uniform(0.0, span))
    late = early + float(rng.uniform(_MIN_ORDER_GAP_HOURS,
                                     _MIN_ORDER_GAP_HOURS + 0.5 * span))
    t_c, t_d = (early, late) if order_ok else (late, early)

    codes = np.concatenate([bg_codes, config.markers()])
    times = np.concatenate([bg_times, [t_a, t_b, t_c, t_d]])
    features = [_noise_features(rng, config) for _ in range(length)]
    order = np.argsort(times, kind="stable")  # ties keep the draw order
    return EventSequence.from_columns(f"synth-{i:05d}", y, *event_columns(
        codes[order], times[order], [features[k][0] for k in order],
        [features[k][1] for k in order]))


def generate(config: SynthConfig):
    """Generate the configured number of sequences.

    Deterministic in config.seed; each sequence draws from its own
    (seed, index) substream so generation order (or parallel generation)
    cannot change the data.
    """
    return [_one_sequence(i, config) for i in range(config.n_sequences)]


def label_oracle(seq: EventSequence, config: SynthConfig) -> int:
    """Re-derive the label from the events alone (test oracle)."""
    codes, times = seq.codes, seq.times()
    a, b, c, d = (times[codes == m] for m in config.markers())
    window_ok = bool(np.any(np.abs(a[:, None] - b[None, :]) <= config.t_signal))
    order_ok = c.size > 0 and d.size > 0 and c.min() < d.min()
    return int(window_ok and order_ok)
