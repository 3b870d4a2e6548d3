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

from .events import ClinicalEvent, DatasetConfig, EventSequence


class SynthConfigError(ValueError):
    """Impossible or inconsistent generator configuration."""


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
        markers = self.markers()
        if len(set(markers)) != 4:
            raise SynthConfigError(f"marker codes must be distinct, got {markers}")
        if any(m < 0 or m >= self.vocab_size for m in markers):
            raise SynthConfigError(f"marker codes {markers} must lie in "
                                   f"[0, {self.vocab_size})")
        if self.vocab_size < 5:
            raise SynthConfigError("vocab_size must leave at least one "
                                   "non-marker background code")
        lo, hi = self.seq_len_range
        if lo < 8 or hi < lo:
            raise SynthConfigError(f"seq_len_range must satisfy 8 <= min <= max, "
                                   f"got {self.seq_len_range}")
        if not (0.0 < self.positive_fraction < 1.0):
            raise SynthConfigError(f"positive_fraction must be in (0,1), "
                                   f"got {self.positive_fraction}")
        if self.base_rate <= 0 or self.t_signal <= 0:
            raise SynthConfigError("base_rate and t_signal must be positive")
        if self.n_sequences < 1:
            raise SynthConfigError("n_sequences must be >= 1")

    def markers(self):
        return (self.marker_a, self.marker_b, self.marker_c, self.marker_d)


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

    events = [ClinicalEvent(int(c), float(t), *_noise_features(rng, config))
              for c, t in zip(bg_codes, bg_times)]
    for code, t in ((config.marker_a, t_a), (config.marker_b, t_b),
                    (config.marker_c, t_c), (config.marker_d, t_d)):
        events.append(ClinicalEvent(code, t, *_noise_features(rng, config)))
    events.sort(key=lambda e: e.t)
    return EventSequence(patient_id=f"synth-{i:05d}", label=y, events=events)


def generate(config: SynthConfig):
    """Generate the configured number of sequences.

    Deterministic in config.seed; each sequence draws from its own
    (seed, index) substream so generation order (or parallel generation)
    cannot change the data.
    """
    return [_one_sequence(i, config) for i in range(config.n_sequences)]


def label_oracle(seq: EventSequence, config: SynthConfig) -> int:
    """Re-derive the label from the events alone (test oracle)."""
    a = [e.t for e in seq.events if e.code == config.marker_a]
    b = [e.t for e in seq.events if e.code == config.marker_b]
    c = [e.t for e in seq.events if e.code == config.marker_c]
    d = [e.t for e in seq.events if e.code == config.marker_d]
    window_ok = any(abs(ta - tb) <= config.t_signal for ta in a for tb in b)
    order_ok = bool(c) and bool(d) and min(c) < min(d)
    return int(window_ok and order_ok)
