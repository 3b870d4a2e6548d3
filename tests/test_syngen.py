import numpy as np
import pytest

from mrm import events as ev
from mrm import syngen


BASE = dict(n_sequences=50, vocab_size=20, seq_len_range=(10, 24),
            base_rate=2.0, t_signal=0.5, marker_a=0, marker_b=1,
            marker_c=2, marker_d=3, positive_fraction=0.5, seed=11)


def test_config_rejects_duplicate_markers():
    with pytest.raises(syngen.SynthConfigError):
        syngen.SynthConfig(**{**BASE, "marker_b": 0})


def test_config_rejects_marker_outside_vocab():
    with pytest.raises(syngen.SynthConfigError):
        syngen.SynthConfig(**{**BASE, "marker_d": 20})


def test_config_rejects_short_sequences():
    with pytest.raises(syngen.SynthConfigError):
        syngen.SynthConfig(**{**BASE, "seq_len_range": (4, 10)})


def test_config_rejects_degenerate_fraction():
    with pytest.raises(syngen.SynthConfigError):
        syngen.SynthConfig(**{**BASE, "positive_fraction": 1.0})


@pytest.mark.parametrize("field, value", [
    ("t_signal", float("inf")), ("t_signal", float("nan")), ("base_rate", float("nan")),
    ("base_rate", 0.0), ("positive_fraction", float("nan")), ("n_feature_ids", 1),
    ("n_feature_ids", 0), ("max_features", 1), ("max_features", 0),
    ("n_sequences", 2.0), ("vocab_size", True), ("marker_c", 2.5), ("seed", -1),
    ("base_rate", 1e-310), ("t_signal", 1e308), ("t_signal", 1e-300),
])
def test_config_rejects_a_bad_field_naming_it(field, value):
    with pytest.raises(syngen.SynthConfigError) as err:
        syngen.SynthConfig(**{**BASE, field: value})
    assert err.value.field == field


def test_config_names_the_end_of_a_bad_length_range():
    for bounds, field in (((7, 10), "seq_len_min"), ((10, 9), "seq_len_max"),
                          ((8, 9.5), "seq_len_max")):
        with pytest.raises(syngen.SynthConfigError) as err:
            syngen.SynthConfig(**{**BASE, "seq_len_range": bounds})
        assert err.value.field == field


@pytest.mark.parametrize("fields", [
    dict(base_rate=60 / syngen.MAX_HOURS, seq_len_range=(20, 60)),
    dict(t_signal=syngen.MIN_SIGNAL_HOURS), dict(t_signal=syngen.MAX_HOURS),
    dict(base_rate=60 / syngen.MAX_HOURS, t_signal=syngen.MIN_SIGNAL_HOURS),
])
def test_time_scales_at_the_bounds_keep_times_finite_and_labels_exact(fields):
    config = syngen.SynthConfig(**{**BASE, "n_sequences": 100, **fields})
    for seq in syngen.generate(config):
        assert np.all(np.isfinite(seq.times()))
        assert syngen.label_oracle(seq, config) == seq.label


def test_label_oracle_window_and_order_satisfied():
    cfg = syngen.SynthConfig(**BASE)
    seq = ev.EventSequence("x", 1, sorted([
        ev.ClinicalEvent(0, 1.0, [], []),   # a
        ev.ClinicalEvent(1, 1.2, [], []),   # b, gap 0.2 <= 0.5
        ev.ClinicalEvent(2, 0.5, [], []),   # c first
        ev.ClinicalEvent(3, 3.0, [], []),   # d later
    ], key=lambda e: e.t))
    assert syngen.label_oracle(seq, cfg) == 1


def test_label_oracle_window_violated():
    cfg = syngen.SynthConfig(**BASE)
    seq = ev.EventSequence("x", 0, sorted([
        ev.ClinicalEvent(0, 1.0, [], []),
        ev.ClinicalEvent(1, 2.0, [], []),   # gap 1.0 > 0.5
        ev.ClinicalEvent(2, 0.5, [], []),
        ev.ClinicalEvent(3, 3.0, [], []),
    ], key=lambda e: e.t))
    assert syngen.label_oracle(seq, cfg) == 0


def test_generated_sequences_satisfy_event_invariants():
    cfg = syngen.SynthConfig(**BASE)
    data_cfg = syngen.dataset_config_for(cfg)
    for seq in syngen.generate(cfg):
        assert cfg.seq_len_range[0] <= len(seq) <= cfg.seq_len_range[1]
        assert all(a.t <= b.t for a, b in zip(seq.events, seq.events[1:]))
        for e in seq.events:
            assert 0 <= e.code < data_cfg.n_codes
            assert len(e.cat_features) + len(e.num_features) <= data_cfg.max_features
            assert all(0 <= f < data_cfg.n_features for f in e.cat_features)
        counts = {m: sum(e.code == m for e in seq.events) for m in cfg.markers()}
        assert all(c == 1 for c in counts.values())


def test_positive_count_within_binomial_band():
    cfg = syngen.SynthConfig(**{**BASE, "n_sequences": 1000})
    seqs = syngen.generate(cfg)
    n_pos = sum(s.label for s in seqs)
    assert 450 <= n_pos <= 550


def test_oracle_reproduces_stored_labels_exactly():
    cfg = syngen.SynthConfig(**{**BASE, "n_sequences": 10_000, "seed": 3})
    seqs = syngen.generate(cfg)
    assert all(syngen.label_oracle(s, cfg) == s.label for s in seqs)


def test_marker_count_marginals_match_across_classes():
    cfg = syngen.SynthConfig(**{**BASE, "n_sequences": 2000})
    seqs = syngen.generate(cfg)
    for marker in cfg.markers():
        means = []
        for label in (0, 1):
            counts = [sum(e.code == marker for e in s.events)
                      for s in seqs if s.label == label]
            means.append(np.mean(counts))
        assert abs(means[0] - means[1]) / max(means) < 0.05


def test_generation_deterministic_bytes(tmp_path):
    cfg = syngen.SynthConfig(**BASE)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    ev.write_dataset(p1, syngen.generate(cfg))
    ev.write_dataset(p2, syngen.generate(cfg))
    assert p1.read_bytes() == p2.read_bytes()


def test_generated_file_loads_cleanly(tmp_path):
    cfg = syngen.SynthConfig(**BASE)
    path = tmp_path / "d.jsonl"
    ev.write_dataset(path, syngen.generate(cfg))
    back = ev.load_dataset(path, syngen.dataset_config_for(cfg))
    assert len(back) == cfg.n_sequences
