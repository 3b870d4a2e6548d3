import collections
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrm import events as ev


CFG = ev.DatasetConfig(n_codes=8, n_features=5, max_features=3)


def write_lines(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def record(events, patient_id="p1", label=0):
    return {"patient_id": patient_id, "label": label, "events": events}


def test_load_single_record():
    import tempfile, os
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "data.jsonl")
        write_lines(path, [record([
            {"code": 1, "t": 0.0, "cat": [], "num": []},
            {"code": 2, "t": 1.0, "cat": [0], "num": [[1, 2.5]]},
            {"code": 3, "t": 2.0, "cat": [], "num": []},
        ])])
        seqs = ev.load_dataset(path, CFG)
    assert len(seqs) == 1
    assert len(seqs[0]) == 3
    assert seqs[0].events[1].num_features == [(1, 2.5)]


def test_load_sorts_by_time_stable_for_ties(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [record([
        {"code": 3, "t": 5.0, "cat": [], "num": []},
        {"code": 1, "t": 1.0, "cat": [], "num": []},
        {"code": 4, "t": 1.0, "cat": [], "num": []},  # tie: keeps file order
        {"code": 2, "t": 0.5, "cat": [], "num": []},
    ])])
    seq = ev.load_dataset(path, CFG)[0]
    assert [e.code for e in seq.events] == [2, 1, 4, 3]
    assert all(a.t <= b.t for a, b in zip(seq.events, seq.events[1:]))


def test_load_rejects_code_at_vocab_size(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [
        record([{"code": 0, "t": 0.0, "cat": [], "num": []}]),
        record([{"code": CFG.n_codes, "t": 0.0, "cat": [], "num": []}]),
    ])
    with pytest.raises(ev.DatasetError) as exc:
        ev.load_dataset(path, CFG)
    assert "line 2" in str(exc.value)


def test_load_rejects_malformed_json_with_line_number(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"patient_id": "a", "label": 0, "events": [{"code":0,"t":0}]}\nnot json\n')
    with pytest.raises(ev.DatasetError) as exc:
        ev.load_dataset(path, CFG)
    assert "line 2" in str(exc.value)


def test_load_rejects_too_many_features(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [record([
        {"code": 0, "t": 0.0, "cat": [0, 1, 2], "num": [[3, 1.0]]},
    ])])
    with pytest.raises(ev.DatasetError) as exc:
        ev.load_dataset(path, CFG)
    assert "maxFeat" in str(exc.value)


def test_load_rejects_empty_event_list(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [record([])])
    with pytest.raises(ev.DatasetError) as exc:
        ev.load_dataset(path, CFG)
    assert "empty" in str(exc.value)


def test_load_rejects_bad_label(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [record([{"code": 0, "t": 0.0}], label=2)])
    with pytest.raises(ev.DatasetError):
        ev.load_dataset(path, CFG)


@pytest.mark.parametrize("label", [True, False])
def test_load_rejects_bool_label(tmp_path, label):
    # bool is an int subclass, so True would otherwise load as label 1
    path = tmp_path / "d.jsonl"
    write_lines(path, [record([{"code": 0, "t": 0.0}], label=label)])
    with pytest.raises(ev.DatasetError) as exc:
        ev.load_dataset(path, CFG)
    assert "label" in str(exc.value)


def test_write_load_roundtrip(tmp_path):
    seqs = [ev.EventSequence("p7", 1, [
        ev.ClinicalEvent(2, 0.25, [1], [(0, -3.5)]),
        ev.ClinicalEvent(5, 1.75, [], []),
    ])]
    path = tmp_path / "d.jsonl"
    ev.write_dataset(path, seqs)
    back = ev.load_dataset(path, CFG)
    assert back == seqs


# ---------------------------------------------------------------------------
# normalization


def seqs_with_values(values, fid=1):
    return [ev.EventSequence("p", 0, [
        ev.ClinicalEvent(0, float(i), [], [(fid, float(v))])
        for i, v in enumerate(values)])]


def test_normalize_training_mean_maps_to_zero():
    seqs = seqs_with_values([4.0, 6.0])
    cfg = ev.fit_normalization(seqs, CFG)
    out = ev.normalize_numeric(seqs_with_values([5.0]), cfg)
    assert out[0].events[0].num_features[0][1] == 0.0


def test_normalize_constant_feature_uses_floor():
    seqs = seqs_with_values([2.0, 2.0, 2.0])
    cfg = ev.fit_normalization(seqs, CFG)
    assert cfg.feature_stats[1] == (2.0, 1e-6)
    out = ev.normalize_numeric(seqs_with_values([2.0 + 1e-9]), cfg)
    value = out[0].events[0].num_features[0][1]
    assert np.isfinite(value) and abs(value - 1e-9 / 1e-6) < 1e-6


def test_normalize_hand_computed_zscores():
    seqs = seqs_with_values([1.0, 2.0, 3.0])
    cfg = ev.fit_normalization(seqs, CFG)
    out = ev.normalize_numeric(seqs, cfg)
    got = [e.num_features[0][1] for e in out[0].events]
    assert np.allclose(got, [-1.2247, 0.0, 1.2247], atol=1e-4)


def test_normalize_unknown_feature_id():
    cfg = ev.DatasetConfig(8, 5, 3, feature_stats={0: (0.0, 1.0)})
    with pytest.raises(ev.DatasetError) as exc:
        ev.normalize_numeric(seqs_with_values([1.0], fid=4), cfg)
    assert "unknown feature id" in str(exc.value)


def test_normalize_requires_fitted_stats():
    with pytest.raises(ev.DatasetError):
        ev.normalize_numeric(seqs_with_values([1.0]), CFG)


def test_stats_come_from_training_split_only():
    train = seqs_with_values([1.0, 2.0, 3.0])
    cfg = ev.fit_normalization(train, CFG)
    frozen = dict(cfg.feature_stats)
    # applying to other splits must not touch the fitted stats
    ev.normalize_numeric(seqs_with_values([100.0, 200.0]), cfg)
    assert cfg.feature_stats == frozen
    assert ev.fit_normalization(train, CFG).feature_stats == frozen


def test_normalize_is_pure():
    seqs = seqs_with_values([1.0, 2.0, 3.0])
    cfg = ev.fit_normalization(seqs, CFG)
    before = [e.num_features[0][1] for e in seqs[0].events]
    ev.normalize_numeric(seqs, cfg)
    assert [e.num_features[0][1] for e in seqs[0].events] == before


# ---------------------------------------------------------------------------
# frequency vector


def test_frequency_vector_counts():
    seq = ev.EventSequence("p", 0, [ev.ClinicalEvent(c, float(i), [], [])
                                    for i, c in enumerate([2, 2, 5])])
    fv = ev.frequency_vector(seq, 8)
    expected = np.zeros(8)
    expected[2], expected[5] = 2, 1
    assert np.array_equal(fv, expected)


def test_frequency_vector_code_out_of_range():
    seq = ev.EventSequence("p", 0, [ev.ClinicalEvent(9, 0.0, [], [])])
    with pytest.raises(ev.DatasetError):
        ev.frequency_vector(seq, 8)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=50))
def test_frequency_vector_conserves_length(codes):
    seq = ev.EventSequence("p", 0, [ev.ClinicalEvent(c, float(i), [], [])
                                    for i, c in enumerate(codes)])
    fv = ev.frequency_vector(seq, 8)
    assert fv.min() >= 0
    assert fv.sum() == len(codes)


def test_frequency_vector_matches_tally_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        codes = rng.integers(0, 8, size=rng.integers(1, 40))
        seq = ev.EventSequence("p", 0, [ev.ClinicalEvent(int(c), float(i), [], [])
                                        for i, c in enumerate(codes)])
        fv = ev.frequency_vector(seq, 8)
        tally = collections.Counter(int(c) for c in codes)
        assert all(fv[c] == tally.get(c, 0) for c in range(8))


# ---------------------------------------------------------------------------
# splits


def make_seqs(n):
    return [ev.EventSequence(f"p{i}", i % 2, [ev.ClinicalEvent(0, 0.0, [], [])])
            for i in range(n)]


def test_split_sizes_floor_then_remainder():
    train, valid, test = ev.split_dataset(make_seqs(10), (0.7, 0.1, 0.2), seed=1)
    assert (len(train), len(valid), len(test)) == (7, 1, 2)


def test_split_deterministic():
    seqs = make_seqs(25)
    a = ev.split_dataset(seqs, seed=9)
    b = ev.split_dataset(seqs, seed=9)
    assert [[s.patient_id for s in part] for part in a] == \
           [[s.patient_id for s in part] for part in b]


def test_split_is_partition():
    for n in (3, 10, 37, 100):
        seqs = make_seqs(n)
        train, valid, test = ev.split_dataset(seqs, seed=n)
        ids = [s.patient_id for s in train + valid + test]
        assert sorted(ids) == sorted(s.patient_id for s in seqs)
        assert len(set(ids)) == len(ids)


def test_split_rejects_tiny_input():
    with pytest.raises(ValueError):
        ev.split_dataset(make_seqs(2))


def test_split_rejects_bad_fractions():
    with pytest.raises(ValueError):
        ev.split_dataset(make_seqs(10), (0.5, 0.2, 0.2))


# ---------------------------------------------------------------------------
# sidecar config


def test_sidecar_roundtrip(tmp_path):
    path = tmp_path / "d.config"
    ev.write_sidecar_config(path, CFG, extra={"seed": 7})
    cfg = ev.load_sidecar_config(path)
    assert (cfg.n_codes, cfg.n_features, cfg.max_features) == (8, 5, 3)
    assert ev.read_keyvalue_file(path)["seed"] == "7"


def test_sidecar_missing_key(tmp_path):
    path = tmp_path / "d.config"
    path.write_text("N_c = 5\n")
    with pytest.raises(ev.DatasetError):
        ev.load_sidecar_config(path)


def test_dataset_config_validation():
    with pytest.raises(ValueError):
        ev.DatasetConfig(0, 1, 1)
    with pytest.raises(ValueError):
        ev.DatasetConfig(1, 1, 1, feature_stats={0: (0.0, 0.0)})
