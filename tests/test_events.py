import collections
import gc
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrm import events as ev
from mrm import syngen

from .conftest import concatenated_pointers_oracle


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


@pytest.mark.parametrize("field", ["code", "num"])
def test_load_rejects_infinite_integer_fields(tmp_path, field):
    # int(float("inf")) raises OverflowError, not ValueError
    event = {"code": 1, "t": 0.0, "cat": [], "num": []}
    if field == "code":
        event["code"] = float("inf")
    else:
        event["num"] = [[float("inf"), 1.0]]
    path = tmp_path / "d.jsonl"
    write_lines(path, [record([event])])
    with pytest.raises(ev.DatasetError, match="bad event 0"):
        ev.load_dataset(path, CFG)


def test_load_rejects_empty_event_list(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [record([])])
    with pytest.raises(ev.DatasetError) as exc:
        ev.load_dataset(path, CFG)
    assert "empty" in str(exc.value)


@pytest.mark.parametrize("events, message", [
    (5, "events must be a list, got int"), ({"code": 1}, "events must be a list, got dict"),
])
def test_load_rejects_events_that_are_no_list(tmp_path, events, message):
    path = tmp_path / "d.jsonl"
    write_lines(path, [record(events)])
    with pytest.raises(ev.DatasetError, match=f"line 1: {message}"):
        ev.load_dataset(path, CFG)


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


@pytest.mark.parametrize("text", ["", "\n  \n"])
def test_load_rejects_a_file_without_records(tmp_path, text):
    path = tmp_path / "d.jsonl"
    path.write_text(text)
    with pytest.raises(ev.DatasetError) as exc:
        ev.load_dataset(path, CFG)
    assert str(exc.value) == f"{path}: no records"


@pytest.mark.parametrize("line, kind", [("[1, 2]", "list"), ('"x"', "str")])
def test_load_rejects_a_record_that_is_no_object(tmp_path, line, kind):
    path = tmp_path / "d.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(ev.DatasetError) as exc:
        ev.load_dataset(path, CFG)
    assert str(exc.value) == f"line 1: record must be a JSON object, got {kind}"


def load_error(path, events):
    write_lines(path, [record([{"code": 0, "t": 0.0}]), record(events)])
    with pytest.raises(ev.DatasetError) as exc:
        ev.load_dataset(path, CFG)
    return str(exc.value)


def plain(n):
    return [{"code": 1, "t": float(k), "cat": [], "num": []} for k in range(n)]


def test_load_names_the_earlier_of_two_bad_events(tmp_path):
    events = plain(5)
    events[3]["code"], events[1]["cat"] = 9, [7]
    assert load_error(tmp_path / "d.jsonl", events) == (
        "line 2 event 1: categorical feature id 7 outside [0, 5)")
    events = plain(5)
    events[4]["t"], events[2]["num"] = "x", [[0, None]]
    assert load_error(tmp_path / "d.jsonl", events) == (
        "line 2: bad event 2: value of feature 0 must be a finite number, got None")


def test_load_names_a_type_fault_before_an_earlier_range_fault(tmp_path):
    events = plain(4)
    events[0]["code"], events[3]["cat"] = -1, [True]
    assert load_error(tmp_path / "d.jsonl", events) == (
        "line 2: bad event 3: categorical feature id must be an integer, got True")


@pytest.mark.parametrize("num, message", [
    # the value of the first pair is bad, and so is the id of the second
    ([[1, float("nan")], [9, 1.0]], "line 2 event 0: numerical feature id 9 outside [0, 5)"),
    ([[1, "x"], [1.5, 1.0]],
     "line 2: bad event 0: numerical feature id must be an integer, got 1.5"),
])
def test_load_checks_every_id_of_an_event_before_its_values(tmp_path, num, message):
    # the rules run in a fixed order, every id of the event before its values,
    # so the second pair's bad id comes before the first pair's bad value
    assert load_error(tmp_path / "d.jsonl", [{"code": 1, "t": 0.0, "num": num}]) == message


@pytest.mark.parametrize("event, message", [
    ([1, 2], "event must be a JSON object, got list"),
    ("x", "event must be a JSON object, got str"),
    ({"t": 0.0}, "missing key 'code'"),
    ({"code": 1, "t": 0.0, "cat": "12"}, "cat must be a list of feature ids, got '12'"),
    ({"code": 1, "t": 0.0, "cat": None}, "cat must be a list of feature ids, got None"),
    ({"code": 1, "t": 0.0, "num": [[1]]},
     "num must be a list of [id, value] pairs, got [[1]]"),
    ({"code": 1, "t": 0.0, "num": [[1, 0.5, 2]]},
     "num must be a list of [id, value] pairs, got [[1, 0.5, 2]]"),
    ({"code": 1, "t": 0.0, "num": ["ab"]},
     "num must be a list of [id, value] pairs, got ['ab']"),
    ({"code": 1, "t": 0.0, "num": 5}, "num must be a list of [id, value] pairs, got 5"),
])
def test_load_names_the_event_and_rule_of_a_malformed_event(tmp_path, event, message):
    # a shape fault comes before the type fault of an earlier event
    events = plain(3)
    events[0]["code"], events[2] = "1", event
    assert load_error(tmp_path / "d.jsonl", events) == f"line 2: bad event 2: {message}"


def test_load_names_the_line_of_an_integer_past_the_digit_limit(tmp_path):
    # json.loads refuses to convert an integer of more than 4300 digits
    path = tmp_path / "d.jsonl"
    write_lines(path, [record([{"code": 0, "t": 0.0}])])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"patient_id": "a", "label": 0, "events": [{"code": 1%s, "t": 0}]}\n'
                 % ("0" * 5000))
    with pytest.raises(ev.DatasetError, match="^line 2: .*4300 digits"):
        ev.load_dataset(path, CFG)


def test_load_names_the_line_of_json_nested_past_the_recursion_limit(tmp_path):
    # json.loads raises RecursionError on a line nested 200,000 arrays deep
    path = tmp_path / "d.jsonl"
    write_lines(path, [record([{"code": 0, "t": 0.0}])])
    depth = 200_000
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"patient_id": "a", "label": 0, "events": %s%s}\n'
                 % ("[" * depth, "]" * depth))
    with pytest.raises(ev.DatasetError, match="^line 2: .*recursion"):
        ev.load_dataset(path, CFG)


# rule -> (values that break it, how one of them breaks an event, and the
# message of the error it makes); the type rules, then the range rules of CFG
BIG = 10 ** 400  # a JSON integer no float holds


def shown(value):
    """How an error message quotes value: its repr, cut to 80 characters
    plus an ellipsis when longer."""
    text = repr(value)
    return text if len(text) <= 80 else text[:80] + "\u2026"


TYPE_FAULTS = {
    "code": (st.sampled_from([1.5, True, "1", None, []]), lambda e, v: e.update(code=v),
             lambda v: f"code must be an integer, got {v!r}"),
    "t": (st.sampled_from(["1.0", False, None, {}, BIG, -BIG]), lambda e, v: e.update(t=v),
          lambda v: f"t must be a finite number, got {shown(v)}"),
    "cat id": (st.sampled_from([2.0, True, "3", None]), lambda e, v: e["cat"].append(v),
               lambda v: f"categorical feature id must be an integer, got {v!r}"),
    "num id": (st.sampled_from([0.0, False, "0", None, [0]]),
               lambda e, v: e["num"].append([v, 1.0]),
               lambda v: f"numerical feature id must be an integer, got {v!r}"),
    "num value": (st.sampled_from(["0.5", True, None, [], BIG]),
                  lambda e, v: e["num"].append([4, v]),
                  lambda v: f"value of feature 4 must be a finite number, got {shown(v)}"),
}
RANGE_FAULTS = {
    "code": (st.sampled_from([-1, 8, 9, BIG]), lambda e, v: e.update(code=v),
             lambda v: f"code {shown(v)} outside [0, 8)"),
    "t": (st.sampled_from([float("nan"), float("inf"), -float("inf")]),
          lambda e, v: e.update(t=v), lambda v: f"non-finite time {v!r}"),
    "feature count": (st.integers(0, 4),
                      lambda e, v: e.update(cat=[0] * v, num=[[1, 0.5]] * (4 - v)),
                      lambda v: f"{v} categorical + {4 - v} numerical features exceed "
                                f"maxFeat=3"),
    "cat id": (st.sampled_from([-1, 5, BIG]), lambda e, v: e["cat"].append(v),
               lambda v: f"categorical feature id {shown(v)} outside [0, 5)"),
    "num id": (st.sampled_from([-2, 5, -BIG]), lambda e, v: e["num"].append([v, 1.0]),
               lambda v: f"numerical feature id {shown(v)} outside [0, 5)"),
    "num value": (st.sampled_from([float("nan"), float("inf")]),
                  lambda e, v: e["num"].append([3, v]),
                  lambda v: "non-finite value for feature 3"),
}

# a valid event with at most two features, so that one more fits in maxFeat=3
VALID_EVENT = st.fixed_dictionaries({
    "code": st.integers(0, 7),
    "t": st.one_of(st.floats(-1e3, 1e3), st.integers(-1000, 1000)),
    "cat": st.lists(st.integers(0, 4), max_size=1),
    "num": st.lists(st.tuples(st.integers(0, 4),
                              st.one_of(st.floats(-1e3, 1e3), st.integers(-9, 9)))
                    .map(list), max_size=1)})


@pytest.mark.parametrize("kind, rule", [*(("type", r) for r in TYPE_FAULTS),
                                        *(("range", r) for r in RANGE_FAULTS)])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_load_names_the_line_event_and_rule_of_a_single_fault(tmp_path_factory, data,
                                                               kind, rule):
    values, spoil, message = (TYPE_FAULTS if kind == "type" else RANGE_FAULTS)[rule]
    records = data.draw(st.lists(st.lists(VALID_EVENT, min_size=1, max_size=6),
                                 min_size=1, max_size=3), label="records")
    line = data.draw(st.integers(0, len(records) - 1), label="line")
    k = data.draw(st.integers(0, len(records[line]) - 1), label="event")
    value = data.draw(values, label="value")
    spoil(records[line][k], value)
    path = tmp_path_factory.mktemp("fault") / "d.jsonl"
    write_lines(path, [record(events) for events in records])
    with pytest.raises(ev.DatasetError) as exc:
        ev.load_dataset(path, CFG)
    where = (f"line {line + 1}: bad event {k}" if kind == "type"
             else f"line {line + 1} event {k}")
    assert str(exc.value) == f"{where}: {message(value)}"


# a value far too long to quote whole, by where it sits and the start of
# the message about it
HUGE_VALUES = {
    "cat string": ({"code": 0, "t": 0.0, "cat": "x" * 1_000_000},
                   "bad event 0: cat must be a list of feature ids, got 'xxx"),
    "code string": ({"code": "x" * 100_000, "t": 0.0},
                    "bad event 0: code must be an integer, got 'xxx"),
    "numeric value": ({"code": 0, "t": 0.0, "num": [[1, "9" * 100_000]]},
                      "bad event 0: value of feature 1 must be a finite number, "
                      "got '999"),
    "nested cat": ({"code": 0, "t": 0.0, "cat": json.loads("[" * 500 + "]" * 500)},
                   "bad event 0: categorical feature id must be an integer, got [[["),
    "num pairs": ({"code": 0, "t": 0.0, "num": [[1]] * 100_000},
                  "bad event 0: num must be a list of [id, value] pairs, got [[1], "),
    "huge code": ({"code": 10 ** 4000, "t": 0.0}, "event 0: code 1000"),
}


@pytest.mark.parametrize("case", HUGE_VALUES)
def test_load_quotes_at_most_80_characters_of_a_bad_value(tmp_path, case):
    event, start = HUGE_VALUES[case]
    path = tmp_path / "d.jsonl"
    write_lines(path, [record([event])])
    with pytest.raises(ev.DatasetError) as exc:
        ev.load_dataset(path, CFG)
    message = str(exc.value)
    assert message.startswith(f"line 1{'' if case == 'huge code' else ':'} {start}")
    assert "\u2026" in message and len(message) < 200


def test_load_quotes_at_most_80_characters_of_a_bad_label(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [record([{"code": 0, "t": 0.0}], label="y" * 100_000)])
    with pytest.raises(ev.DatasetError) as exc:
        ev.load_dataset(path, CFG)
    assert str(exc.value) == f"line 1: label must be 0 or 1, got '{'y' * 79}\u2026"


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


@pytest.mark.parametrize("field, value", [
    ("n_codes", "x"), ("n_codes", 1.5), ("n_codes", True), ("n_features", None),
    ("n_features", -1), ("max_features", None), ("max_features", 2.0)])
def test_dataset_config_sizes_must_be_integers(field, value):
    sizes = {"n_codes": 8, "n_features": 5, "max_features": 3, field: value}
    with pytest.raises(ev.ConfigError, match=field) as err:
        ev.DatasetConfig(**sizes)
    assert err.value.field == field


def test_dataset_config_accepts_numpy_integers_and_zero_features():
    ev.DatasetConfig(np.int64(8), 0, np.int32(0))


@pytest.mark.parametrize("stats", [{0: ("0", 1.0)}, {0: (0.0, None)},
                                   {0: (float("nan"), 1.0)}, {0: (0.0, -1.0)}])
def test_dataset_config_stats_must_be_finite_with_positive_std(stats):
    with pytest.raises(ev.ConfigError, match=r"feature_stats\[0\]"):
        ev.DatasetConfig(1, 1, 1, feature_stats=stats)


# ---------------------------------------------------------------------------
# columnar sequences


def test_events_view_round_trips_and_equality_uses_the_columns():
    events = [ev.ClinicalEvent(3, 0.5, [1, 4], [(2, -1.25)]),
              ev.ClinicalEvent(0, 0.5, [], []),
              ev.ClinicalEvent(7, 2.0, [0], [(1, 3.0), (4, 0.0)])]
    seq = ev.EventSequence("p", 1, events)
    assert seq.events == events
    assert ev.EventSequence("p", 1, seq.events) == seq
    assert ev.EventSequence("p", 1, list(events)) == seq
    for other in (ev.EventSequence("q", 1, events), ev.EventSequence("p", 0, events),
                  ev.EventSequence("p", 1, events[:2]),
                  ev.EventSequence("p", 1, [events[0], events[1],
                                            ev.ClinicalEvent(7, 2.0, [0], [(1, 3.5)])])):
        assert other != seq
    assert seq != "p"
    seq.patient_id = "renamed"
    assert seq.patient_id == "renamed" and len(seq) == 3
    with pytest.raises(AttributeError):
        seq.events = []


def test_take_reorders_events_with_their_features():
    events = [ev.ClinicalEvent(c, float(t), cat, num) for c, t, cat, num in
              ((1, 3.0, [0], []), (2, 1.0, [], [(1, 0.5)]), (3, 2.0, [2, 3], [(0, 1.5)]))]
    seq = ev.EventSequence("p", 0, events)
    assert seq.take([1, 2, 0]).events == [events[1], events[2], events[0]]
    assert seq.take([2]).events == [events[2]]


def test_concatenate_joins_events_back_to_back():
    a = ev.EventSequence("a", 1, [ev.ClinicalEvent(1, 0.0, [2], [(0, 1.0)])])
    b = ev.EventSequence("b", 0, [ev.ClinicalEvent(2, 5.0, [], []),
                                  ev.ClinicalEvent(3, 6.0, [1, 0], [(3, -2.0)])])
    joined = ev.concatenate([a, b, a])
    assert joined.events == a.events + b.events + a.events


def test_concatenate_gives_the_pointers_of_the_per_sequence_join():
    rng = np.random.default_rng(6)
    seqs = syngen.generate(syngen.SynthConfig(n_sequences=30, seq_len_range=(8, 12),
                                              seed=6))
    seqs += [seq.take([0]) for seq in seqs[:5]]  # one event each
    seqs.append(ev.EventSequence("bare", 0, [ev.ClinicalEvent(1, 0.0)] * 3))
    for _ in range(50):
        batch = [seqs[i] for i in rng.integers(0, len(seqs), rng.integers(2, 9))]
        if rng.random() < 0.3:  # a joined batch inside a batch: int64 pointers
            batch.insert(0, ev.concatenate(batch[:2]))
        joined = ev.concatenate(batch)
        for name in ("cat_ptr", "num_ptr"):
            want = concatenated_pointers_oracle([getattr(s, name) for s in batch])
            got = getattr(joined, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert ev.concatenate(seqs[:1]) is seqs[0]


def test_loaded_dataset_round_trips_through_the_events_view(tmp_path):
    cfg = syngen.SynthConfig(n_sequences=40, seq_len_range=(8, 20), seed=4)
    seqs = syngen.generate(cfg)
    path = tmp_path / "d.jsonl"
    ev.write_dataset(path, seqs)
    back = ev.load_dataset(path, syngen.dataset_config_for(cfg))
    assert back == seqs
    assert [ev.EventSequence(s.patient_id, s.label, s.events) for s in back] == seqs


CRITERION_5_SYNTH = dict(n_sequences=2000, vocab_size=50, seq_len_range=(12, 36),
                         base_rate=2.0, t_signal=0.4, marker_a=0, marker_b=1,
                         marker_c=2, marker_d=3, positive_fraction=0.5, seed=42)


def test_criterion_5_dataset_bytes_are_unchanged(tmp_path):
    # the digest of the file the event-object data model wrote
    path = tmp_path / "c5.jsonl"
    ev.write_dataset(path, syngen.generate(syngen.SynthConfig(**CRITERION_5_SYNTH)))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "c485849187dc436feaf40552a20b974dea78dc9cfa5e2704b685413203d6948c")


def test_loaded_cohort_holds_at_most_100_bytes_per_event(tmp_path):
    # the benchmark's short cohort: 128 sequences of 12 to 36 events
    cfg = syngen.SynthConfig(n_sequences=128, seq_len_range=(12, 36), seed=1)
    path = tmp_path / "short.jsonl"
    ev.write_dataset(path, syngen.generate(cfg))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        seqs = ev.load_dataset(path, syngen.dataset_config_for(cfg))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n_events = sum(len(s) for s in seqs)
    assert held / n_events <= 100, f"{held / n_events:.1f} bytes per event"
