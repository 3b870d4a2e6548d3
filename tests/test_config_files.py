"""Flat key-value files: the one reader and writer, the sidecar and the
generator config through the CLI, and property tests of `generate`,
`train`, `inspect` and `evaluate` on mutated config and dataset files."""

import contextlib
import io
import json
import math
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mrm import cli
from mrm import events as ev
from mrm import syngen

GEN_CONFIG = """\
n_sequences = 40
vocab_size = 10
seq_len_min = 8
seq_len_max = 12
base_rate = 2.0
T_signal = 0.4
marker_a = 0
marker_b = 1
marker_c = 2
marker_d = 3
positive_fraction = 0.5
seed = 4
n_feature_ids = 3
max_features = 3
"""
SEED = "4"


def run_cli(args):
    """(exit code, stdout, stderr) of an in-process cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


def assert_exits_2(result, *names):
    code, _, err = result
    assert code == 2, err
    assert "Traceback" not in err
    for name in names:
        assert name in err, err


def generate(config_path, out, seed=SEED):
    return run_cli(["generate", "--config", str(config_path), "--out", str(out),
                    "--seed", seed])


def lines_with(text, key, value):
    """text with the value of key's line replaced (value None: the line
    removed)."""
    return "".join(line if not line.startswith(f"{key} =")
                   else "" if value is None else f"{key} = {value}\n"
                   for line in text.splitlines(keepends=True))


def data_args(root, command, sidecar):
    args = [command, "--data", str(root / "data.jsonl"), "--data-config", str(sidecar)]
    if command == "train":
        return args + ["--model", "lr", "--out", str(root / "out.npz"),
                       "--max-epochs", "2", "--patience", "1"]
    if command == "evaluate":
        return args + ["--ckpt", str(root / "mrm.npz")]
    return args


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """A generated dataset with its sidecar and an mrm checkpoint trained
    on it."""
    root = tmp_path_factory.mktemp("config_files")
    (root / "gen.config").write_text(GEN_CONFIG)
    assert generate(root / "gen.config", root / "data.jsonl")[0] == 0
    code, _, err = run_cli([
        "train", "--data", str(root / "data.jsonl"), "--model", "mrm",
        "--out", str(root / "mrm.npz"), "--D_m", "4", "--N_h", "2", "--D_a", "2",
        "--topk", "2", "--M", "4", "--L_G", "4", "--batch-size", "16",
        "--max-epochs", "2", "--patience", "1", "--seed", "1"])
    assert code == 0, err
    return root


# ---------------------------------------------------------------------------
# the reader and the writer


def test_write_then_read_gives_the_same_values(tmp_path):
    path = tmp_path / "kv"
    ev.write_keyvalues(path, {"N_c": 7, "T_signal": 0.1 + 0.2, "name": "a b"})
    assert path.read_text() == "N_c = 7\nT_signal = 0.30000000000000004\nname = a b\n"
    keys = {"N_c": ("n_codes", int), "T_signal": ("t_signal", float)}
    assert ev.read_keyvalue_file(path, keys) == {"N_c": 7, "T_signal": 0.1 + 0.2,
                                                 "name": "a b"}
    assert ev.read_keyvalue_file(path) == {"N_c": "7", "T_signal": "0.30000000000000004",
                                           "name": "a b"}


def test_a_repeated_key_names_the_key_and_both_lines(tmp_path):
    path = tmp_path / "d.config"
    path.write_text("N_c = 12\n# comment\nN_f = 8\nN_c = 99\n")
    with pytest.raises(ev.DatasetError, match=r"line 4: N_c repeats line 1"):
        ev.read_keyvalue_file(path)


@pytest.mark.parametrize("text, message", [
    ("N_c = 50.0\n", "N_c must be an integer, got '50.0'"),
    ("N_c = 1e400\n", "N_c must be an integer"),
    ("N_c = True\n", "N_c must be an integer"),
    ("N_c =\n", "N_c must be an integer, got ''"),
])
def test_a_value_of_a_wrong_type_names_the_file_and_the_key(tmp_path, text, message):
    path = tmp_path / "d.config"
    path.write_text(text + "N_f = 8\nmaxFeat = 3\n")
    with pytest.raises(ev.DatasetError) as err:
        ev.load_sidecar_config(path)
    assert str(path) in str(err.value) and message in str(err.value)


def test_build_config_names_the_key_of_the_field_at_fault():
    values = {"N_c": 0, "N_f": 2, "maxFeat": 3, "other": "ignored"}
    with pytest.raises(ev.DatasetError, match=r"^here: N_c: n_codes must be"):
        ev.build_config(ev.DatasetConfig, values, ev.DATASET_KEYS, "here: ")
    config = ev.build_config(ev.DatasetConfig, {**values, "N_c": 5}, ev.DATASET_KEYS, "")
    assert ev.entries(config, ev.DATASET_KEYS) == {"N_c": 5, "N_f": 2, "maxFeat": 3}


def test_build_config_rejects_a_value_that_differs_from_a_given_one():
    keys = syngen.SYNTH_KEYS
    with pytest.raises(ev.DatasetError, match=r"^f: seed: holds 7, but 1 is given"):
        ev.build_config(syngen.SynthConfig, {"seed": 7}, keys, "f: ",
                        n_sequences=3, seed=1)
    config = ev.build_config(syngen.SynthConfig, {"seed": 1}, keys, "f: ",
                             n_sequences=3, seed=1)
    assert config.seed == 1


def test_the_sidecar_echoes_every_generator_key_in_table_order(generated):
    sidecar = ev.read_keyvalue_file(generated / "data.jsonl.config", syngen.SYNTH_KEYS)
    assert list(sidecar) == [*ev.DATASET_KEYS, *syngen.SYNTH_KEYS]
    config = syngen.load_synth_config(generated / "gen.config", 4)
    assert ev.entries(config, syngen.SYNTH_KEYS) == {
        key: sidecar[key] for key in syngen.SYNTH_KEYS}


# ---------------------------------------------------------------------------
# faults of the sidecar and the generator config, each exit 2 from the CLI


@pytest.mark.parametrize("command", ["train", "inspect", "evaluate"])
def test_a_sidecar_with_a_repeated_key_exits_2(tmp_path, generated, command):
    sidecar = tmp_path / "dup.config"
    sidecar.write_text("N_c = 10\nN_f = 3\nmaxFeat = 3\nN_c = 99\n")
    assert_exits_2(run_cli(data_args(generated, command, sidecar)),
                   str(sidecar), "line 4: N_c repeats line 1")


@pytest.mark.parametrize("command", ["train", "inspect", "evaluate"])
def test_a_sidecar_size_that_is_no_integer_names_file_and_key(tmp_path, generated,
                                                              command):
    sidecar = tmp_path / "float.config"
    sidecar.write_text("N_c = 10.0\nN_f = 3\nmaxFeat = 3\n")
    assert_exits_2(run_cli(data_args(generated, command, sidecar)),
                   str(sidecar), "N_c must be an integer, got '10.0'")


def test_a_generator_config_with_a_repeated_key_exits_2(tmp_path):
    config = tmp_path / "gen.config"
    config.write_text(GEN_CONFIG + "vocab_size = 12\n")
    assert_exits_2(generate(config, tmp_path / "d.jsonl"),
                   str(config), "line 15: vocab_size repeats line 2")
    assert not (tmp_path / "d.jsonl").exists()


@pytest.mark.parametrize("key, value", [
    ("T_signal", "inf"), ("T_signal", "nan"), ("T_signal", "0"), ("base_rate", "nan"),
    ("base_rate", "inf"), ("base_rate", "-1"), ("positive_fraction", "nan"),
    ("positive_fraction", "1"), ("max_features", "1"), ("max_features", "0"),
    ("n_feature_ids", "1"), ("n_feature_ids", "0"), ("n_sequences", "0"),
    ("vocab_size", "4"), ("seq_len_min", "7"), ("seq_len_max", "7"),
    ("marker_b", "0"), ("marker_d", "10"), ("marker_c", "-1"),
    ("n_sequences", "1.5"), ("T_signal", "x"), ("n_sequences", None),
    # times that overflow, or signal gaps below the roundoff of the times
    ("base_rate", "1e-310"), ("base_rate", "1e-5"), ("T_signal", "1e308"),
    ("T_signal", "1e-300"),
])
def test_a_bad_generator_value_exits_2_naming_its_key(tmp_path, key, value):
    config = tmp_path / "gen.config"
    config.write_text(lines_with(GEN_CONFIG, key, value))
    assert_exits_2(generate(config, tmp_path / "d.jsonl"), str(config), key)
    assert not (tmp_path / "d.jsonl").exists()


def test_a_generator_seed_that_differs_from_the_flag_exits_2(tmp_path):
    config = tmp_path / "gen.config"
    config.write_text(lines_with(GEN_CONFIG, "seed", "7"))
    assert_exits_2(generate(config, tmp_path / "d.jsonl", seed="1"),
                   str(config), "seed: holds 7, but 1 is given")
    assert not (tmp_path / "d.jsonl").exists()
    assert generate(config, tmp_path / "d.jsonl", seed="7")[0] == 0
    assert ev.read_keyvalue_file(tmp_path / "d.jsonl.config")["seed"] == "7"


def test_the_smallest_feature_vocabulary_generates_a_loadable_file(tmp_path):
    config = tmp_path / "gen.config"
    config.write_text(lines_with(lines_with(GEN_CONFIG, "max_features", "2"),
                                 "n_feature_ids", "2"))
    assert generate(config, tmp_path / "d.jsonl")[0] == 0
    assert run_cli(["inspect", "--data", str(tmp_path / "d.jsonl")])[0] == 0


# ---------------------------------------------------------------------------
# property: a mutated sidecar or generator config exits 1 or 2, or 0 with
# finite metrics and a file that loads

VALUES = ["x", "True", "-1", "1.5", "nan", "inf", "1e400", 0, 1, 2, 3, 5, 8, 13]


def assert_clean(result):
    code, out, err = result
    assert code in (0, 1, 2), err
    if code:
        assert "error:" in err and "Traceback" not in err, err
    else:
        for line in out.splitlines():
            key, _, value = line.partition(" = ")
            if key in ("test_auc", "test_ap", "auc", "ap", "prediction"):
                assert math.isfinite(float(value)), line
    return code


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_config_files_exit_cleanly(tmp_path, generated, data):
    on_sidecar = data.draw(st.booleans(), label="sidecar")
    path = generated / ("data.jsonl.config" if on_sidecar else "gen.config")
    text = path.read_text()
    key = data.draw(st.sampled_from(list(ev.read_keyvalue_file(path))), label="key")
    how = data.draw(st.sampled_from(["remove", "repeat", "set"]), label="how")
    if how == "remove":
        text = lines_with(text, key, None)
    elif how == "repeat":
        text += next(line for line in text.splitlines(keepends=True)
                     if line.startswith(f"{key} ="))
    else:
        text = lines_with(text, key, data.draw(st.sampled_from(VALUES), label="value"))
    root = tmp_path / "case"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir()
    shutil.copy(generated / "mrm.npz", root / "mrm.npz")
    if on_sidecar:
        shutil.copy(generated / "data.jsonl", root / "data.jsonl")
        (root / "data.jsonl.config").write_text(text)
    else:
        (root / "gen.config").write_text(text)
        if assert_clean(generate(root / "gen.config", root / "data.jsonl")):
            assert not (root / "data.jsonl").exists()
            return
        ev.load_dataset(root / "data.jsonl",
                        ev.load_sidecar_config(root / "data.jsonl.config"))
    sidecar = root / "data.jsonl.config"
    for command in ("train", "inspect", "evaluate"):
        assert_clean(run_cli(data_args(root, command, sidecar)))
    assert_clean(run_cli(data_args(root, "inspect", sidecar)
                         + ["--index", "0", "--ckpt", str(root / "mrm.npz")]))


# ---------------------------------------------------------------------------
# property: a dataset file with one mutated field exits 1 or 2, or 0 with
# finite metrics

# JSON tokens: wrong types, null, a negative number, NaN, infinities and a
# number no float holds
JSON_VALUES = ['"x"', "true", "1.5", "[]", "{}", "null", "-1", "NaN", "Infinity",
               "-Infinity", "1e400"]
FIELDS = ["code", "t", "cat", "cat item", "num", "num id", "num value", "label",
          "events"]
_MARK = "@@value@@"


def mutated_line(line, field, event, token):
    """line, a dataset record, with one field of its record or of event
    number `event` set to the JSON token."""
    record = json.loads(line)
    if field in ("label", "events"):
        record[field] = _MARK
    else:
        raw = record["events"][event % len(record["events"])]
        if field == "cat item":
            raw["cat"] = [_MARK, *raw["cat"][1:]]
        elif field in ("num id", "num value"):
            pair = raw["num"][0] if raw["num"] else [0, 1.0]
            pair[field == "num value"] = _MARK
            raw["num"] = [pair, *raw["num"][1:]]
        else:
            raw[field] = _MARK
    return json.dumps(record).replace(json.dumps(_MARK), token) + "\n"


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_dataset_files_exit_cleanly(tmp_path, generated, data):
    lines = (generated / "data.jsonl").read_text().splitlines(keepends=True)
    at = data.draw(st.integers(0, len(lines) - 1), label="line")
    lines[at] = mutated_line(lines[at], data.draw(st.sampled_from(FIELDS), label="field"),
                             data.draw(st.integers(0, 7), label="event"),
                             data.draw(st.sampled_from(JSON_VALUES), label="value"))
    root = tmp_path / "case"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir()
    shutil.copy(generated / "mrm.npz", root / "mrm.npz")
    (root / "data.jsonl").write_text("".join(lines))
    sidecar = generated / "data.jsonl.config"
    for command in ("train", "inspect", "evaluate"):
        assert_clean(run_cli(data_args(root, command, sidecar)))
