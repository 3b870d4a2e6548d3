import json

import numpy as np
import pytest

from mrm import cli
from mrm import diffcore as dc
from mrm import events as ev
from mrm import model as mm


GEN_CONFIG = """\
n_sequences = 60
vocab_size = 12
seq_len_min = 8
seq_len_max = 14
base_rate = 2.0
T_signal = 0.4
marker_a = 0
marker_b = 1
marker_c = 2
marker_d = 3
positive_fraction = 0.5
"""


@pytest.fixture
def gen_config(tmp_path):
    path = tmp_path / "gen.config"
    path.write_text(GEN_CONFIG)
    return path


@pytest.fixture
def dataset(tmp_path, gen_config, capsys):
    out = tmp_path / "data.jsonl"
    assert cli.main(["generate", "--config", str(gen_config), "--out", str(out),
                     "--seed", "3"]) == 0
    capsys.readouterr()
    return out


def train_args(dataset, out, model="mrm", extra=()):
    return ["train", "--data", str(dataset), "--model", model, "--out", str(out),
            "--D_m", "8", "--N_h", "2", "--D_a", "4", "--topk", "2",
            "--M", "8", "--L_G", "4", "--batch-size", "8", "--max-epochs", "2",
            "--patience", "1", "--seed", "1", *extra]


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_expected_line_count(dataset):
    assert len(dataset.read_text().splitlines()) == 60
    sidecar = ev.load_sidecar_config(str(dataset) + ".config")
    assert sidecar.n_codes == 12


def test_generate_is_byte_deterministic(tmp_path, gen_config, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert cli.main(["generate", "--config", str(gen_config), "--out", str(a),
                     "--seed", "9"]) == 0
    assert cli.main(["generate", "--config", str(gen_config), "--out", str(b),
                     "--seed", "9"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_generate_reports_class_balance(tmp_path, gen_config, capsys):
    out = tmp_path / "d.jsonl"
    cli.main(["generate", "--config", str(gen_config), "--out", str(out),
              "--seed", "3"])
    printed = capsys.readouterr().out
    assert "positives = " in printed


def test_generate_requires_seed(tmp_path, gen_config, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["generate", "--config", str(gen_config),
                  "--out", str(tmp_path / "x.jsonl")])
    assert exc.value.code == 1
    assert "--seed" in capsys.readouterr().err


def test_generate_bad_config_is_runtime_error(tmp_path, capsys):
    bad = tmp_path / "bad.config"
    bad.write_text("n_sequences = 10\nmarker_b = 0\n")  # duplicate of marker_a
    code = cli.main(["generate", "--config", str(bad),
                     "--out", str(tmp_path / "x.jsonl"), "--seed", "1"])
    assert code == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train / evaluate


def test_train_smoke_writes_artifacts(tmp_path, dataset, capsys):
    ckpt = tmp_path / "model.npz"
    assert cli.main(train_args(dataset, ckpt)) == 0
    printed = capsys.readouterr().out
    assert "test_auc = " in printed
    assert ckpt.exists()
    report = ev.read_keyvalue_file(str(ckpt) + ".report")
    assert {"test_auc", "test_ap", "file_auc", "file_ap"} <= set(report)
    trace = (tmp_path / "model.npz.trace.csv").read_text().splitlines()
    assert trace[0] == "epoch,train_loss,valid_auc"
    assert len(trace) >= 2


def test_train_rejects_head_dim_violation(tmp_path, dataset, capsys):
    code = cli.main(["train", "--data", str(dataset), "--model", "mrm",
                     "--out", str(tmp_path / "m.npz"),
                     "--D_a", "7", "--N_h", "8", "--D_m", "64"])
    assert code == 1
    assert "model_dim" in capsys.readouterr().err


@pytest.mark.parametrize("model, flag, value", [
    ("mrm", "--clip", "nan"), ("plain_lstm", "--lr", "inf"), ("lr", "--l2", "nan"),
    ("lr", "--l2", "-5")])
def test_train_rejects_hyperparameters_it_would_ignore(tmp_path, dataset, capsys,
                                                     model, flag, value):
    # --clip nan trained with no clipping, and a NaN or negative --l2
    # dropped the penalty, each exiting 0
    ckpt = tmp_path / "m.npz"
    code = cli.main(train_args(dataset, ckpt, model=model, extra=(flag, value)))
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err and flag.strip("-") in err.replace("clip_norm", "clip")
    assert not ckpt.exists()


def test_train_lr_model_report_has_metric_keys(tmp_path, dataset, capsys):
    ckpt = tmp_path / "lr.npz"
    assert cli.main(["train", "--data", str(dataset), "--model", "lr",
                     "--out", str(ckpt), "--max-epochs", "3", "--patience", "1",
                     "--seed", "1"]) == 0
    capsys.readouterr()
    report = ev.read_keyvalue_file(str(ckpt) + ".report")
    assert "test_auc" in report and "test_ap" in report
    assert 0.0 <= float(report["test_auc"]) <= 1.0


def test_evaluate_matches_report_file_metrics(tmp_path, dataset, capsys):
    ckpt = tmp_path / "model.npz"
    assert cli.main(train_args(dataset, ckpt, model="plain_lstm")) == 0
    capsys.readouterr()
    report = ev.read_keyvalue_file(str(ckpt) + ".report")
    assert cli.main(["evaluate", "--data", str(dataset), "--ckpt", str(ckpt)]) == 0
    printed = dict(line.split(" = ") for line in
                   capsys.readouterr().out.strip().splitlines())
    assert printed["auc"] == report["file_auc"]
    assert printed["ap"] == report["file_ap"]


def test_evaluate_detects_config_mismatch(tmp_path, dataset, gen_config, capsys):
    ckpt = tmp_path / "model.npz"
    assert cli.main(train_args(dataset, ckpt)) == 0
    other = tmp_path / "other.jsonl"
    bigger = gen_config.read_text().replace("vocab_size = 12", "vocab_size = 13")
    cfg2 = tmp_path / "gen2.config"
    cfg2.write_text(bigger)
    assert cli.main(["generate", "--config", str(cfg2), "--out", str(other),
                     "--seed", "4"]) == 0
    capsys.readouterr()
    code = cli.main(["evaluate", "--data", str(other), "--ckpt", str(ckpt)])
    assert code == 2
    assert "mismatch" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# partition


def test_partition_prints_span(capsys):
    assert cli.main(["partition", "--times", "0,1,2,10,11",
                     "--M", "2", "--L_G", "10"]) == 0
    out = capsys.readouterr().out
    assert "minimax_span = 2.0" in out
    assert "group 0: [0, 3)" in out
    assert "group 1: [3, 5)" in out


def test_partition_infeasible_is_runtime_error(capsys):
    code = cli.main(["partition", "--times", "0,1,2", "--M", "1", "--L_G", "2"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_partition_bad_times_is_usage_error(capsys):
    code = cli.main(["partition", "--times", "1,banana", "--M", "2", "--L_G", "2"])
    assert code == 1


@pytest.mark.parametrize("times", ["nan,1,2", "1,inf"])
def test_partition_non_finite_times_are_runtime_error(capsys, times):
    # these printed minimax_span = nan and 0.0 and exited 0
    code = cli.main(["partition", "--times", times, "--M", "2", "--L_G", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "finite" in captured.err and "minimax_span" not in captured.out


# ---------------------------------------------------------------------------
# inspect and general CLI behavior


def test_inspect_dataset_summary(dataset, capsys):
    assert cli.main(["inspect", "--data", str(dataset)]) == 0
    out = capsys.readouterr().out
    assert "n_sequences = 60" in out
    assert "positives = " in out


def test_inspect_single_sequence_with_checkpoint(tmp_path, dataset, capsys):
    ckpt = tmp_path / "model.npz"
    assert cli.main(train_args(dataset, ckpt)) == 0
    capsys.readouterr()
    assert cli.main(["inspect", "--data", str(dataset), "--ckpt", str(ckpt),
                     "--index", "0"]) == 0
    out = capsys.readouterr().out
    assert "prediction = " in out and "n_groups = " in out


def test_inspect_index_out_of_range(dataset, capsys):
    assert cli.main(["inspect", "--data", str(dataset), "--index", "999"]) == 2


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["partition", "--times", "0,1", "--M", "1", "--L_G", "2",
                  "--bogus", "1"])
    assert exc.value.code == 1


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1


def test_missing_data_file_is_runtime_error(tmp_path, capsys):
    code = cli.main(["inspect", "--data", str(tmp_path / "absent.jsonl")])
    assert code == 2


@pytest.mark.parametrize("field, value, message", [
    ("code", 1.5, "code must be an integer, got 1.5"),
    ("code", True, "code must be an integer, got True"),
    ("cat", [2.9], "categorical feature id must be an integer, got 2.9"),
    ("num", [[1.0, 0.5]], "numerical feature id must be an integer, got 1.0"),
    ("t", "1.0", "t must be a finite number, got '1.0'"),
    ("t", True, "t must be a finite number, got True"),
    ("num", [[1, "0.5"]], "value of feature 1 must be a finite number, got '0.5'"),
    ("num", [[1, False]], "value of feature 1 must be a finite number, got False"),
])
@pytest.mark.parametrize("command", ["inspect", "train"])
def test_a_dataset_number_of_a_wrong_type_exits_2_naming_line_and_event(
        tmp_path, dataset, capsys, command, field, value, message):
    # these once loaded as the number int() or float() made of them
    lines = dataset.read_text().splitlines()
    record = json.loads(lines[1])
    record["events"][3][field] = value
    lines[1] = json.dumps(record)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    (tmp_path / "bad.jsonl.config").write_text(
        (tmp_path / "data.jsonl.config").read_text())
    argv = (["inspect", "--data", str(bad)] if command == "inspect"
            else train_args(bad, tmp_path / "m.npz", model="lr"))
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"line 2: bad event 3: {message}" in err
    assert "Traceback" not in err


def test_log_level_env(monkeypatch, capsys):
    monkeypatch.setenv("MRM_LOG", "debug")
    assert cli.main(["partition", "--times", "0,1", "--M", "2", "--L_G", "2"]) == 0
    monkeypatch.setenv("MRM_LOG", "quiet")
    assert cli.main(["partition", "--times", "0,1", "--M", "2", "--L_G", "2"]) == 0


# ---------------------------------------------------------------------------
# bad checkpoints and bad splits end in exit code 2 with a message


@pytest.mark.parametrize("meta", [
    {"kind": "mrm"},
    {"kind": "mrm", "dataset": {"N_c": 12, "N_f": 8, "maxFeat": 3}},
    {"kind": "mrm", "dataset": {"N_c": 12, "N_f": 8},
     "model": {}, "feature_stats": {}},
    {"kind": "lr"},
])
@pytest.mark.parametrize("command", ["evaluate", "inspect"])
def test_checkpoint_missing_metadata_is_runtime_error(tmp_path, dataset, capsys,
                                                      meta, command):
    ckpt = tmp_path / "bare.npz"
    dc.save_checkpoint(ckpt, {"weight": np.zeros(12)}, meta)
    args = [command, "--data", str(dataset), "--ckpt", str(ckpt)]
    if command == "inspect":
        args += ["--index", "0"]
    assert cli.main(args) == 2
    assert "checkpoint metadata" in capsys.readouterr().err


@pytest.mark.parametrize("meta", [[1, 2], "x"])
@pytest.mark.parametrize("command", ["evaluate", "inspect"])
def test_checkpoint_metadata_that_is_no_object_is_runtime_error(
        tmp_path, dataset, capsys, meta, command):
    ckpt = tmp_path / "bare.npz"
    dc.save_checkpoint(ckpt, {"weight": np.zeros(12)}, meta)
    args = [command, "--data", str(dataset), "--ckpt", str(ckpt)]
    if command == "inspect":
        args += ["--index", "0"]
    assert cli.main(args) == 2
    assert "not an object" in capsys.readouterr().err


def test_evaluate_legacy_per_head_checkpoint(tmp_path, dataset, capsys):
    # the per-head attention arrays of older checkpoints score identically;
    # a head count that does not match the metadata exits 2
    ckpt = tmp_path / "model.npz"
    assert cli.main(train_args(dataset, ckpt)) == 0
    capsys.readouterr()
    evaluate = ["evaluate", "--data", str(dataset), "--ckpt"]
    assert cli.main(evaluate + [str(ckpt)]) == 0
    printed = capsys.readouterr().out
    arrays, meta = dc.load_checkpoint(ckpt)
    queries, keys, values = np.split(arrays.pop("attention.qkv"), 3)
    for role, stack in (("query", queries), ("key", keys), ("value", values)):
        for h, w in enumerate(np.split(stack, 2)):
            arrays[f"head{h}.{role}_weight"] = w
    legacy = tmp_path / "legacy.npz"
    dc.save_checkpoint(legacy, arrays, meta)
    assert cli.main(evaluate + [str(legacy)]) == 0
    assert capsys.readouterr().out == printed
    del arrays["head1.query_weight"], arrays["head1.key_weight"]
    del arrays["head1.value_weight"]
    dc.save_checkpoint(legacy, arrays, meta)
    assert cli.main(evaluate + [str(legacy)]) == 2
    assert "N_h = 2" in capsys.readouterr().err


def test_evaluate_non_checkpoint_archive_is_runtime_error(tmp_path, dataset, capsys):
    path = tmp_path / "plain.npz"
    np.savez(path, weight=np.zeros(3))
    assert cli.main(["evaluate", "--data", str(dataset), "--ckpt", str(path)]) == 2
    assert "not a checkpoint" in capsys.readouterr().err


def test_inspect_partition_follows_forward_truncation(tmp_path, dataset, capsys):
    # M * L_G = 8 is below every sequence length (8..14), so inspect must
    # report the partition of the truncated sequence that forward() scores
    ckpt = tmp_path / "model.npz"
    args = train_args(dataset, ckpt)
    args[args.index("--M") + 1] = "2"
    assert cli.main(args) == 0
    capsys.readouterr()
    data_config = ev.load_sidecar_config(str(dataset) + ".config")
    seqs = ev.load_dataset(str(dataset), data_config)
    index = max(range(len(seqs)), key=lambda i: len(seqs[i]))
    assert cli.main(["inspect", "--data", str(dataset), "--ckpt", str(ckpt),
                     "--index", str(index)]) == 0
    printed = dict(line.split(" = ") for line in
                   capsys.readouterr().out.strip().splitlines())
    config = mm.MrmConfig(n_codes=data_config.n_codes,
                          n_features=data_config.n_features,
                          max_features=data_config.max_features, model_dim=8,
                          n_heads=2, head_dim=4, topk=2, max_groups=2,
                          max_group_len=4)
    part = mm.sequence_partition(seqs[index], config)
    assert int(printed["n_groups"]) == len(part.groups)
    assert printed["minimax_span"] == repr(part.minimax_span)


def test_train_one_class_split_fails_before_training(tmp_path, capsys, caplog):
    # 12 sequences split 8/1/3: the one-sequence validation split has one class
    config = tmp_path / "gen12.config"
    config.write_text(GEN_CONFIG.replace("n_sequences = 60", "n_sequences = 12")
                      .replace("vocab_size = 12", "vocab_size = 20"))
    data = tmp_path / "d12.jsonl"
    assert cli.main(["generate", "--config", str(config), "--out", str(data),
                     "--seed", "3"]) == 0
    capsys.readouterr()
    ckpt = tmp_path / "m.npz"
    with caplog.at_level("INFO", logger="mrm.train"):
        code = cli.main(["train", "--data", str(data), "--model", "mrm",
                         "--out", str(ckpt), "--D_m", "8", "--N_h", "2",
                         "--D_a", "4", "--max-epochs", "2", "--patience", "1"])
    assert code == 2
    assert "split needs both classes" in capsys.readouterr().err
    assert not any("epoch" in r.getMessage() for r in caplog.records)
    assert not ckpt.exists()


# ---------------------------------------------------------------------------
# checkpoints with a bad version, bad metadata values or bad arrays exit 2


@pytest.fixture
def trained(tmp_path, dataset, capsys):
    ckpt = tmp_path / "model.npz"
    assert cli.main(train_args(dataset, ckpt)) == 0
    capsys.readouterr()
    return ckpt


def _evaluate_exits_2(dataset, ckpt, capsys):
    code = cli.main(["evaluate", "--data", str(dataset), "--ckpt", str(ckpt)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err and "error:" in err
    return err


@pytest.mark.parametrize("version", [np.array(1), np.array([1.5])])
def test_checkpoint_version_that_is_no_one_element_integer_array_is_runtime_error(
        tmp_path, dataset, trained, capsys, version):
    arrays, meta = dc.load_checkpoint(trained)
    bad = tmp_path / "bad_version.npz"
    np.savez(bad, __format_version__=version, __meta__=np.array(json.dumps(meta)),
             **arrays)
    assert "format version" in _evaluate_exits_2(dataset, bad, capsys)


@pytest.mark.parametrize("key, value", [("M", 1.5), ("T_r", None), ("D_m", True),
                                        ("T_r", "nan")])
def test_checkpoint_model_metadata_of_a_wrong_type_is_runtime_error(
        tmp_path, dataset, trained, capsys, key, value):
    arrays, meta = dc.load_checkpoint(trained)
    meta["model"][key] = float(value) if value == "nan" else value
    bad = tmp_path / "bad_meta.npz"
    dc.save_checkpoint(bad, arrays, meta)
    _evaluate_exits_2(dataset, bad, capsys)


def test_checkpoint_with_non_finite_parameters_is_runtime_error(
        tmp_path, dataset, trained, capsys):
    arrays, meta = dc.load_checkpoint(trained)
    arrays["output.bias"] = np.array(np.nan)
    bad = tmp_path / "nan_bias.npz"
    dc.save_checkpoint(bad, arrays, meta)
    assert "output.bias" in _evaluate_exits_2(dataset, bad, capsys)


@pytest.mark.parametrize("entry", [[float("nan"), 1.0], [0.0, float("nan")],
                                   [float("inf"), 1.0], [0.0]])
def test_checkpoint_feature_stats_that_are_no_finite_pair_are_runtime_error(
        tmp_path, dataset, trained, capsys, entry):
    arrays, meta = dc.load_checkpoint(trained)
    assert meta["feature_stats"]
    meta["feature_stats"][next(iter(meta["feature_stats"]))] = entry
    bad = tmp_path / "bad_stats.npz"
    dc.save_checkpoint(bad, arrays, meta)
    assert "feature" in _evaluate_exits_2(dataset, bad, capsys)
