import json
import types
import warnings

import numpy as np
import pytest

from mrm import checkpoint as ck
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


@pytest.mark.parametrize("max_epochs", [1, 2, 3])
def test_train_default_patience_fits_few_epochs(tmp_path, dataset, capsys, max_epochs):
    # without --patience, any --max-epochs >= 1 is a legal run
    ckpt = tmp_path / "m.npz"
    args = train_args(dataset, ckpt)
    del args[args.index("--patience"):args.index("--patience") + 2]
    args[args.index("--max-epochs") + 1] = str(max_epochs)
    assert cli.main(args) == 0, capsys.readouterr().err
    capsys.readouterr()
    assert ck.read_checkpoint(str(ckpt)).train.patience == max_epochs - 1


def test_train_explicit_patience_still_bounded_by_epochs(tmp_path, dataset, capsys):
    ckpt = tmp_path / "m.npz"
    args = train_args(dataset, ckpt)
    args[args.index("--max-epochs") + 1] = "3"
    args[args.index("--patience") + 1] = "3"
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert "patience=3 max_epochs=3" in err and "Traceback" not in err
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


def test_inspect_checkpoint_without_index_is_usage_error(tmp_path, dataset, capsys):
    # the checkpoint was once ignored, even a missing one, and inspect exited 0
    code = cli.main(["inspect", "--data", str(dataset),
                     "--ckpt", str(tmp_path / "absent.npz")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "--ckpt needs --index" in captured.err


@pytest.mark.parametrize("name", ["absent.npz", ""])
def test_inspect_with_an_unreadable_checkpoint_prints_nothing(tmp_path, dataset, capsys,
                                                               name):
    # an empty --ckpt was once ignored, and a missing file failed only after
    # the sequence was printed
    ckpt = str(tmp_path / name) if name else ""
    code = cli.main(["inspect", "--data", str(dataset), "--ckpt", ckpt, "--index", "0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("command", ["train", "evaluate mrm", "evaluate lr", "inspect"])
def test_a_dataset_file_without_records_exits_2(tmp_path, dataset, capsys, command):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    (tmp_path / "empty.jsonl.config").write_text(
        (tmp_path / "data.jsonl.config").read_text())
    if command == "train":
        argv = train_args(empty, tmp_path / "m.npz")
    elif command == "inspect":
        argv = ["inspect", "--data", str(empty)]
    else:
        ckpt = tmp_path / "m.npz"
        assert cli.main(train_args(dataset, ckpt, model=command.split()[1])) == 0
        capsys.readouterr()
        argv = ["evaluate", "--data", str(empty), "--ckpt", str(ckpt)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {empty}: no records" in captured.err
    assert "Traceback" not in captured.err


def test_inspect_on_json_nested_past_the_recursion_limit_exits_2(tmp_path, dataset,
                                                                 capsys):
    deep = tmp_path / "deep.jsonl"
    depth = 200_000
    deep.write_text(dataset.read_text().splitlines()[0] + "\n"
                    + '{"patient_id": "a", "label": 0, "events": %s%s}\n'
                    % ("[" * depth, "]" * depth))
    (tmp_path / "deep.jsonl.config").write_text(
        (tmp_path / "data.jsonl.config").read_text())
    assert cli.main(["inspect", "--data", str(deep)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: line 2: maximum recursion depth exceeded" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("event", [
    {"code": 0, "t": 0.0, "cat": "x" * 1_000_000},
    {"code": "x" * 100_000, "t": 0.0},
    {"code": 0, "t": 0.0, "num": [[1, "9" * 100_000]]},
    {"code": 0, "t": 0.0, "cat": json.loads("[" * 500 + "]" * 500)},
], ids=["cat string", "code string", "numeric value", "nested cat"])
def test_inspect_on_a_huge_bad_value_exits_2_with_a_short_error(tmp_path, dataset,
                                                                capsys, event):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"patient_id": "a", "label": 0, "events": [event]}) + "\n")
    (tmp_path / "bad.jsonl.config").write_text(
        (tmp_path / "data.jsonl.config").read_text())
    assert cli.main(["inspect", "--data", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mrm: error: line 1: bad event 0: ")
    assert len(captured.err) < 200
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("model", ["mrm", "lr"])
def test_evaluate_on_one_class_exits_2_before_printing(tmp_path, dataset, capsys, model):
    ckpt = tmp_path / "m.npz"
    assert cli.main(train_args(dataset, ckpt, model=model)) == 0
    capsys.readouterr()
    positives = [line for line in dataset.read_text().splitlines()
                 if json.loads(line)["label"] == 1][:3]
    one_class = tmp_path / "pos.jsonl"
    one_class.write_text("\n".join(positives) + "\n")
    (tmp_path / "pos.jsonl.config").write_text(
        (tmp_path / "data.jsonl.config").read_text())
    assert cli.main(["evaluate", "--data", str(one_class), "--ckpt", str(ckpt)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: auc needs both classes" in captured.err


@pytest.mark.parametrize("message, printed", [
    ("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)",
     "error: Unable to allocate 74.5 GiB"),
    ("", "error: out of memory")])
def test_out_of_memory_exits_2_with_its_message(tmp_path, dataset, capsys, monkeypatch,
                                                message, printed):
    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(mm.MrmParams, "init", no_memory)
    assert cli.main(train_args(dataset, tmp_path / "m.npz")) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and printed in captured.err
    assert not (tmp_path / "m.npz").exists()


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
    ck.write_archive(ckpt, {"weight": np.zeros(12)}, meta)
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
    ck.write_archive(ckpt, {"weight": np.zeros(12)}, meta)
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
    arrays, meta = ck.read_archive(ckpt)
    queries, keys, values = np.split(arrays.pop("attention.qkv"), 3)
    for role, stack in (("query", queries), ("key", keys), ("value", values)):
        for h, w in enumerate(np.split(stack, 2)):
            arrays[f"head{h}.{role}_weight"] = w
    legacy = tmp_path / "legacy.npz"
    ck.write_archive(legacy, arrays, meta)
    assert cli.main(evaluate + [str(legacy)]) == 0
    assert capsys.readouterr().out == printed
    del arrays["head1.query_weight"], arrays["head1.key_weight"]
    del arrays["head1.value_weight"]
    ck.write_archive(legacy, arrays, meta)
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


@pytest.mark.parametrize("out", ["missing/m.npz", "d.jsonl/m.npz"])
def test_train_checks_the_out_directory_before_loading_data(
        tmp_path, dataset, capsys, caplog, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.jsonl").write_text("")  # a file, no directory
    # no data file either: the --out check must come first
    with caplog.at_level("INFO", logger="mrm.train"):
        code = cli.main(train_args("nowhere.jsonl", out))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"mrm: error: --out {out}: no writable directory {out[:-6]}\n"
    assert not caplog.records


@pytest.mark.parametrize("model, split", [("lr", False), ("mrm", False), ("mrm", True)])
def test_a_diverging_run_prints_one_error_line_and_no_numpy_warning(
        tmp_path, capsys, monkeypatch, model, split):
    # a batch of 40-60-event sequences has over 1024 rows, so its row
    # blocks run on two threads, and the pool thread must not warn either
    monkeypatch.setattr(dc, "_WORKERS", 2)
    splits, on_workers = [], dc._on_workers
    monkeypatch.setattr(dc, "_on_workers",
                        lambda calls: splits.append(1) or on_workers(calls))
    config = tmp_path / "gen.config"
    config.write_text(GEN_CONFIG.replace("seq_len_min = 8", "seq_len_min = 40")
                      .replace("seq_len_max = 14", "seq_len_max = 60") if split
                      else GEN_CONFIG)
    data = tmp_path / "d.jsonl"
    assert cli.main(["generate", "--config", str(config), "--out", str(data),
                     "--seed", "1"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("MRM_LOG", "quiet")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(train_args(data, tmp_path / "m.npz", model,
                                   ["--lr", "1e308", "--batch-size", "64"]))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("mrm: error: ") and "non-finite" in err and err.count("\n") == 1
    assert [str(w.message) for w in caught] == []
    assert bool(splits) == split


# ---------------------------------------------------------------------------
# scores that are not finite exit 2 with one line that names the checkpoint


def _huge_copy(ckpt, out):
    """out: ckpt with every weight 1e308, finite, so it loads, but its
    scores overflow."""
    arrays, meta = ck.read_archive(ckpt)
    ck.write_archive(out, {name: np.full_like(a, 1e308) for name, a in arrays.items()},
                     meta)
    return out


def _run_without_warnings(args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(args)
    assert [str(w.message) for w in caught] == []
    return code


@pytest.mark.parametrize("command", ["evaluate", "inspect"])
def test_an_mrm_checkpoint_that_scores_nan_exits_2_naming_it(tmp_path, dataset, capsys,
                                                             command):
    ckpt = tmp_path / "m.npz"
    assert cli.main(train_args(dataset, ckpt)) == 0
    huge = _huge_copy(ckpt, tmp_path / "huge.npz")
    capsys.readouterr()
    args = ["--data", str(dataset), "--ckpt", str(huge)]
    code = _run_without_warnings(["evaluate", *args] if command == "evaluate"
                                 else ["inspect", *args, "--index", "2"])
    assert code == 2
    assert capsys.readouterr() == (
        "", f"mrm: error: checkpoint {huge} scores sequence 0 as nan, not a finite "
            f"probability\n")


def test_an_lr_checkpoint_of_huge_weights_scores_without_numpy_warnings(
        tmp_path, dataset, capsys):
    # its logits overflow to +inf, whose probability 1.0 is finite
    ckpt = tmp_path / "m.npz"
    assert cli.main(train_args(dataset, ckpt, "lr")) == 0
    huge = _huge_copy(ckpt, tmp_path / "huge.npz")
    capsys.readouterr()
    assert _run_without_warnings(["evaluate", "--data", str(dataset),
                                  "--ckpt", str(huge)]) == 0
    out, err = capsys.readouterr()
    assert "auc = 0.5\n" in out and err == ""


@pytest.mark.parametrize("model", ["mrm", "lr"])
def test_train_exits_2_when_the_file_scores_are_not_finite(tmp_path, dataset, capsys,
                                                           monkeypatch, model):
    # the checkpoint's scoring path alone sees NaN; training does not
    monkeypatch.setattr(ck, "ev", types.SimpleNamespace(
        score_sequences=lambda kind, params, seqs, config: np.full(len(seqs), np.nan),
        lr_scores=lambda weight, bias, fv: np.full(len(fv), np.nan)))
    out = tmp_path / "m.npz"
    assert cli.main(train_args(dataset, out, model)) == 2
    assert capsys.readouterr().err == (f"mrm: error: checkpoint {out} scores sequence 0 "
                                       f"as nan, not a finite probability\n")
    assert list(tmp_path.glob("m.npz*")) == []


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
    arrays, meta = ck.read_archive(trained)
    bad = tmp_path / "bad_version.npz"
    np.savez(bad, __format_version__=version, __meta__=np.array(json.dumps(meta)),
             **arrays)
    assert "format version" in _evaluate_exits_2(dataset, bad, capsys)


@pytest.mark.parametrize("key, value", [("M", 1.5), ("T_r", None), ("D_m", True),
                                        ("T_r", "nan")])
def test_checkpoint_model_metadata_of_a_wrong_type_is_runtime_error(
        tmp_path, dataset, trained, capsys, key, value):
    arrays, meta = ck.read_archive(trained)
    meta["model"][key] = float(value) if value == "nan" else value
    bad = tmp_path / "bad_meta.npz"
    ck.write_archive(bad, arrays, meta)
    _evaluate_exits_2(dataset, bad, capsys)


def test_checkpoint_with_non_finite_parameters_is_runtime_error(
        tmp_path, dataset, trained, capsys):
    arrays, meta = ck.read_archive(trained)
    arrays["output.bias"] = np.array(np.nan)
    bad = tmp_path / "nan_bias.npz"
    ck.write_archive(bad, arrays, meta)
    assert "output.bias" in _evaluate_exits_2(dataset, bad, capsys)


@pytest.mark.parametrize("entry", [[float("nan"), 1.0], [0.0, float("nan")],
                                   [float("inf"), 1.0], [0.0]])
def test_checkpoint_feature_stats_that_are_no_finite_pair_are_runtime_error(
        tmp_path, dataset, trained, capsys, entry):
    arrays, meta = ck.read_archive(trained)
    assert meta["feature_stats"]
    meta["feature_stats"][next(iter(meta["feature_stats"]))] = entry
    bad = tmp_path / "bad_stats.npz"
    ck.write_archive(bad, arrays, meta)
    assert "feature" in _evaluate_exits_2(dataset, bad, capsys)


# ---------------------------------------------------------------------------
# one fuzz over every file kind: a huge or deeply nested bad value


# the text of each fuzzed value as it stands in a file: a 1,000,000-character
# JSON string, 1,000,000 digits, nesting past the recursion limit and
# nesting just inside it
FUZZ_VALUES = {"string": json.dumps("x" * 1_000_000), "digits": "9" * 1_000_000,
               "deep": "[" * 100_000 + "]" * 100_000, "nested": "[" * 900 + "]" * 900}
_SLOT = "@@"  # where a file takes the fuzzed value
_RECORD = {"patient_id": "p", "label": 0,
           "events": [{"code": 0, "t": 0.0, "cat": [1], "num": [[2, 0.5]]}]}
_SIDECAR = "N_c = 12\nN_f = 3\nmaxFeat = 3\n"


def _with_slot(tree, path):
    """A copy of the JSON tree with the slot string at path, as JSON text
    whose slot takes the value's text in place of the string."""
    tree = json.loads(json.dumps(tree))
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = _SLOT
    return json.dumps(tree).replace(json.dumps(_SLOT), _SLOT)


def _fuzz_cases(kind, checkpoints):
    """(place, command, {file name: text}) for each place of kind's files
    that takes a fuzzed value; a checkpoint is (arrays, metadata text)."""
    record = json.dumps(_RECORD) + "\n"
    if kind == "dataset":
        for path in (("label",), ("events",), ("events", 0), ("events", 0, "code"),
                     ("events", 0, "t"), ("events", 0, "cat"), ("events", 0, "cat", 0),
                     ("events", 0, "num"), ("events", 0, "num", 0),
                     ("events", 0, "num", 0, 1)):
            yield (path, ["inspect", "--data", "d.jsonl"],
                   {"d.jsonl": _with_slot(_RECORD, path) + "\n",
                    "d.jsonl.config": _SIDECAR})
    elif kind in ("sidecar", "generator config"):
        base = _SIDECAR if kind == "sidecar" else GEN_CONFIG
        name, command = (("d.jsonl.config", ["inspect", "--data", "d.jsonl"])
                         if kind == "sidecar" else
                         ("g.config", ["generate", "--config", "g.config", "--out",
                                       "o.jsonl", "--seed", "1"]))
        # the fuzzed value goes first on the key's line, the old value after a #
        texts = {key: base.replace(f"{key} = ", f"{key} = {_SLOT} #", 1)
                 for key in (line.split(" = ")[0] for line in base.splitlines())}
        texts["repeated key"] = f"{_SLOT} = 1\n{base}{_SLOT} = 1\n"
        if kind == "generator config":
            texts["unknown key"] = f"{base}{_SLOT} = 1\n"
        for place, text in texts.items():
            yield place, command, {"d.jsonl": record, name: text}
    else:
        for model, path in checkpoints.items():
            arrays, meta = ck.read_archive(path)
            meta[_SLOT] = 0  # an unknown entry, its name fuzzed
            for entry in [(key,) for key in meta] + [
                    (block, key) for block in meta if isinstance(meta[block], dict)
                    for key in meta[block]]:
                text = (json.dumps(meta) if entry == (_SLOT,) else
                        _with_slot({k: v for k, v in meta.items() if k != _SLOT}, entry))
                yield ((model, *entry),
                       ["evaluate", "--data", "d.jsonl", "--ckpt", "c.npz"],
                       {"d.jsonl": record, "d.jsonl.config": _SIDECAR,
                        "c.npz": (arrays, text)})


@pytest.mark.parametrize("kind", ["dataset", "sidecar", "generator config",
                                  "checkpoint"])
def test_a_huge_or_deeply_nested_value_in_any_file_exits_with_a_short_error(
        tmp_path, dataset, capsys, monkeypatch, kind):
    checkpoints = {}
    if kind == "checkpoint":
        for model in ("mrm", "lr"):
            checkpoints[model] = tmp_path / f"{model}.npz"
            assert cli.main(train_args(dataset, checkpoints[model], model)) == 0
        capsys.readouterr()
    monkeypatch.chdir(tmp_path)  # short relative paths in the messages
    # a sidecar integer too large for an array length; maxFeat caps a count,
    # so any integer is a valid one
    past_intp = {"past intp": "9" * 4000} if kind == "sidecar" else {}
    cases = 0
    for place, command, files in _fuzz_cases(kind, checkpoints):
        values = {**FUZZ_VALUES, **(past_intp if place != "maxFeat" else {})}
        for label, value in values.items():
            for name, content in files.items():
                if isinstance(content, tuple):
                    arrays, text = content
                    np.savez(name, __format_version__=np.array([1]),
                             __meta__=np.array(text.replace(_SLOT, value)), **arrays)
                else:
                    (tmp_path / name).write_text(content.replace(_SLOT, value))
            code = cli.main(command)
            out, err = capsys.readouterr()
            case = (place, label, err[:300])
            assert code in (1, 2), case
            assert out == "", case
            assert len(err.encode()) < 300, case
            assert err.count("\n") == 1 and "Traceback" not in err, case
            cases += 1
    assert cases >= 4 * len(FUZZ_VALUES)


@pytest.mark.parametrize("line", ["N_c = " + "9" * 4000, f"N_c = {2 ** 63}",
                                  f"N_f = {2 ** 63}"],
                         ids=["N_c 4000 nines", "N_c 2**63", "N_f 2**63"])
def test_a_vocabulary_past_the_index_range_exits_2_in_every_command(
        tmp_path, dataset, trained, capsys, line):
    key = line.split(" = ")[0]
    sidecar = tmp_path / "big.config"
    sidecar.write_text("".join(
        line + "\n" if old.startswith(key) else old
        for old in dataset.with_name(dataset.name + ".config").read_text().splitlines(True)))
    data = ["--data", str(dataset), "--data-config", str(sidecar)]
    for args in (train_args(dataset, tmp_path / "lr.npz", "lr", data[2:]),
                 train_args(dataset, tmp_path / "m.npz", "mrm", data[2:]),
                 ["evaluate", *data, "--ckpt", str(trained)],
                 ["inspect", *data], ["inspect", *data, "--index", "0"]):
        code = cli.main(args)
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), args
        assert err.startswith(f"mrm: error: {sidecar}: {key}: ") and "at most" in err
        assert err.count("\n") == 1 and len(err.encode()) < 300 + len(str(sidecar))
