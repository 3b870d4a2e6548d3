"""The checkpoint schema: writer/reader round trips, the faults the reader
names, and a property test of `mrm evaluate` on mutated checkpoints."""

import contextlib
import io
import json
import math
import shutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mrm import checkpoint as ck
from mrm import cli
from mrm import evalmetrics as em
from mrm import events as ev
from mrm import model as mm

GEN_CONFIG = """\
n_sequences = 40
vocab_size = 10
seq_len_min = 8
seq_len_max = 12
base_rate = 2.0
T_signal = 0.4
positive_fraction = 0.5
n_feature_ids = 3
"""


def run_cli(args):
    """(exit code, stdout, stderr) of an in-process cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A dataset with its sidecar, the same file without one, and a
    trained checkpoint of every kind, as {kind: path}."""
    root = tmp_path_factory.mktemp("checkpoints")
    (root / "gen.config").write_text(GEN_CONFIG)
    data = root / "data.jsonl"
    assert run_cli(["generate", "--config", str(root / "gen.config"),
                    "--out", str(data), "--seed", "4"])[0] == 0
    shutil.copy(data, root / "bare.jsonl")
    paths = {}
    for kind in ck.KINDS:
        paths[kind] = root / f"{kind}.npz"
        code, _, err = run_cli([
            "train", "--data", str(data), "--model", kind, "--out", str(paths[kind]),
            "--D_m", "4", "--N_h", "2", "--D_a", "2", "--topk", "2", "--M", "4",
            "--L_G", "4", "--batch-size", "16", "--max-epochs", "2",
            "--patience", "1", "--seed", "1"])
        assert code == 0, err
    return root, paths


def save_raw(path, arrays, meta):
    """An archive in the checkpoint layout, the arrays stored as they are
    (ck.write_archive would cast them to float64)."""
    np.savez(path, __format_version__=np.array([ck.CHECKPOINT_FORMAT_VERSION]),
             __meta__=np.array(json.dumps(meta)), **arrays)


def evaluate(root, ckpt, sidecar=True):
    data = root / ("data.jsonl" if sidecar else "bare.jsonl")
    return run_cli(["evaluate", "--data", str(data), "--ckpt", str(ckpt)])


def assert_exits_2(result, *names):
    code, _, err = result
    assert code == 2, err
    assert "Traceback" not in err
    for name in names:
        assert name in err, err


# ---------------------------------------------------------------------------
# round trip


def test_archive_roundtrip(tmp_path):
    path = tmp_path / "ckpt.npz"
    arrays = {"layer.weight": np.arange(6.0).reshape(2, 3), "bias": np.array(1.5)}
    meta = {"kind": "demo", "dim": 3}
    ck.write_archive(path, arrays, meta)
    loaded, meta2 = ck.read_archive(path)
    assert meta2 == meta
    assert set(loaded) == set(arrays)
    for k in arrays:
        assert np.array_equal(loaded[k], arrays[k])


def test_archive_rejects_reserved_names(tmp_path):
    with pytest.raises(ValueError):
        ck.write_archive(tmp_path / "x.npz", {"__meta__": np.zeros(1)})


@pytest.mark.parametrize("kind", ck.KINDS)
def test_read_then_write_gives_the_same_archive(tmp_path, trained, kind):
    _, paths = trained
    ckpt = ck.read_checkpoint(paths[kind])
    assert ckpt.kind == kind and (ckpt.model is None) == (kind == "lr")
    assert (ckpt.l2 is None) != (kind == "lr")
    copy = tmp_path / "copy.npz"
    ck.write_checkpoint(copy, ckpt)
    with np.load(paths[kind]) as a, np.load(copy) as b:
        assert a.files == b.files
        for name in a.files:
            assert a[name].dtype == b[name].dtype
            assert a[name].tobytes() == b[name].tobytes(), name
    again = ck.read_checkpoint(copy)
    assert (again.dataset, again.model, again.train, again.l2) == (
        ckpt.dataset, ckpt.model, ckpt.train, ckpt.l2)


def test_scores_match_the_train_report(trained):
    root, paths = trained
    data_config = ev.load_sidecar_config(str(root / "data.jsonl.config"))
    seqs = ev.load_dataset(str(root / "data.jsonl"), data_config)
    labels = [s.label for s in seqs]
    for kind in ck.KINDS:
        scores = ck.checkpoint_scores(ck.read_checkpoint(paths[kind]), seqs)
        report = ev.read_keyvalue_file(str(paths[kind]) + ".report")
        assert repr(em.auc(scores, labels)) == report["file_auc"]


# ---------------------------------------------------------------------------
# faults the reader names, each exit 2 from `mrm evaluate`


@pytest.mark.parametrize("name, mutate", [
    ("weight", lambda a: a.update(weight=np.full_like(a["weight"], np.nan))),
    ("bias", lambda a: a.pop("bias")),
    ("bias", lambda a: a.update(bias=np.zeros(2))),
    ("weight", lambda a: a.update(weight=a["weight"].astype(str))),
])
def test_lr_arrays_are_checked(tmp_path, trained, name, mutate):
    root, paths = trained
    arrays, meta = ck.read_archive(paths["lr"])
    mutate(arrays)
    save_raw(tmp_path / "bad.npz", arrays, meta)
    assert_exits_2(evaluate(root, tmp_path / "bad.npz"), name)


@pytest.mark.parametrize("key, value", [("N_c", "x"), ("maxFeat", None),
                                        ("N_f", True), ("N_c", 1.5)])
@pytest.mark.parametrize("sidecar", [True, False])
def test_dataset_sizes_of_a_wrong_type_name_their_entry(tmp_path, trained, key,
                                                        value, sidecar):
    root, paths = trained
    arrays, meta = ck.read_archive(paths["mrm"])
    meta["dataset"][key] = value
    ck.write_archive(tmp_path / "bad.npz", arrays, meta)
    assert_exits_2(evaluate(root, tmp_path / "bad.npz", sidecar), f"dataset.{key}")


@pytest.mark.parametrize("block, key, value", [
    ("train", "lr", float("nan")), ("train", "clip", -1.0),
    ("train", "batch_size", "8"), ("model", "topk", None), ("model", "T_r", [])])
def test_train_and_model_entries_are_checked(tmp_path, trained, block, key, value):
    root, paths = trained
    arrays, meta = ck.read_archive(paths["mrm"])
    meta[block][key] = value
    ck.write_archive(tmp_path / "bad.npz", arrays, meta)
    assert_exits_2(evaluate(root, tmp_path / "bad.npz"), f"{block}.{key}")


@pytest.mark.parametrize("kind, change, entry", [
    ("lr", lambda m: m.update(l2=-5), "l2"),
    ("lr", lambda m: m.update(model={}), "model"),
    ("mrm", lambda m: m.pop("train"), "train"),
    ("mrm", lambda m: m["feature_stats"].pop("0"), "feature_stats"),
    ("mrm", lambda m: m["feature_stats"].update({"0": [1.0]}), "feature_stats.0"),
    ("plain_lstm", lambda m: m["feature_stats"].update({"1": [0.0, -1.0]}),
     "feature_stats[1] std"),
])
def test_metadata_entries_are_named(tmp_path, trained, kind, change, entry):
    root, paths = trained
    arrays, meta = ck.read_archive(paths[kind])
    change(meta)
    ck.write_archive(tmp_path / "bad.npz", arrays, meta)
    assert_exits_2(evaluate(root, tmp_path / "bad.npz"), entry)


def test_huge_model_sizes_are_rejected_before_any_allocation(
        tmp_path, trained, monkeypatch):
    # D_m = 2**40 is a consistent config (N_h * D_a == D_m) whose
    # embeddings alone would take 2**40 * 8 bytes per code
    root, paths = trained
    arrays, meta = ck.read_archive(paths["mrm"])
    meta["model"].update(D_m=2**40, N_h=1, D_a=2**40)
    ck.write_archive(tmp_path / "huge.npz", arrays, meta)

    def no_init(*args, **kwargs):
        raise AssertionError("MrmParams.init called while loading a checkpoint")

    monkeypatch.setattr(mm.MrmParams, "init", no_init)
    tracemalloc.start()
    try:
        result = evaluate(root, tmp_path / "huge.npz")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_exits_2(result, "code_embedding", str(2**40))
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# damaged archives: truncated or with a flipped byte, each exits 2 naming
# the file, or 0 with finite metrics


def damaged_copies(blob, stride):
    """The blob cut short at every stride-th byte (the empty file first),
    then with the bits of every stride-th byte flipped, from the middle
    of the first stride on."""
    yield from (blob[:end] for end in range(0, len(blob), stride))
    for at in range(stride // 2, len(blob), stride):
        yield blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1:]


def test_damaged_checkpoint_files_exit_cleanly(tmp_path, trained):
    root, paths = trained
    bad = tmp_path / "damaged.npz"
    exits = []
    for blob in damaged_copies(paths["lr"].read_bytes(), 23):
        bad.write_bytes(blob)
        for args, metrics in ((["evaluate"], ("auc", "ap")),
                              (["inspect", "--index", "0"], ("prediction",))):
            code, out, err = run_cli(args + ["--data", str(root / "data.jsonl"),
                                             "--ckpt", str(bad)])
            exits.append(code)
            if code:
                assert code == 2, err
                assert "error:" in err and str(bad) in err and "Traceback" not in err
            else:
                values = dict(line.split(" = ") for line in out.strip().splitlines())
                assert all(math.isfinite(float(values[key])) for key in metrics)
    assert exits.count(2) > exits.count(0) > 0


# ---------------------------------------------------------------------------
# property: a mutated checkpoint exits 1 or 2, or 0 with finite metrics

# None, a string, a bool, negative, 1.5, NaN, inf, [] and {}, plus sizes
# from a small bounded set, which may make a valid config of other shapes
LEAF_VALUES = [None, "x", True, -1, 1.5, float("nan"), float("inf"), [], {},
               0, 1, 2, 3, 5]
ARRAY_FAULTS = ["nan", "shape", "0-d", "str", "missing"]


def meta_paths(node, path=()):
    """The path of every entry of a JSON tree, containers included."""
    out = [path] if path else []
    if isinstance(node, dict):
        for key, child in node.items():
            out += meta_paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            out += meta_paths(child, path + (i,))
    return out


def break_array(arrays, name, fault):
    arr = arrays[name]
    if fault == "missing":
        del arrays[name]
    elif fault == "nan":
        arrays[name] = np.full_like(arr, np.nan)
    elif fault == "shape":
        arrays[name] = np.zeros(arr.shape[:-1] + (arr.shape[-1] + 1,)
                                if arr.ndim else (1,))
    elif fault == "0-d":
        arrays[name] = np.array(1.0)
    else:
        arrays[name] = arr.astype(str)


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_checkpoints_exit_cleanly(tmp_path, trained, data):
    root, paths = trained
    kind = data.draw(st.sampled_from(ck.KINDS), label="kind")
    arrays, meta = ck.read_archive(paths[kind])
    if data.draw(st.booleans(), label="mutate metadata"):
        path = data.draw(st.sampled_from(meta_paths(meta)), label="entry")
        parent = meta
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(st.sampled_from(LEAF_VALUES), label="value")
    else:
        name = data.draw(st.sampled_from(sorted(arrays)), label="array")
        break_array(arrays, name, data.draw(st.sampled_from(ARRAY_FAULTS),
                                            label="fault"))
    save_raw(tmp_path / "fuzz.npz", arrays, meta)
    sidecar = data.draw(st.booleans(), label="sidecar")
    code, out, err = evaluate(root, tmp_path / "fuzz.npz", sidecar)
    assert code in (0, 1, 2), err
    if code == 0:
        metrics = dict(line.split(" = ") for line in out.strip().splitlines())
        assert all(math.isfinite(float(metrics[k])) for k in ("auc", "ap"))
        data_config = ev.load_sidecar_config(str(root / "data.jsonl.config"))
        seqs = ev.load_dataset(str(root / "data.jsonl"), data_config)
        ckpt = ck.read_checkpoint(tmp_path / "fuzz.npz")
        assert np.isfinite(ck.checkpoint_scores(ckpt, seqs)).all()
    else:
        assert "error:" in err and "Traceback" not in err
