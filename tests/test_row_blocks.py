"""Row-parallel forward kernels: results that do not depend on the number
of workers, an unchanged set of module attributes, and the row floor
below which no thread starts."""

import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import mrm
from mrm import diffcore as dc
from mrm import evalmetrics, events, model as mm, syngen


@pytest.fixture
def submits(monkeypatch):
    """Count the blocks handed to the pool."""
    calls = []
    submit = dc._POOL.submit

    def counting(fn, *args):
        calls.append(args)
        return submit(fn, *args)

    monkeypatch.setattr(dc._POOL, "submit", counting)
    return calls


def _batch():
    """Five sequences, 1280 events in all, of a vocabulary so small that
    many events of a window encode to the same vector (tied scores)."""
    synth = syngen.SynthConfig(n_sequences=5, vocab_size=5, seq_len_range=(200, 300),
                               base_rate=8.0, n_feature_ids=2, max_features=2, seed=4)
    seqs = syngen.generate(synth)
    config = mm.MrmConfig(n_codes=5, n_features=2, max_features=2, model_dim=16,
                          n_heads=4, head_dim=4, topk=3, window_hours=0.5)
    return seqs, config


def _pipeline(seqs, config, params):
    """Encoding, attention and every gradient of a fixed loss on them."""
    for t in params.named().values():
        t.grad = None
    offsets = np.concatenate([[0], np.cumsum([len(s) for s in seqs])])
    times = np.concatenate([s.times() for s in seqs])
    lo, hi = mm.neighborhood_bounds(times, config.window_hours, offsets)
    x = mm.encode_events(events.concatenate(seqs), params, config)
    out, (rows, weights) = dc.windowed_attention(x, params.attention, config.n_heads,
                                                 lo, hi, config.topk)
    probe = np.random.default_rng(0).normal(size=out.shape)
    dc.sum_all(dc.mul(out, dc.Tensor(probe))).backward()
    grads = {name: t.grad for name, t in params.named().items() if t.grad is not None}
    return (x.data, out.data, rows, weights), grads, (lo, hi)


def _ties_at_the_last_kept(x, w_qkv, config, lo, hi):
    """How many (query, head) pairs score their topk-th and (topk+1)-th
    best window rows the same."""
    ha = config.n_heads * config.head_dim
    q = (x @ w_qkv[:ha].T).reshape(len(x), config.n_heads, -1)
    keys = (x @ w_qkv[ha:2 * ha].T).reshape(len(x), config.n_heads, -1)
    ties = 0
    for i in np.flatnonzero(hi - lo > config.topk):
        scores = np.sort(np.einsum("ha,wha->hw", q[i], keys[lo[i]:hi[i]]), axis=1)
        ties += np.sum(scores[:, -config.topk] == scores[:, -config.topk - 1])
    return ties


def test_two_workers_give_the_bits_of_one(monkeypatch, submits):
    seqs, config = _batch()
    params = mm.MrmParams.init(config, seed=2)
    monkeypatch.setattr(dc, "_WORKERS", 1)
    serial, serial_grads, (lo, hi) = _pipeline(seqs, config, params)
    assert submits == []
    monkeypatch.setattr(dc, "_WORKERS", 2)
    split, split_grads, _ = _pipeline(seqs, config, params)
    n = len(lo)
    cut = n // 2
    # embed and attention each split once, at the middle row
    assert n >= 2 * dc._MIN_BLOCK_ROWS and submits == [(cut, n)] * 2
    # windows that straddle the cut, windows stopped at every seam, and
    # kept entries picked among tied scores
    assert np.any((lo < cut) & (hi > cut))
    seams = np.cumsum([len(s) for s in seqs])[:-1]
    assert np.all(hi[seams - 1] == seams) and np.all(lo[seams] == seams)
    assert _ties_at_the_last_kept(serial[0], params.attention.data, config, lo, hi) > 0
    for got, want in zip(split, serial):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert split_grads.keys() == serial_grads.keys() and len(serial_grads) == 4
    for name, grad in serial_grads.items():
        assert np.array_equal(split_grads[name], grad), name


def test_many_blocks_under_fast_thread_switching_keep_every_row(monkeypatch):
    # more blocks than CPUs and a thread switch every microsecond: a block
    # that wrote another's rows, or a row left unwritten, shows as a change
    seqs, config = _batch()
    params = mm.MrmParams.init(config, seed=6)
    monkeypatch.setattr(dc, "_MIN_BLOCK_ROWS", 64)
    monkeypatch.setattr(dc, "_WORKERS", 1)
    want, want_grads, _ = _pipeline(seqs, config, params)
    monkeypatch.setattr(dc, "_WORKERS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        started = time.perf_counter()
        for _ in range(3):
            got, grads, _ = _pipeline(seqs, config, params)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            assert all(np.array_equal(grads[name], g) for name, g in want_grads.items())
        assert time.perf_counter() - started < 60.0
    finally:
        sys.setswitchinterval(interval)


def test_embed_sums_equal_np_add_at():
    rng = np.random.default_rng(5)
    n, d = 1500, 6
    table = dc.Tensor(rng.normal(size=(9, d)))
    counts = rng.integers(0, 4, size=n)
    rows = np.repeat(np.arange(n), counts)
    ids = rng.integers(0, 9, size=rows.size)
    weights = rng.normal(size=rows.size)
    weights[::7] = -0.0
    want = np.zeros((n, d))
    np.add.at(want, rows, table.data[ids] * weights[:, None])
    got = dc.embed(n, [(table, ids, rows, weights)]).data
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_embed_rejects_rows_out_of_order():
    table = dc.Tensor(np.zeros((4, 2)))
    with pytest.raises(dc.ShapeError):
        dc.embed(3, [(table, [0, 1], [2, 1], None)])
    with pytest.raises(dc.ShapeError):
        dc.embed(3, [(table, [0, 1], [0, 3], None)])


def _snapshot():
    modules = [mrm, *(getattr(mrm, name) for name in
                      ("checkpoint", "cli", "diffcore", "evalmetrics", "events",
                       "model", "partition", "syngen"))]
    snap = {m.__name__: dict(vars(m)) for m in modules}
    snap["Tensor"] = dict(vars(dc.Tensor))
    return snap


def _changed(before, after):
    return sorted(f"{owner}.{name}" for owner, attrs in before.items()
                  for name in attrs.keys() | after[owner].keys()
                  if attrs.get(name, before) is not after[owner].get(name, after))


def test_a_split_call_changes_no_module_attribute(monkeypatch, submits):
    import mrm.checkpoint  # noqa: F401  (every module, for the snapshot)
    import mrm.cli  # noqa: F401
    monkeypatch.setattr(dc, "_WORKERS", 2)
    synth = syngen.SynthConfig(n_sequences=1, seq_len_range=(2048, 2048), seed=1)
    seq = syngen.generate(synth)[0]
    config = mm.MrmConfig(n_codes=50, n_features=8, max_features=3)
    params = mm.MrmParams.init(config, seed=0)
    before = _snapshot()
    scores = evalmetrics.score_sequences("mrm", params, [seq], config)
    assert _changed(before, _snapshot()) == []
    assert len(submits) == 2 and 0.0 < scores[0] < 1.0
    assert any(t.name.startswith("mrm-rows") for t in threading.enumerate())


def test_the_short_train_workload_splits_only_its_training_split_report(
        monkeypatch, submits, tmp_path):
    # Its training batches, its validation split and its scoring cohort
    # stay under the two-block floor. The report scores the 1183 events of
    # the training split in one chunk, the one call that splits.
    from perfbench import workloads
    monkeypatch.setattr(dc, "_WORKERS", 2)
    prep = workloads.setup(workloads.WORKLOADS["short_train"], 1, str(tmp_path))
    n_train = sum(len(s) for s in prep.splits[0])
    params, _ = evalmetrics.train("mrm", prep.splits, prep.train_cfg, prep.model_cfg)
    assert n_train == 1183 and submits == [(n_train // 2, n_train)] * 2
    threads = threading.active_count()
    evalmetrics.score_sequences("mrm", params, prep.score_seqs, prep.model_cfg)
    assert len(submits) == 2 and threading.active_count() == threads


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity on this platform")
def test_one_cpu_means_one_worker_and_no_thread():
    code = """
import os, threading
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from mrm import diffcore as dc
assert dc._WORKERS == 1, dc._WORKERS
x = dc.Tensor(np.random.default_rng(0).normal(size=(4096, 8)))
w = dc.Tensor(np.random.default_rng(1).normal(size=(24, 8)))
lo = np.maximum(np.arange(4096) - 5, 0)
dc.windowed_attention(x, w, 2, lo, np.minimum(lo + 11, 4096), 4)
assert threading.active_count() == 1, threading.enumerate()
"""
    src = os.path.dirname(os.path.dirname(mrm.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=False)
    assert done.returncode == 0, done.stderr


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_splits_rows_too(monkeypatch):
    monkeypatch.setattr(dc, "_WORKERS", 2)
    rng = np.random.default_rng(0)
    x = dc.Tensor(rng.normal(size=(2048, 8)))
    w = dc.Tensor(rng.normal(size=(24, 8)))
    lo = np.maximum(np.arange(2048) - 5, 0)
    hi = np.minimum(lo + 11, 2048)
    want = dc.windowed_attention(x, w, 2, lo, hi, 4)[0].data  # starts the pool
    pid = os.fork()
    if pid == 0:  # the child must not wait for the parent's pool thread
        same = np.array_equal(dc.windowed_attention(x, w, 2, lo, hi, 4)[0].data, want)
        os._exit(0 if same else 1)
    for _ in range(600):
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung on the row split")
    assert os.waitstatus_to_exitcode(status) == 0

