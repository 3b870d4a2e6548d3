"""Acceptance gate: one test per criterion, each records a pass/fail line
that the terminal summary prints after the run."""

import itertools
import time

import numpy as np
import pytest

from mrm import diffcore as dc
from mrm import evalmetrics as em
from mrm import events as ev
from mrm import model as mm
from mrm import syngen
from mrm.partition import InfeasiblePartitionError, optimal_partition

from .conftest import (finite_difference_gradients, head_weights, param_rel_err,
                       tie_avoided_instance)


# ---------------------------------------------------------------------------
# criterion 1: end-to-end gradients vs central finite differences


def test_criterion_1_gradient_suite(acceptance):
    started = time.perf_counter()
    worst = 0.0
    seeds = range(10)
    try:
        for seed in seeds:
            seq, params, config = tie_avoided_instance(seed)
            named = params.named()
            part = mm.sequence_partition(seq, config)

            def loss_value():
                y_hat, _ = mm.forward(seq, params, config, partition=part)
                return mm.loss(y_hat, seq.label).item()

            y_hat, _ = mm.forward(seq, params, config, partition=part)
            mm.loss(y_hat, seq.label).backward()
            numeric = finite_difference_gradients(loss_value, named, h=1e-5)
            for name, t in named.items():
                analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
                err = param_rel_err(name, analytic, numeric[name], config.n_heads)
                worst = max(worst, err)
                assert err < 1e-4, f"seed {seed}, tensor {name}: rel err {err:.2e}"
        elapsed = time.perf_counter() - started
        ok = elapsed < 60.0
        acceptance(1, "gradient suite (10 seeds, every parameter tensor)", ok,
                   f"max rel err {worst:.2e}, {elapsed:.1f}s")
        assert ok, f"runtime {elapsed:.1f}s exceeds 60s"
    except BaseException:
        acceptance(1, "gradient suite (10 seeds, every parameter tensor)", False)
        raise


# ---------------------------------------------------------------------------
# criterion 2: partition optimality vs exhaustive enumeration and DP


def _brute_minimax(times, max_groups, max_group_len):
    n = len(times)
    best = [None]

    def rec(start, used, worst):
        if start == n:
            if best[0] is None or worst < best[0]:
                best[0] = worst
            return
        if used == max_groups:
            return
        for end in range(start + 1, min(n, start + max_group_len) + 1):
            rec(end, used + 1, max(worst, times[end - 1] - times[start]))

    rec(0, 0, -np.inf)
    return best[0]


def _dp_minimax(times, max_groups, max_group_len):
    t = np.asarray(times, dtype=np.float64)
    n = t.size
    prev = np.full(n + 1, np.inf)
    prev[0] = -np.inf
    best = np.inf
    for _ in range(min(max_groups, n)):
        cur = np.full(n + 1, np.inf)
        for i in range(1, n + 1):
            j0 = max(0, i - max_group_len)
            cur[i] = np.min(np.maximum(prev[j0:i], t[i - 1] - t[j0:i]))
        best = min(best, cur[n])
        prev = cur
    return float(best)


def _random_times(rng, n):
    kind = rng.integers(0, 3)
    if kind == 0:
        t = rng.uniform(0, 24, size=n)
    elif kind == 1:
        t = np.cumsum(rng.exponential(0.5, size=n))
    else:
        t = rng.integers(0, max(2, n // 2), size=n).astype(float)
    return np.sort(t)


def test_criterion_2_partition_optimality(acceptance):
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    try:
        exhaustive_checked = 0
        for _ in range(500):
            t = _random_times(rng, int(rng.integers(1, 11)))
            for m, lg in itertools.product(range(1, 5), range(1, 5)):
                if t.size > m * lg:
                    with pytest.raises(InfeasiblePartitionError):
                        optimal_partition(t, m, lg)
                    continue
                got = optimal_partition(t, m, lg).minimax_span
                want = _brute_minimax(list(t), m, lg)
                assert got == want, f"exhaustive mismatch: {got} != {want}"
                exhaustive_checked += 1
        dp_checked = 0
        for _ in range(1000):
            n = int(rng.integers(2, 201))
            t = _random_times(rng, n)
            lg = int(rng.integers(1, 33))
            m = -(-n // lg) + int(rng.integers(0, 8))
            got = optimal_partition(t, m, lg).minimax_span
            want = _dp_minimax(t, m, lg)
            assert got == want, f"dp mismatch: {got} != {want}"
            dp_checked += 1
        elapsed = time.perf_counter() - started
        ok = elapsed < 60.0
        acceptance(2, "partition optimality (exhaustive + DP oracles)", ok,
                   f"{exhaustive_checked} exhaustive, {dp_checked} dp, {elapsed:.1f}s")
        assert ok, f"runtime {elapsed:.1f}s exceeds 60s"
    except BaseException:
        acceptance(2, "partition optimality (exhaustive + DP oracles)", False)
        raise


# ---------------------------------------------------------------------------
# criterion 3: attention vs straight-line oracle


def _oracle_attention(x, times, arrays, config):
    n = len(times)
    out = np.zeros((n, config.model_dim))
    for i in range(n):
        ne = [j for j in range(n)
              if abs(times[j] - times[i]) <= config.window_hours]
        heads = []
        for h in range(config.n_heads):
            wq, wk, wv = head_weights(arrays["attention.qkv"], config.n_heads, h)
            q = wq @ x[i]
            scores = np.array([q @ (wk @ x[j]) for j in ne])
            order = sorted(range(len(ne)), key=lambda k: (-scores[k], k))
            kept = sorted(order[:min(config.topk, len(ne))])
            e = np.exp(scores[kept] - scores[kept].max())
            weights = e / e.sum()
            head = np.zeros(config.head_dim)
            for w, k in zip(weights, kept):
                head = head + w * (wv @ x[ne[k]])
            heads.append(head)
        out[i] = np.concatenate(heads)
    return out


def test_criterion_3_attention_oracle(acceptance):
    rng = np.random.default_rng(3)
    worst = 0.0
    try:
        for trial in range(100):
            n_heads = int(rng.choice([1, 2, 4]))
            config = mm.MrmConfig(n_codes=10, n_features=4, max_features=2,
                                  model_dim=8, n_heads=n_heads,
                                  head_dim=8 // n_heads,
                                  topk=int(rng.integers(1, 4)),
                                  window_hours=float(rng.choice([0.3, 0.5, 1.0])),
                                  max_groups=8, max_group_len=8)
            params = mm.MrmParams.init(config, seed=trial)
            n = int(rng.integers(1, 10))
            times = np.sort(rng.uniform(0, 3, size=n))
            x_data = rng.normal(size=(n, config.model_dim))
            v = mm.sparse_attention(dc.Tensor(x_data), times, params, config)
            want = _oracle_attention(x_data, times, params.arrays(), config)
            err = float(np.max(np.abs(v.data - want)))
            worst = max(worst, err)
            assert err < 1e-10, f"trial {trial}: max abs err {err:.2e}"
        acceptance(3, "attention equals straight-line oracle", True,
                   f"100 instances, max abs err {worst:.2e}")
    except BaseException:
        acceptance(3, "attention equals straight-line oracle", False)
        raise


# ---------------------------------------------------------------------------
# criterion 4: metric oracles


def test_criterion_4_metric_oracles(acceptance):
    rng = np.random.default_rng(4)
    try:
        for _ in range(100):
            n = int(rng.integers(4, 200))
            scores = rng.permutation(n) + rng.uniform(0, 0.25)  # tie-free
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            pair = float(np.mean(pos[:, None] > neg[None, :]))
            assert abs(em.auc(scores, labels) - pair) < 1e-12

            order = sorted(range(n), key=lambda i: (-scores[i], i))
            hits, precs = 0, []
            for rank, i in enumerate(order, start=1):
                if labels[i] == 1:
                    hits += 1
                    precs.append(hits / rank)
            assert abs(em.average_precision(scores, labels) - np.mean(precs)) < 1e-12
        acceptance(4, "auc/ap equal brute-force oracles", True,
                   "100 tie-free instances at 1e-12")
    except BaseException:
        acceptance(4, "auc/ap equal brute-force oracles", False)
        raise


# ---------------------------------------------------------------------------
# criterion 5: relative-ordering benchmark (the slow one)


BENCH_SYNTH = dict(n_sequences=2000, vocab_size=50, seq_len_range=(12, 36),
                   base_rate=2.0, t_signal=0.4, marker_a=0, marker_b=1,
                   marker_c=2, marker_d=3, positive_fraction=0.5, seed=42)
BENCH_LR = 3e-3
BENCH_EPOCHS = 14
BENCH_PATIENCE = 4


@pytest.fixture(scope="module")
def benchmark_splits():
    cfg = syngen.SynthConfig(**BENCH_SYNTH)
    seqs = syngen.generate(cfg)
    data_cfg = syngen.dataset_config_for(cfg)
    splits = ev.split_dataset(seqs, seed=0)
    data_cfg = ev.fit_normalization(splits[0], data_cfg)
    return tuple(ev.normalize_numeric(p, data_cfg) for p in splits), data_cfg


def test_criterion_5_relative_ordering_benchmark(acceptance, benchmark_splits):
    started = time.perf_counter()
    splits, data_cfg = benchmark_splits
    model_cfg = mm.MrmConfig(n_codes=data_cfg.n_codes,
                             n_features=data_cfg.n_features,
                             max_features=data_cfg.max_features,
                             model_dim=32, n_heads=8, head_dim=4, topk=4,
                             window_hours=0.5, max_groups=64, max_group_len=32)
    try:
        train_cfg = em.TrainConfig(lr=BENCH_LR, batch_size=32,
                                   max_epochs=BENCH_EPOCHS,
                                   patience=BENCH_PATIENCE, seed=0)
        _, mrm_report = em.train("mrm", splits, train_cfg, model_cfg)
        _, lstm_report = em.train("plain_lstm", splits, train_cfg, model_cfg)
        lr_cfg = em.TrainConfig(lr=0.05, batch_size=64, max_epochs=40,
                                patience=10, seed=0)
        _, lr_report = em.train_lr_baseline(splits, l2=1e-4, train_config=lr_cfg,
                                            n_codes=data_cfg.n_codes)
        elapsed = time.perf_counter() - started
        detail = (f"mrm {mrm_report.auc:.4f}, lstm {lstm_report.auc:.4f}, "
                  f"lr {lr_report.auc:.4f}, {elapsed:.0f}s")
        ok = (mrm_report.auc >= 0.85
              and lstm_report.auc <= mrm_report.auc + 0.02
              and lr_report.auc <= 0.60
              and elapsed < 900.0)
        acceptance(5, "relative ordering mrm >= 0.85, lstm <= mrm+0.02, lr <= 0.60",
                   ok, detail)
        assert mrm_report.auc >= 0.85, detail
        assert lstm_report.auc <= mrm_report.auc + 0.02, detail
        assert lr_report.auc <= 0.60, detail
        assert elapsed < 900.0, detail
    except BaseException:
        acceptance(5, "relative ordering mrm >= 0.85, lstm <= mrm+0.02, lr <= 0.60",
                   False)
        raise


# ---------------------------------------------------------------------------
# criterion 6: bit-equal training traces for identical seeds


def test_criterion_6_deterministic_training(acceptance, tmp_path):
    cfg = syngen.SynthConfig(n_sequences=120, vocab_size=16, seq_len_range=(8, 16),
                             base_rate=2.0, t_signal=0.4, positive_fraction=0.5,
                             seed=6)
    seqs = syngen.generate(cfg)
    data_cfg = syngen.dataset_config_for(cfg)
    splits = ev.split_dataset(seqs, seed=1)
    data_cfg = ev.fit_normalization(splits[0], data_cfg)
    splits = tuple(ev.normalize_numeric(p, data_cfg) for p in splits)
    model_cfg = mm.MrmConfig(n_codes=16, n_features=8, max_features=3,
                             model_dim=8, n_heads=2, head_dim=4, topk=2,
                             window_hours=0.5, max_groups=8, max_group_len=4)
    train_cfg = em.TrainConfig(lr=1e-3, batch_size=16, max_epochs=3, patience=2,
                               seed=9)
    try:
        paths = []
        for run in range(2):
            _, report = em.train("mrm", splits, train_cfg, model_cfg)
            path = tmp_path / f"trace{run}.csv"
            em.write_trace_csv(path, report)
            paths.append(path)
        ok = paths[0].read_bytes() == paths[1].read_bytes()
        acceptance(6, "identical seeds give bit-equal loss traces", ok,
                   f"{len(paths[0].read_bytes())} bytes compared")
        assert ok
    except BaseException:
        acceptance(6, "identical seeds give bit-equal loss traces", False)
        raise


# ---------------------------------------------------------------------------
# criterion 7: pipeline invariants


def test_criterion_7_pipeline_invariants(acceptance):
    rng = np.random.default_rng(7)
    config = mm.MrmConfig(n_codes=12, n_features=6, max_features=3, model_dim=8,
                          n_heads=2, head_dim=4, topk=2, window_hours=0.5,
                          max_groups=6, max_group_len=4)
    try:
        # attention rows are convex combinations
        for trial in range(25):
            params = mm.MrmParams.init(config, seed=trial)
            n = int(rng.integers(1, 14))
            times = np.sort(rng.uniform(0, 4, size=n))
            x = dc.Tensor(rng.normal(size=(n, config.model_dim)))
            _, weights = mm.sparse_attention(x, times, params, config,
                                             return_weights=True)
            for w in weights:
                assert np.all(w >= 0.0)
                assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12
                assert np.all((w > 0).sum(axis=1) <= config.topk)

        # locality: perturbing x_j leaves v_i untouched whenever j is
        # outside the window of i
        params = mm.MrmParams.init(config, seed=77)
        times = np.array([0.0, 0.2, 0.4, 1.5, 1.8, 4.0, 4.1])
        lo, hi = mm.neighborhood_bounds(times, config.window_hours)
        x_base = rng.normal(size=(7, config.model_dim))
        v_base = mm.sparse_attention(dc.Tensor(x_base), times, params, config).data
        for j in range(7):
            bumped = x_base.copy()
            bumped[j] += 1e-5 * rng.normal(size=config.model_dim)
            v_new = mm.sparse_attention(dc.Tensor(bumped), times, params, config).data
            for i in range(7):
                if not lo[i] <= j < hi[i]:
                    assert np.max(np.abs(v_new[i] - v_base[i])) <= 1e-14

        # head-dimension invariant is enforced
        with pytest.raises(mm.ConfigError):
            mm.MrmConfig(n_codes=12, n_features=6, max_features=3, model_dim=64,
                         n_heads=8, head_dim=7)

        # fuzz: predictions stay strictly inside (0, 1)
        with dc.no_grad():
            for trial in range(1000):
                params = mm.MrmParams.init(config,
                                           seed=int(rng.integers(0, 1 << 30)))
                n = int(rng.integers(1, 30))
                times = np.sort(np.round(rng.uniform(0, 6, size=n),
                                         int(rng.integers(0, 3))))
                evs = []
                for t in times:
                    cat = [int(c) for c in rng.choice(config.n_features,
                                                      size=rng.integers(0, 2),
                                                      replace=False)]
                    num = ([(int(rng.integers(0, config.n_features)),
                             float(rng.normal(0, 100)))]
                           if rng.random() < 0.3 else [])
                    evs.append(ev.ClinicalEvent(int(rng.integers(0, config.n_codes)),
                                                float(t), cat, num))
                seq = ev.EventSequence("f", int(rng.integers(0, 2)), evs)
                y_hat, diag = mm.forward(seq, params, config)
                p = y_hat.item()
                assert np.isfinite(p) and 0.0 < p < 1.0
                assert diag["n_groups"] <= config.max_groups
        acceptance(7, "pipeline invariants (convexity, locality, config, fuzz)",
                   True, "1000 fuzzed sequences")
    except BaseException:
        acceptance(7, "pipeline invariants (convexity, locality, config, fuzz)",
                   False)
        raise
