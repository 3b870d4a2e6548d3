import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrm import evalmetrics as em
from mrm import events as ev
from mrm import model as mm
from mrm import syngen
from mrm.diffcore import Tensor


# ---------------------------------------------------------------------------
# metric oracles: literal definitions


def pair_count_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def definition_loop_ap(scores, labels):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    precisions = []
    for rank, i in enumerate(order, start=1):
        if labels[i] == 1:
            hits += 1
            precisions.append(hits / rank)
    return sum(precisions) / len(precisions)


# ---------------------------------------------------------------------------
# auc


def test_auc_perfect_ranking():
    assert em.auc([0.9, 0.1], [1, 0]) == 1.0


def test_auc_all_ties_is_half():
    assert em.auc([0.3] * 6, [1, 0, 1, 0, 0, 1]) == 0.5


def test_auc_single_class_rejected():
    with pytest.raises(ValueError):
        em.auc([0.1, 0.9], [1, 1])


def test_auc_matches_pair_counting_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(5, 200))
        scores = rng.choice(np.round(rng.normal(size=20), 2), size=n)  # ties likely
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        assert abs(em.auc(scores, labels) - pair_count_auc(scores, labels)) < 1e-12


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(-5, 5), st.integers(0, 1)), min_size=2,
                max_size=60).filter(lambda p: len({y for _, y in p}) == 2),
       st.sampled_from(["affine", "exp", "cube"]))
def test_auc_invariant_under_strictly_monotone_transforms(pairs, kind):
    # scores on a coarse grid so the transforms stay strictly monotone in
    # float arithmetic (distinct inputs cannot collapse to a new tie)
    scores = np.round(np.array([s for s, _ in pairs]), 2)
    labels = [y for _, y in pairs]
    if kind == "affine":
        mapped = 3.0 * scores + 11.0
    elif kind == "exp":
        mapped = np.exp(scores)
    else:
        mapped = scores ** 3 + scores
    assert abs(em.auc(scores, labels) - em.auc(mapped, labels)) < 1e-12


def test_auc_complement_for_tie_free_scores():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(4, 100))
        scores = rng.permutation(n) + rng.uniform(0, 0.5)  # distinct
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        assert abs(em.auc(scores, labels) + em.auc(-scores, labels) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# average precision


def test_ap_positive_ranked_first():
    assert em.average_precision([0.9, 0.1], [1, 0]) == 1.0


def test_ap_positive_ranked_second():
    assert em.average_precision([0.9, 0.1], [0, 1]) == 0.5


def test_ap_no_positives_rejected():
    with pytest.raises(ValueError):
        em.average_precision([0.4, 0.5], [0, 0])


def test_ap_matches_definition_loop_oracle():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(2, 150))
        scores = rng.permutation(n).astype(float)  # tie-free
        labels = rng.integers(0, 2, size=n)
        if not labels.any():
            labels[0] = 1
        got = em.average_precision(scores, labels)
        assert abs(got - definition_loop_ap(list(scores), list(labels))) < 1e-12


def test_ap_is_one_when_positives_outrank_negatives():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n_pos = int(rng.integers(1, 10))
        n_neg = int(rng.integers(1, 10))
        scores = np.concatenate([rng.uniform(2, 3, n_pos), rng.uniform(0, 1, n_neg)])
        labels = np.array([1] * n_pos + [0] * n_neg)
        assert em.average_precision(scores, labels) == 1.0


# ---------------------------------------------------------------------------
# training loop


def tiny_dataset(n=60, seed=5):
    cfg = syngen.SynthConfig(n_sequences=n, vocab_size=12, seq_len_range=(8, 14),
                             base_rate=2.0, t_signal=0.4, marker_a=0, marker_b=1,
                             marker_c=2, marker_d=3, positive_fraction=0.5,
                             seed=seed)
    seqs = syngen.generate(cfg)
    data_cfg = syngen.dataset_config_for(cfg)
    splits = ev.split_dataset(seqs, seed=seed)
    data_cfg = ev.fit_normalization(splits[0], data_cfg)
    return tuple(ev.normalize_numeric(p, data_cfg) for p in splits), data_cfg


def tiny_model_config(data_cfg):
    return mm.MrmConfig(n_codes=data_cfg.n_codes, n_features=data_cfg.n_features,
                        max_features=data_cfg.max_features, model_dim=8, n_heads=2,
                        head_dim=4, topk=2, window_hours=0.5, max_groups=8,
                        max_group_len=4)


def test_train_single_epoch_when_capped():
    splits, data_cfg = tiny_dataset()
    tcfg = em.TrainConfig(max_epochs=1, patience=0, batch_size=8, seed=1)
    _, report = em.train("mrm", splits, tcfg, tiny_model_config(data_cfg))
    assert len(report.loss_trace) == 1
    assert report.best_epoch == 1


def test_train_deterministic_for_fixed_seed():
    splits, data_cfg = tiny_dataset()
    tcfg = em.TrainConfig(max_epochs=2, patience=1, batch_size=8, seed=2)
    _, r1 = em.train("plain_lstm", splits, tcfg, tiny_model_config(data_cfg))
    _, r2 = em.train("plain_lstm", splits, tcfg, tiny_model_config(data_cfg))
    assert r1.loss_trace == r2.loss_trace
    assert (r1.auc, r1.ap) == (r2.auc, r2.ap)


def test_train_returns_params_usable_for_scoring():
    splits, data_cfg = tiny_dataset()
    model_cfg = tiny_model_config(data_cfg)
    tcfg = em.TrainConfig(max_epochs=1, patience=0, batch_size=16, seed=3)
    params, report = em.train("mrm", splits, tcfg, model_cfg)
    scores = em.score_sequences("mrm", params, splits[2], model_cfg)
    labels = [s.label for s in splits[2]]
    assert abs(em.auc(scores, labels) - report.auc) < 1e-12
    assert 0.0 <= report.auc <= 1.0 and 0.0 <= report.ap <= 1.0
    assert report.n_pos + report.n_neg == len(splits[2])


def test_score_sequences_chunks_by_capacity_and_keeps_input_order(monkeypatch):
    # capacity 12 against lengths 1..20 in shuffled order (some truncated):
    # many chunks, each scored by one forward_batch call
    config = mm.MrmConfig(n_codes=12, n_features=6, max_features=3, model_dim=8,
                          n_heads=2, head_dim=4, topk=2, window_hours=0.5,
                          max_groups=3, max_group_len=4)
    rng = np.random.default_rng(8)
    seqs = []
    for n in rng.permutation(np.arange(1, 21)):
        times = np.sort(rng.uniform(0.0, 4.0, size=n))
        seqs.append(ev.EventSequence(f"p{n}", int(n % 2), [
            ev.ClinicalEvent(int(rng.integers(0, 12)), float(t), [int(rng.integers(0, 6))],
                             [(int(rng.integers(0, 6)), float(rng.normal()))])
            for t in times]))
    calls = []
    real = mm.forward_batch

    def spy(batch, *args, **kwargs):
        calls.append(sum(min(len(s), config.capacity()) for s in batch))
        return real(batch, *args, **kwargs)

    monkeypatch.setattr(mm, "forward_batch", spy)
    for kind in ("mrm", "plain_lstm"):
        params = mm.MrmParams.init(config, seed=8, kind=kind)
        calls.clear()
        scores = em.score_sequences(kind, params, seqs, config)
        assert len(calls) >= 3 and max(calls) <= config.capacity(), calls
        assert sum(calls) == sum(min(len(s), config.capacity()) for s in seqs)
        for score, seq in zip(scores, seqs):
            if kind == "mrm":
                want = mm.forward(seq, params, config)[0].item()
            else:
                want = mm.forward_batch([seq], params, config, kind="plain_lstm").data[0]
            assert abs(score - want) < 1e-12, (kind, seq.patient_id)
        if kind == "mrm":
            parts = [mm.sequence_partition(s, config) for s in seqs]
            assert np.array_equal(em.score_sequences(kind, params, seqs, config, parts),
                                  scores)
        empty = em.score_sequences(kind, params, [], config)
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)


def test_train_touches_test_split_only_after_selection(monkeypatch):
    splits, data_cfg = tiny_dataset()
    order = []
    real = em.score_sequences

    def spy(kind, params, seqs, config, partitions=None):
        if seqs is splits[1]:
            order.append("valid")
        elif seqs is splits[2]:
            order.append("test")
        elif seqs is splits[0]:
            order.append("train")
        return real(kind, params, seqs, config, partitions)

    monkeypatch.setattr(em, "score_sequences", spy)
    tcfg = em.TrainConfig(max_epochs=3, patience=2, batch_size=8, seed=4)
    em.train("mrm", splits, tcfg, tiny_model_config(data_cfg))
    assert "test" in order and "valid" in order
    assert order.count("test") == 1
    assert order.index("test") > max(i for i, v in enumerate(order) if v == "valid")


def test_train_reports_divergence_with_batch_id(monkeypatch):
    splits, data_cfg = tiny_dataset()

    def nan_forward(seqs, params, config, partitions=None, kind="mrm"):
        return Tensor(np.full(len(seqs), np.nan))

    monkeypatch.setattr(mm, "forward_batch", nan_forward)
    tcfg = em.TrainConfig(max_epochs=1, patience=0, batch_size=8, seed=5)
    with pytest.raises(em.TrainingDiverged) as exc:
        em.train("mrm", splits, tcfg, tiny_model_config(data_cfg))
    assert "batch 0" in str(exc.value)


def test_train_rejects_unknown_kind():
    splits, data_cfg = tiny_dataset()
    with pytest.raises(ValueError):
        em.train("svm", splits, em.TrainConfig(), tiny_model_config(data_cfg))


def test_train_config_validation():
    with pytest.raises(ValueError):
        em.TrainConfig(patience=5, max_epochs=5)
    with pytest.raises(ValueError):
        em.TrainConfig(lr=0.0)


@pytest.mark.parametrize("field, value", [
    ("lr", float("nan")), ("lr", float("inf")), ("clip_norm", float("nan")),
    ("clip_norm", float("inf")), ("batch_size", 2.0), ("max_epochs", True),
    ("patience", -1), ("seed", None), ("lr", "0.1")])
def test_train_config_rejects_values_that_would_be_ignored_or_crash(field, value):
    # a NaN clip_norm clipped nothing, a NaN lr trained until the loss diverged
    with pytest.raises(em.ConfigError, match=field):
        em.TrainConfig(**{field: value})


@pytest.mark.parametrize("l2", [float("nan"), float("inf"), -5.0, None])
def test_lr_baseline_rejects_an_l2_that_is_no_finite_number_at_least_0(l2):
    tcfg = em.TrainConfig(max_epochs=1, patience=0)
    with pytest.raises(em.ConfigError, match="l2"):
        em.train_lr_baseline(symmetric_splits(), l2, tcfg, n_codes=5)


# ---------------------------------------------------------------------------
# logistic-regression baseline


def fv_toy_splits():
    # code 0 count separates classes perfectly
    def seq(pid, label, codes):
        return ev.EventSequence(pid, label, [ev.ClinicalEvent(c, float(i), [], [])
                                             for i, c in enumerate(codes)])
    pos = [seq(f"p{i}", 1, [0, 0, 0, i % 3 + 1]) for i in range(12)]
    negs = [seq(f"n{i}", 0, [1, 2, 3, i % 3 + 1]) for i in range(12)]
    train = pos[:8] + negs[:8]
    valid = pos[8:10] + negs[8:10]
    test = pos[10:] + negs[10:]
    return train, valid, test


def test_lr_baseline_drives_separable_loss_to_zero():
    splits = fv_toy_splits()
    tcfg = em.TrainConfig(lr=0.1, batch_size=16, max_epochs=200, patience=199, seed=6)
    _, report = em.train_lr_baseline(splits, l2=0.0, train_config=tcfg, n_codes=5)
    assert report.loss_trace[-1][1] < 0.05
    assert report.auc == 1.0


def symmetric_splits():
    # every frequency vector appears once per class, so ANY scoring of the
    # vectors gives AUC exactly 0.5 by symmetry
    def seq(pid, label, codes):
        return ev.EventSequence(pid, label, [ev.ClinicalEvent(c, float(i), [], [])
                                             for i, c in enumerate(codes)])
    patterns = [[0, 1], [2, 2, 3], [4, 0, 1, 1], [3], [2, 4, 4], [0, 3, 3, 3]]
    mirrored = []
    for i, codes in enumerate(patterns):
        mirrored.append(seq(f"a{i}", 1, codes))
        mirrored.append(seq(f"b{i}", 0, codes))
    return mirrored[:8], mirrored[8:10], mirrored[10:]


def test_lr_baseline_huge_l2_shrinks_weights_and_auc_is_half():
    splits = symmetric_splits()
    tcfg = em.TrainConfig(lr=1e-3, batch_size=8, max_epochs=30, patience=29, seed=7)
    named, _ = em.train_lr_baseline(splits, l2=1e6, train_config=tcfg, n_codes=5)
    # Adam steps are lr-sized regardless of gradient scale, so the weights
    # oscillate around zero within a few lr
    assert float(np.abs(named["weight"].data).max()) < 0.01
    full = splits[0] + splits[1] + splits[2]
    scores = em.lr_scores(named["weight"].data, named["bias"].item(),
                          np.stack([ev.frequency_vector(s, 5) for s in full]))
    assert em.auc(scores, [s.label for s in full]) == 0.5


# ---------------------------------------------------------------------------
# report files


def test_report_and_trace_serialization(tmp_path):
    report = em.EvalReport(auc=0.875, ap=0.7, n_pos=4, n_neg=6, train_auc=0.9,
                           train_ap=0.8, valid_auc=0.85, best_epoch=2,
                           loss_trace=[(1, 0.6931, 0.5), (2, 0.5, 0.85)])
    rpath = tmp_path / "r.report"
    em.write_report(rpath, report, extra={"file_auc": repr(0.88)})
    kv = ev.read_keyvalue_file(rpath)
    assert float(kv["test_auc"]) == 0.875
    assert float(kv["file_auc"]) == 0.88
    assert int(kv["best_epoch"]) == 2
    cpath = tmp_path / "r.trace.csv"
    em.write_trace_csv(cpath, report)
    lines = cpath.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,valid_auc"
    assert lines[1] == "1,0.6931,0.5"
