import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrm import diffcore as dc
from mrm import model as mm
from mrm.events import ClinicalEvent, EventSequence
from mrm.partition import Partition, optimal_partition

from .conftest import (dense_weights, full_band_kept_slots, head_loss_oracle,
                       head_weights, param_rel_err, topk_mask)


def small_config(**overrides):
    base = dict(n_codes=12, n_features=6, max_features=3, model_dim=8,
                n_heads=2, head_dim=4, topk=2, window_hours=0.5,
                max_groups=4, max_group_len=4)
    base.update(overrides)
    return mm.MrmConfig(**base)


def random_sequence(rng, n_events, config, t_span=4.0, with_features=True):
    times = np.sort(rng.uniform(0.0, t_span, size=n_events))
    evs = []
    for t in times:
        cat, num = [], []
        if with_features:
            cat = [int(c) for c in rng.choice(config.n_features,
                                              size=rng.integers(0, 2),
                                              replace=False)]
            if rng.random() < 0.5:
                num = [(int(rng.integers(0, config.n_features)), float(rng.normal()))]
        evs.append(ClinicalEvent(int(rng.integers(0, config.n_codes)), float(t),
                                 cat, num))
    return EventSequence("p", int(rng.integers(0, 2)), evs)


# ---------------------------------------------------------------------------
# straight-line oracles: explicit loops over the defining formulas, no code
# shared with the implementation


def sig(z):
    return 1.0 / (1.0 + np.exp(-z))


def oracle_encode(seq, arrays):
    rows = []
    for e in seq.events:
        x = arrays["code_embedding"][e.code].copy()
        for f in e.cat_features:
            x = x + arrays["cat_embedding"][f]
        for f, v in e.num_features:
            x = x + v * arrays["num_projection"][f]
        rows.append(x)
    return np.array(rows)


def oracle_attention(x, times, arrays, config):
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


def oracle_lstm_step(x, h, c, arrays):
    pre = arrays["lstm.w_input"] @ x + arrays["lstm.w_hidden"] @ h + arrays["lstm.bias"]
    d = h.size
    i = sig(pre[:d])
    f = sig(pre[d:2 * d])
    g = np.tanh(pre[2 * d:3 * d])
    o = sig(pre[3 * d:4 * d])
    c2 = f * c + i * g
    return o * np.tanh(c2), c2


def oracle_partition_groups(times, max_groups, max_group_len):
    """Exhaustive minimax span, then a fresh greedy scan at that span."""
    n = len(times)

    def parts(start, used):
        if start == n:
            yield []
            return
        if used == max_groups:
            return
        for end in range(start + 1, min(n, start + max_group_len) + 1):
            for rest in parts(end, used + 1):
                yield [(start, end)] + rest

    best = min(max(times[e - 1] - times[s] for s, e in p)
               for p in parts(0, 0))
    groups, start = [], 0
    for i in range(1, n):
        if i - start >= max_group_len or times[i] - times[start] > best:
            groups.append((start, i))
            start = i
    groups.append((start, n))
    return groups


def oracle_forward(seq, arrays, config):
    x = oracle_encode(seq, arrays)
    times = [e.t for e in seq.events]
    v = oracle_attention(x, times, arrays, config)
    groups = oracle_partition_groups(times, config.max_groups, config.max_group_len)
    h = np.zeros(config.model_dim)
    c = np.zeros(config.model_dim)
    for s, e in groups:
        h, c = oracle_lstm_step(v[s:e].max(axis=0), h, c, arrays)
    return float(sig(arrays["output.weight"] @ h + arrays["output.bias"]))


def oracle_plain_lstm(seq, arrays, config):
    x = oracle_encode(seq, arrays)
    h = np.zeros(config.model_dim)
    c = np.zeros(config.model_dim)
    for i in range(x.shape[0]):
        h, c = oracle_lstm_step(x[i], h, c, arrays)
    return float(sig(arrays["output.weight"] @ h + arrays["output.bias"]))


def dense_reference_attention(x, times, params, config):
    """The dense per-head form: (n, n) scores, a top-k mask per window row
    from topk_mask, masked softmax, weights @ values. Returns the
    concatenated heads and the per-head dense weight matrices."""
    n = len(times)
    lo, hi = mm.neighborhood_bounds(times, config.window_hours)
    heads, weights = [], []
    for h in range(config.n_heads):
        wq, wk, wv = head_weights(params.named()["attention.qkv"].data,
                                  config.n_heads, h)
        q = x @ wq.T
        k = x @ wk.T
        v = x @ wv.T
        scores = q @ k.T
        mask = np.zeros((n, n), dtype=bool)
        for i in range(n):
            mask[i, lo[i]:hi[i]] = topk_mask(scores[i, lo[i]:hi[i]], config.topk)
        s = np.where(mask, scores, -np.inf)
        e = np.exp(s - s.max(axis=1, keepdims=True))
        w = e / e.sum(axis=1, keepdims=True)
        heads.append(w @ v)
        weights.append(w)
    return np.concatenate(heads, axis=1), weights


# ---------------------------------------------------------------------------
# config and params


def test_config_rejects_head_dim_mismatch():
    with pytest.raises(mm.ConfigError):
        small_config(head_dim=7, n_heads=8, model_dim=64)


def test_config_rejects_bad_topk_and_window():
    with pytest.raises(mm.ConfigError):
        small_config(topk=0)
    with pytest.raises(mm.ConfigError):
        small_config(window_hours=0.0)


@pytest.mark.parametrize("field, value", [
    ("model_dim", 8.0), ("n_heads", True), ("topk", 1.5), ("max_groups", 1.5),
    ("max_group_len", None), ("n_codes", "12"), ("n_features", -1),
    ("max_groups", 0), ("n_heads", 0), ("window_hours", None),
    ("window_hours", float("nan")), ("window_hours", float("inf")),
    ("window_hours", -0.5), ("window_hours", "0.5"), ("window_hours", True),
])
def test_config_rejects_sizes_that_are_no_positive_integers(field, value):
    with pytest.raises(mm.ConfigError, match=field):
        small_config(**{field: value})


def test_config_accepts_numpy_integers_and_integer_window():
    config = small_config(max_groups=np.int64(3), window_hours=1)
    assert config.capacity() == 12


def test_params_from_arrays_rejects_non_finite_values():
    config = small_config()
    for name, bad in (("output.bias", np.nan), ("lstm.w_hidden", np.inf)):
        arrays = mm.MrmParams.init(config, seed=0).arrays()
        arrays[name] = np.full_like(arrays[name], bad)
        with pytest.raises(mm.ConfigError, match=name):
            mm.MrmParams.from_arrays(arrays, config)


def test_params_roundtrip_through_arrays():
    config = small_config()
    params = mm.MrmParams.init(config, seed=3)
    clone = mm.MrmParams.from_arrays(params.arrays(), config, kind="mrm")
    for name, t in params.named().items():
        assert np.array_equal(t.data, clone.named()[name].data)


# sha256 of MrmParams.init(small_config(), seed=0, kind=kind): every array's
# name, shape, dtype and bytes, in order
INIT_DIGESTS = {
    "mrm": "8ef42eee570d41b22cb1b451dc3d6b17b9f3579c18f1201b722cb7f5e2eea206",
    "plain_lstm": "e10f05e325dcb915259472d649e201ec1bc985537874e978958d7837691859e2",
}


@pytest.mark.parametrize("kind", ["mrm", "plain_lstm"])
def test_init_keeps_its_names_and_draw_order(kind):
    digest = hashlib.sha256()
    for name, arr in mm.MrmParams.init(small_config(), seed=0, kind=kind).arrays().items():
        digest.update(f"{name}{arr.shape}{arr.dtype.str}".encode())
        digest.update(arr.tobytes())
    assert digest.hexdigest() == INIT_DIGESTS[kind]


@pytest.mark.parametrize("kind", ["mrm", "plain_lstm"])
def test_param_shapes_are_those_of_init(kind):
    config = small_config()
    named = mm.MrmParams.init(config, seed=0, kind=kind).named()
    shapes = mm.param_shapes(config, kind)
    assert list(shapes) == list(named)
    assert all(shapes[name] == t.shape for name, t in named.items())


def test_params_from_arrays_allocates_no_fresh_parameters(monkeypatch):
    config = small_config()
    arrays = mm.MrmParams.init(config, seed=0, kind="plain_lstm").arrays()

    def no_init(*args, **kwargs):
        raise AssertionError("from_arrays called MrmParams.init")

    monkeypatch.setattr(mm.MrmParams, "init", no_init)
    params = mm.MrmParams.from_arrays(arrays, config, kind="plain_lstm")
    assert "attention.qkv" not in params.named() and params.kind == "plain_lstm"
    assert all(t.needs_grad for t in params.named().values())


@pytest.mark.parametrize("bad, match", [
    (lambda a: a.astype(str), "dtype"), (lambda a: np.array(1.0), "shape"),
    (lambda a: a[:-1], "shape"), (lambda a: a > 0, "dtype")])
def test_check_arrays_names_the_array(bad, match):
    arrays = {"w": np.ones((3, 2)), "b": np.zeros(())}
    shapes = {"w": (3, 2), "b": ()}
    checked = mm.check_arrays(arrays, shapes)
    assert checked["w"] is not arrays["w"] and checked["w"].dtype == np.float64
    arrays["w"] = bad(arrays["w"])
    with pytest.raises(mm.ConfigError, match=f"w.*{match}|{match}.*w"):
        mm.check_arrays(arrays, shapes)


def test_params_from_arrays_rejects_mismatch():
    config = small_config()
    arrays = mm.MrmParams.init(config, seed=0).arrays()
    del arrays["output.bias"]
    with pytest.raises(mm.ConfigError):
        mm.MrmParams.from_arrays(arrays, config)


def legacy_arrays(config, seed):
    """The arrays an older checkpoint holds for MrmParams.init(config, seed):
    one head{h}.{query,key,value}_weight array per head and role, drawn
    after the three embeddings in head order, query then key then value."""
    arrays = mm.MrmParams.init(config, seed=seed).arrays()
    del arrays["attention.qkv"]
    rng = np.random.default_rng(seed)
    d = config.model_dim
    for n in (config.n_codes, config.n_features, config.n_features):
        rng.normal(0.0, 1.0 / np.sqrt(d), size=(n, d))
    a = np.sqrt(6.0 / (config.head_dim + d))
    for h in range(config.n_heads):
        for role in ("query", "key", "value"):
            arrays[f"head{h}.{role}_weight"] = rng.uniform(
                -a, a, size=(config.head_dim, d))
    return arrays


def test_params_load_legacy_per_head_arrays_bit_equal():
    rng = np.random.default_rng(18)
    for config in (small_config(), small_config(n_heads=1, head_dim=8)):
        params = mm.MrmParams.init(config, seed=18)
        arrays = legacy_arrays(config, 18)
        legacy = mm.MrmParams.from_arrays(arrays, config)
        assert list(legacy.named()) == list(params.named())
        assert np.array_equal(legacy.named()["attention.qkv"].data,
                              params.named()["attention.qkv"].data)
        for h in range(config.n_heads):
            wq, wk, wv = head_weights(legacy.named()["attention.qkv"].data,
                                      config.n_heads, h)
            assert np.array_equal(wq, arrays[f"head{h}.query_weight"])
            assert np.array_equal(wk, arrays[f"head{h}.key_weight"])
            assert np.array_equal(wv, arrays[f"head{h}.value_weight"])
        for _ in range(5):
            seq = random_sequence(rng, int(rng.integers(1, 16)), config)
            assert (mm.forward(seq, legacy, config)[0].item()
                    == mm.forward(seq, params, config)[0].item())


def test_params_reject_legacy_heads_that_do_not_match_the_config():
    config = small_config()
    arrays = legacy_arrays(config, 19)
    with pytest.raises(mm.ConfigError, match="N_h"):
        mm.MrmParams.from_arrays(arrays, small_config(n_heads=4, head_dim=2))
    missing = dict(arrays)
    del missing["head1.value_weight"]
    with pytest.raises(mm.ConfigError, match="N_h"):
        mm.MrmParams.from_arrays(missing, config)
    misshapen = dict(arrays, **{"head0.key_weight": np.zeros((3, 8))})
    with pytest.raises(mm.ConfigError, match="N_h"):
        mm.MrmParams.from_arrays(misshapen, config)


# ---------------------------------------------------------------------------
# event encoding


def test_encode_bare_event_is_code_embedding():
    config = small_config()
    params = mm.MrmParams.init(config, seed=1)
    seq = EventSequence("p", 0, [ClinicalEvent(5, 0.0, [], [])])
    x = mm.encode_events(seq, params, config)
    assert np.array_equal(x.data[0], params.named()["code_embedding"].data[5])


def test_encode_zero_valued_numeric_contributes_nothing():
    config = small_config()
    params = mm.MrmParams.init(config, seed=1)
    bare = EventSequence("p", 0, [ClinicalEvent(5, 0.0, [], [])])
    zeroed = EventSequence("p", 0, [ClinicalEvent(5, 0.0, [], [(2, 0.0)])])
    a = mm.encode_events(bare, params, config)
    b = mm.encode_events(zeroed, params, config)
    assert np.array_equal(a.data, b.data)


def test_encode_matches_formula_oracle():
    config = small_config()
    params = mm.MrmParams.init(config, seed=2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        seq = random_sequence(rng, int(rng.integers(1, 10)), config)
        x = mm.encode_events(seq, params, config)
        assert np.allclose(x.data, oracle_encode(seq, params.arrays()), atol=1e-12)


def test_encode_rejects_out_of_range_code():
    config = small_config()
    params = mm.MrmParams.init(config, seed=1)
    seq = EventSequence("p", 0, [ClinicalEvent(config.n_codes, 0.0, [], [])])
    with pytest.raises(ValueError):
        mm.encode_events(seq, params, config)


# ---------------------------------------------------------------------------
# neighborhood and top-k


def neighbors(i, times, window_hours):
    lo, hi = mm.neighborhood_bounds(times, window_hours)
    return set(range(lo[i], hi[i]))


def test_neighborhood_window_example():
    assert neighbors(0, [0.0, 0.4, 2.0], 0.5) == {0, 1}


def test_neighborhood_always_contains_self():
    rng = np.random.default_rng(1)
    times = np.sort(rng.uniform(0, 10, size=30))
    for i in range(30):
        assert i in neighbors(i, times, 0.25)


def test_neighborhood_matches_brute_scan():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        n = int(rng.integers(1, 25))
        times = np.sort(rng.choice([0.0, 0.1, 0.3, 0.9, 2.0, 2.4, 5.0], size=n))
        window = float(rng.choice([0.1, 0.5, 1.0]))
        i = int(rng.integers(0, n))
        brute = {j for j in range(n) if abs(times[j] - times[i]) <= window}
        assert neighbors(i, times, window) == brute


def test_topk_mask_selects_largest():
    assert np.array_equal(topk_mask([3.0, 1.0, 2.0], 2), [True, False, True])


def test_topk_mask_keeps_all_when_k_large():
    assert np.array_equal(topk_mask([1.0, 2.0], 5), [True, True])


def test_topk_mask_ties_resolve_to_lowest_index():
    assert np.array_equal(topk_mask([5.0, 5.0, 5.0], 2), [True, True, False])


def test_topk_mask_count_is_exact():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        scores = rng.choice([0.0, 1.0, 2.0], size=n)  # plenty of ties
        k = int(rng.integers(1, 14))
        assert topk_mask(scores, k).sum() == min(k, n)


# ---------------------------------------------------------------------------
# sparse attention


def test_attention_single_event_is_value_projection():
    config = small_config()
    params = mm.MrmParams.init(config, seed=4)
    seq = EventSequence("p", 0, [ClinicalEvent(3, 1.0, [], [])])
    x = mm.encode_events(seq, params, config)
    v, _ = mm.sparse_attention(x, seq.times(), params, config)
    w_qkv = params.named()["attention.qkv"].data
    expected = np.concatenate([head_weights(w_qkv, config.n_heads, h)[2] @ x.data[0]
                               for h in range(config.n_heads)])
    assert np.allclose(v.data[0], expected, atol=1e-12)


def test_attention_identical_neighbors_share_weight_equally():
    config = small_config()
    params = mm.MrmParams.init(config, seed=5)
    seq = EventSequence("p", 0, [ClinicalEvent(3, 1.0, [], []),
                                 ClinicalEvent(3, 1.1, [], [])])
    x = mm.encode_events(seq, params, config)
    v, kept = mm.sparse_attention(x, seq.times(), params, config)
    weights = dense_weights(kept, len(seq))
    for w in weights:
        assert np.allclose(w, 0.5, atol=1e-12)
    w_qkv = params.named()["attention.qkv"].data
    single = np.concatenate([head_weights(w_qkv, config.n_heads, h)[2] @ x.data[0]
                             for h in range(config.n_heads)])
    assert np.allclose(v.data[0], single, atol=1e-12)
    assert np.allclose(v.data[1], single, atol=1e-12)


def test_attention_matches_straight_line_oracle():
    rng = np.random.default_rng(6)
    for trial in range(30):
        config = small_config(n_heads=1, head_dim=8) if trial % 2 else small_config()
        params = mm.MrmParams.init(config, seed=trial)
        seq = random_sequence(rng, int(rng.integers(1, 9)), config)
        x = mm.encode_events(seq, params, config)
        v, _ = mm.sparse_attention(x, seq.times(), params, config)
        expected = oracle_attention(x.data, [e.t for e in seq.events],
                                    params.arrays(), config)
        assert np.max(np.abs(v.data - expected)) < 1e-10


def test_attention_rows_are_convex_combinations():
    config = small_config()
    params = mm.MrmParams.init(config, seed=7)
    rng = np.random.default_rng(7)
    seq = random_sequence(rng, 15, config)
    x = mm.encode_events(seq, params, config)
    _, kept = mm.sparse_attention(x, seq.times(), params, config)
    weights = dense_weights(kept, len(seq))
    for w in weights:
        assert np.all(w >= 0.0)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
        assert np.all((w > 0).sum(axis=1) <= config.topk)


def test_attention_matches_dense_reference_near_capacity():
    # default model at L = 2000, about 8 events per window against topk = 4
    config = mm.MrmConfig(n_codes=12, n_features=6, max_features=3)
    params = mm.MrmParams.init(config, seed=30)
    rng = np.random.default_rng(30)
    n = 2000
    times = np.sort(rng.uniform(0.0, n / 8.0, size=n))
    lo, hi = mm.neighborhood_bounds(times, config.window_hours)
    assert np.mean(hi - lo > config.topk) > 0.5
    x = rng.normal(size=(n, config.model_dim))
    v, kept = mm.sparse_attention(dc.Tensor(x), times, params, config)
    weights = dense_weights(kept, len(times))
    want_v, want_weights = dense_reference_attention(x, times, params, config)
    assert np.max(np.abs(v.data - want_v)) < 1e-10
    assert len(weights) == config.n_heads
    for w, want in zip(weights, want_weights):
        assert w.shape == (n, n)
        assert np.array_equal(w > 0, want > 0)
        assert np.max(np.abs(w - want)) < 1e-12


def _topk_margin(x, times, params, config, offsets=None):
    """Smallest gap between the topk-th and the next score over all
    windows wider than topk (inf when none is)."""
    lo, hi = mm.neighborhood_bounds(times, config.window_hours, offsets)
    gap = np.inf
    for h in range(config.n_heads):
        wq, wk, _ = head_weights(params.named()["attention.qkv"].data,
                                 config.n_heads, h)
        scores = (x @ wq.T) @ (x @ wk.T).T
        for i in range(len(times)):
            window = np.sort(scores[i, lo[i]:hi[i]])[::-1]
            if window.size > config.topk:
                gap = min(gap, window[config.topk - 1] - window[config.topk])
    return gap


def test_attention_exact_ties_keep_lowest_index():
    # integer inputs and weights make every score an exact integer, so
    # windows wider than topk hold exact ties at the top-k threshold
    config = small_config(topk=2, window_hours=1.0)
    rng = np.random.default_rng(31)
    tied = 0
    for trial in range(20):
        params = mm.MrmParams.init(config, seed=trial)
        for t in params.named().values():
            t.data = rng.integers(-1, 2, size=t.data.shape).astype(np.float64)
        n = int(rng.integers(20, 60))
        times = np.sort(rng.uniform(0.0, n / 6.0, size=n))
        x = rng.integers(-1, 2, size=(n, config.model_dim)).astype(np.float64)
        x[1::3] = x[0::3][:x[1::3].shape[0]]  # duplicated rows tie for sure
        v, kept = mm.sparse_attention(dc.Tensor(x), times, params, config)
        weights = dense_weights(kept, len(times))
        want_v, want_weights = dense_reference_attention(x, times, params, config)
        assert np.max(np.abs(v.data - want_v)) < 1e-12
        for w, want in zip(weights, want_weights):
            assert np.array_equal(w > 0, want > 0)
        tied += _topk_margin(x, times, params, config) == 0.0
    assert tied == 20


def test_attention_backward_matches_finite_differences(fd_grads):
    # windows of about 10 events against topk = 2, so the backward of the
    # kept-set softmax and of the dropped neighbors is exercised everywhere
    config = small_config(window_hours=1.0)
    checked = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        params = mm.MrmParams.init(config, seed=seed)
        n = 40
        times = np.sort(rng.uniform(0.0, 8.0, size=n))
        x = dc.Tensor(rng.normal(size=(n, config.model_dim)), requires_grad=True)
        if _topk_margin(x.data, times, params, config) < 1e-3:
            continue  # finite differences would cross a top-k boundary
        lo, hi = mm.neighborhood_bounds(times, config.window_hours)
        assert np.mean(hi - lo > config.topk) > 0.8
        probe = rng.normal(size=(n, config.model_dim))
        named = {"x": x, "attention.qkv": params.named()["attention.qkv"]}

        def loss_value():
            out, _ = mm.sparse_attention(x, times, params, config)
            return float(np.sum(out.data * probe))

        out, _ = mm.sparse_attention(x, times, params, config)
        dc.sum_all(dc.mul(out, dc.Tensor(probe))).backward()
        numeric = fd_grads(loss_value, named)
        for name, t in named.items():
            assert t.grad is not None, name
            assert param_rel_err(name, t.grad, numeric[name],
                                 config.n_heads) < 1e-6, name
        checked += 1
        if checked == 3:
            break
    assert checked == 3


def _joined_batch(rng):
    """Three sequences back to back: a dense one (windows of about 8
    events), a sparse one (windows of 1 to 3) that starts right after the
    first one ends, so its first windows would reach into it without the
    seam, and a short one. Returns (times, offsets)."""
    dense = np.sort(rng.uniform(0.0, 3.0, size=24))
    sparse = dense[-1] + 0.1 + np.cumsum(np.r_[0.0, rng.uniform(0.3, 0.9, size=9)])
    short = np.sort(rng.uniform(0.0, 0.4, size=3))
    times = np.concatenate([dense, sparse, short])
    return times, np.array([0, 24, 34, 37])


def test_attention_backward_on_a_joined_batch_matches_finite_differences(fd_grads):
    # topk = 4 against windows of 1 to about 10 events: padding entries,
    # selected entries and windows cut at a seam in one call
    config = small_config(topk=4, window_hours=0.5)
    checked = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        params = mm.MrmParams.init(config, seed=seed)
        times, offsets = _joined_batch(rng)
        n = len(times)
        lo, hi = mm.neighborhood_bounds(times, config.window_hours, offsets)
        joined_lo, _ = mm.neighborhood_bounds(times[:34], config.window_hours)
        assert joined_lo[24] < 24 and lo[24] == 24  # a window stops at a seam
        assert np.any(hi - lo < config.topk) and np.any(hi - lo > config.topk)
        x = dc.Tensor(rng.normal(size=(n, config.model_dim)), requires_grad=True)
        if _topk_margin(x.data, times, params, config, offsets) < 1e-3:
            continue  # finite differences would cross a top-k boundary
        probe = rng.normal(size=(n, config.model_dim))
        named = {"x": x, "attention.qkv": params.named()["attention.qkv"]}

        def loss_value():
            out, _ = mm.sparse_attention(x, times, params, config, offsets=offsets)
            return float(np.sum(out.data * probe))

        out, _ = mm.sparse_attention(x, times, params, config, offsets=offsets)
        for a, b in zip(offsets[:-1], offsets[1:]):
            alone, _ = mm.sparse_attention(dc.Tensor(x.data[a:b]), times[a:b],
                                           params, config)
            assert np.max(np.abs(out.data[a:b] - alone.data)) < 1e-12
        dc.sum_all(dc.mul(out, dc.Tensor(probe))).backward()
        numeric = fd_grads(loss_value, named)
        for name, t in named.items():
            assert param_rel_err(name, t.grad, numeric[name],
                                 config.n_heads) < 1e-6, name
        checked += 1
        if checked == 3:
            break
    assert checked == 3


@pytest.mark.parametrize("times", [
    [0.0, 0.3, 0.6, 2.0, 5.0, 5.2, 8.0, 8.1, 8.2],  # widest window 3
    [0.0, 0.1, 0.2, 0.3, 0.35, 0.4, 3.0, 6.0, 6.3, 9.0, 9.4, 9.45],  # and 6
])
def test_attention_weights_of_narrow_windows_match_dense_reference(times):
    # windows of 1 to 3 events against topk = 4: their padding entries
    # repeat a kept row with weight 0 and must not overwrite its weight
    config = small_config(topk=4)
    times = np.array(times)
    lo, hi = mm.neighborhood_bounds(times, config.window_hours)
    assert set(hi - lo) >= {1, 2, 3}
    rng = np.random.default_rng(len(times))
    for seed in range(5):
        params = mm.MrmParams.init(config, seed=seed)
        x = rng.normal(size=(len(times), config.model_dim))
        v, kept = mm.sparse_attention(dc.Tensor(x), times, params, config)
        weights = dense_weights(kept, len(times))
        want_v, want_weights = dense_reference_attention(x, times, params, config)
        assert np.max(np.abs(v.data - want_v)) < 1e-12
        for w, want in zip(weights, want_weights):
            assert np.array_equal(w > 0, want > 0)
            assert np.max(np.abs(w - want)) < 1e-12


@pytest.mark.parametrize("topk", [1, 2, 4, 9])
def test_windowed_attention_returns_kept_rows_and_weights(topk):
    config = small_config(topk=topk, window_hours=1.0)
    params = mm.MrmParams.init(config, seed=topk)
    rng = np.random.default_rng(topk)
    times, offsets = _joined_batch(rng)
    n = len(times)
    lo, hi = mm.neighborhood_bounds(times, config.window_hours, offsets)
    size = hi - lo
    k = min(topk, int(size.max()))
    x = dc.Tensor(rng.normal(size=(n, config.model_dim)))
    out, (rows, weights) = dc.windowed_attention(x, params.named()["attention.qkv"],
                                                 config.n_heads, lo, hi, topk)
    assert out.shape == (n, config.model_dim)
    assert rows.shape == weights.shape == (n, config.n_heads, k)
    assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-12)
    for i in range(n):
        kept = min(k, size[i])
        # kept rows in row order inside the window, then padding on lo[i]
        assert np.all(np.diff(rows[i, :, :kept], axis=-1) > 0)
        assert np.all((rows[i, :, :kept] >= lo[i]) & (rows[i, :, :kept] < hi[i]))
        assert np.all(weights[i, :, :kept] > 0)
        assert np.all(rows[i, :, kept:] == lo[i])
        assert np.all(weights[i, :, kept:] == 0.0)
    assert np.array_equal((weights > 0).sum(axis=-1),
                          np.broadcast_to(np.minimum(size, k)[:, None], (n, config.n_heads)))


_LO = np.array([0, 0, 1, 2, 3, 4])
_HI = np.array([2, 3, 4, 5, 6, 6])


@pytest.mark.parametrize("lo, hi", [
    (np.r_[-3, _LO[1:]], _HI),             # a negative lo would wrap to the last rows
    (np.r_[_LO[:4], 5, 5], _HI),           # lo[4] == 5: the row is outside its window
    (_LO, np.r_[1, 1, _HI[2:]]),           # hi[1] == 1: the row is outside its window
    (_LO, np.r_[_HI[:-1], 7]),             # past the last row
    (np.r_[0, 0, 2, 1, 3, 4], _HI),        # lo decreases
    (_LO, np.r_[2, 4, 3, _HI[3:]]),        # hi decreases
    (_LO[:-1], _HI[:-1]),                  # one window short
    (_LO[None], _HI[None]),                # not one-dimensional
    (_LO.astype(float), _HI),              # not integers
    (_LO, _HI.astype(bool)),
])
def test_windowed_attention_rejects_windows_that_do_not_hold_their_row(lo, hi):
    rng = np.random.default_rng(0)
    x = dc.Tensor(rng.normal(size=(6, 4)))
    w = dc.Tensor(rng.normal(size=(12, 4)))
    dc.windowed_attention(x, w, 2, _LO, _HI, 2)
    dc.windowed_attention(x, w, 2, _LO.astype(np.uint8), _HI.astype(np.int32), 2)
    with pytest.raises(dc.ShapeError, match="windows"):
        dc.windowed_attention(x, w, 2, lo, hi, 2)
    with pytest.raises(dc.ShapeError, match="windows"):
        dc.windowed_attention(dc.Tensor(np.zeros((0, 4))), w, 2, lo[:0], hi[:0], 2)


def _attention_bytes(x, w, n_heads, lo, hi, topk, probe):
    """out, rows, weights and both gradients of one windowed_attention
    call, each as (shape, dtype, bytes)."""
    xt, wt = dc.Tensor(x, requires_grad=True), dc.Tensor(w, requires_grad=True)
    out, (rows, weights) = dc.windowed_attention(xt, wt, n_heads, lo, hi, topk)
    dc.sum_all(dc.mul(out, dc.Tensor(probe))).backward()
    return [(a.shape, a.dtype.str, a.tobytes())
            for a in (out.data, rows, weights, xt.grad, wt.grad)]


# Times are multiples of 0.1 h spread over `spread` steps: one step puts
# every event of a sequence in every window of it, window 0 keeps only the
# events of equal time. Integer-valued inputs give exactly tied scores.
@settings(max_examples=150, deadline=None, derandomize=True)
@given(lengths=st.lists(st.integers(1, 40), min_size=1, max_size=4),
       spread=st.sampled_from([1, 3, 10, 100]), window=st.sampled_from([0.0, 0.1, 0.5]),
       topk=st.integers(1, 6), n_heads=st.integers(1, 3), head_dim=st.integers(1, 4),
       tied=st.booleans(), seed=st.integers(0, 2 ** 16))
@example(lengths=[30], spread=100, window=0.0, topk=3, n_heads=2, head_dim=2,
         tied=False, seed=1)  # all narrow, W < topk
@example(lengths=[4, 4], spread=1, window=0.0, topk=4, n_heads=2, head_dim=2,
         tied=True, seed=2)  # every window W == topk rows
@example(lengths=[10, 7], spread=1, window=0.0, topk=3, n_heads=2, head_dim=3,
         tied=True, seed=3)  # all wide, tied at the k-th score, one seam
@example(lengths=[40, 25, 1, 12], spread=10, window=0.1, topk=2, n_heads=3,
         head_dim=2, tied=True, seed=4)  # mixed, seams
def test_narrow_first_selection_gives_the_bits_of_the_full_band(
        lengths, spread, window, topk, n_heads, head_dim, tied, seed):
    rng = np.random.default_rng(seed)
    offsets = np.cumsum([0, *lengths])
    times = np.concatenate([np.sort(rng.integers(0, spread, size=n)) * 0.1
                            for n in lengths])
    lo, hi = mm.neighborhood_bounds(times, window, offsets)
    d = 4
    if tied:
        x, w = (rng.integers(-1, 2, size=(m, d)).astype(float)
                for m in (offsets[-1], 3 * n_heads * head_dim))
    else:
        x, w = rng.normal(size=(offsets[-1], d)), rng.normal(size=(3 * n_heads * head_dim, d))
    probe = rng.normal(size=(offsets[-1], n_heads * head_dim))
    got = _attention_bytes(x, w, n_heads, lo, hi, topk, probe)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dc, "_kept_slots", full_band_kept_slots)
        want = _attention_bytes(x, w, n_heads, lo, hi, topk, probe)
    assert got == want


@pytest.mark.parametrize("n", [20, 300])
@pytest.mark.parametrize("head_dim", range(1, 17))
def test_one_slot_at_a_time_scores_the_bits_of_the_band(head_dim, n):
    # windowed_attention gathers the keys of one window slot, or of a few
    # for short inputs (n = 20), and scores them in one einsum; the full
    # band oracle scores every slot in one. Equal bytes rest on numpy
    # reducing head_dim the same way in both, which a numpy upgrade could
    # change.
    rng = np.random.default_rng(head_dim)
    n_heads, width, k = 3, 7, 3
    lo = np.minimum(np.sort(rng.integers(0, n, size=n)), np.arange(n))
    hi = np.maximum(np.minimum(lo + rng.integers(1, width + 1, size=n), n), np.arange(n) + 1)
    band_rows = np.minimum(lo[:, None] + np.arange(width), hi[:, None] - 1)
    for q, keys in (
            # integer values: exactly tied scores, and exact sums
            (rng.integers(-2, 3, size=(n, n_heads, head_dim)).astype(float),
             rng.integers(-2, 3, size=(n, n_heads * head_dim)).astype(float)),
            (rng.normal(size=(n, n_heads, head_dim)),
             rng.normal(size=(n, n_heads * head_dim))
             * 10.0 ** rng.integers(-8, 9, size=(n, n_heads * head_dim)))):
        q[::4] = -0.0
        q[1::4] = 0.0
        keys[::5] = -0.0
        band = keys[band_rows].reshape(n, width, n_heads, head_dim)
        want = np.einsum("iha,iwha->ihw", q, band)
        got = dc._window_scores(q, keys, lo, hi, 0, width)
        assert got.tobytes(order="C") == want.tobytes()
        split = np.concatenate([dc._window_scores(q, keys, lo, hi, 0, k),
                                dc._window_scores(q, keys, lo, hi, k, width)], axis=-1)
        assert split.tobytes() == want.tobytes()
        assert np.any(want[:, :, 1:] == want[:, :, :-1])  # ties, if only 0 = 0


def test_attention_locality_outside_window():
    # x_j with j outside Ne(i) must not move v_i at all
    config = small_config()
    params = mm.MrmParams.init(config, seed=8)
    rng = np.random.default_rng(8)
    times = np.array([0.0, 0.1, 0.3, 2.0, 2.2, 5.0])
    seq = EventSequence("p", 0, [ClinicalEvent(int(rng.integers(0, 12)), float(t), [], [])
                                 for t in times])
    x = mm.encode_events(seq, params, config)
    base_x = dc.Tensor(x.data.copy())
    base_v = mm.sparse_attention(base_x, times, params, config)[0].data
    lo, hi = mm.neighborhood_bounds(times, config.window_hours)
    for j in range(len(times)):
        for h_step in (1e-5, 1e-2):
            bumped = dc.Tensor(base_x.data.copy())
            bumped.data[j] += h_step * rng.normal(size=config.model_dim)
            v2 = mm.sparse_attention(bumped, times, params, config)[0].data
            for i in range(len(times)):
                if not lo[i] <= j < hi[i]:
                    assert np.max(np.abs(v2[i] - base_v[i])) <= 1e-14


# ---------------------------------------------------------------------------
# forward, loss, plain LSTM


def test_forward_single_event_matches_manual_pipeline():
    config = small_config()
    params = mm.MrmParams.init(config, seed=9)
    seq = EventSequence("p", 1, [ClinicalEvent(2, 0.7, [], [])])
    y_hat, diag = mm.forward(seq, params, config)
    assert diag["n_groups"] == 1
    arrays = params.arrays()
    g = np.concatenate([head_weights(arrays["attention.qkv"], config.n_heads, h)[2]
                        @ oracle_encode(seq, arrays)[0] for h in range(config.n_heads)])
    h, _ = oracle_lstm_step(g, np.zeros(8), np.zeros(8), arrays)
    expected = sig(arrays["output.weight"] @ h + arrays["output.bias"])
    assert 0.0 < y_hat.item() < 1.0
    assert abs(y_hat.item() - expected) < 1e-12


def test_forward_all_zero_parameters_gives_half():
    config = small_config()
    params, plain = (mm.MrmParams.from_arrays(
        {name: np.zeros(shape) for name, shape in mm.param_shapes(config, kind).items()},
        config, kind) for kind in ("mrm", "plain_lstm"))
    rng = np.random.default_rng(10)
    for _ in range(5):
        seq = random_sequence(rng, int(rng.integers(1, 12)), config)
        y_hat, _ = mm.forward(seq, params, config)
        assert y_hat.item() == 0.5
        assert mm.forward_batch([seq], plain, config).data[0] == 0.5


def test_forward_matches_straight_line_oracle():
    rng = np.random.default_rng(11)
    config = small_config(max_groups=3, max_group_len=4)
    for trial in range(10):
        params = mm.MrmParams.init(config, seed=100 + trial)
        seq = random_sequence(rng, int(rng.integers(2, 9)), config)
        y_hat, _ = mm.forward(seq, params, config)
        assert abs(y_hat.item() - oracle_forward(seq, params.arrays(), config)) < 1e-10


def test_plain_lstm_matches_straight_line_oracle():
    rng = np.random.default_rng(12)
    config = small_config()
    for trial in range(10):
        params = mm.MrmParams.init(config, seed=200 + trial, kind="plain_lstm")
        seq = random_sequence(rng, int(rng.integers(1, 14)), config)
        y_hat = mm.forward_batch([seq], params, config).data[0]
        assert 0.0 < y_hat < 1.0
        assert abs(y_hat - oracle_plain_lstm(seq, params.arrays(), config)) < 1e-10


def test_forward_truncates_to_most_recent_events():
    config = small_config(max_groups=2, max_group_len=2)
    params = mm.MrmParams.init(config, seed=13)
    rng = np.random.default_rng(13)
    seq = random_sequence(rng, 7, config)
    kept = EventSequence(seq.patient_id, seq.label, seq.events[-4:])
    full, diag = mm.forward(seq, params, config)
    manual, diag2 = mm.forward(kept, params, config)
    assert diag["truncated"] and not diag2["truncated"]
    assert diag["n_events"] == 4
    assert full.item() == manual.item()


def test_forward_group_count_bounded():
    config = small_config()
    rng = np.random.default_rng(14)
    params = mm.MrmParams.init(config, seed=14)
    for _ in range(20):
        seq = random_sequence(rng, int(rng.integers(1, 16)), config)
        _, diag = mm.forward(seq, params, config)
        assert diag["n_groups"] <= config.max_groups


def test_forward_invariant_to_file_order_when_times_distinct(tmp_path):
    from mrm import events as events_mod
    config = small_config()
    params = mm.MrmParams.init(config, seed=15)
    rng = np.random.default_rng(15)
    seq = random_sequence(rng, 10, config)
    perm = [seq.events[i] for i in rng.permutation(10)]
    shuffled_file = tmp_path / "shuffled.jsonl"
    events_mod.write_dataset(shuffled_file, [EventSequence("p", seq.label, perm)])
    data_cfg = events_mod.DatasetConfig(config.n_codes, config.n_features,
                                        config.max_features)
    reloaded = events_mod.load_dataset(shuffled_file, data_cfg)[0]
    a, _ = mm.forward(seq, params, config)
    b, _ = mm.forward(reloaded, params, config)
    assert a.item() == b.item()


def test_lstm_op_matches_oracle_step_loop():
    config = small_config()
    params = mm.MrmParams.init(config, seed=40)
    arrays = params.arrays()
    rng = np.random.default_rng(40)
    # one sequence, equal lengths, lengths 1..6 in unsorted order, length 1
    for lengths in ([5], [4, 4, 4], [3, 1, 6, 2, 5, 4], [1], [1, 7]):
        xs = [rng.normal(size=(n, config.model_dim)) for n in lengths]
        w = params.named()
        out = dc.lstm(dc.Tensor(np.concatenate(xs)), np.cumsum([0, *lengths]),
                      w["lstm.w_input"], w["lstm.w_hidden"], w["lstm.bias"])
        assert out.shape == (len(lengths), config.model_dim)
        for row, x in zip(out.data, xs):
            h = c = np.zeros(config.model_dim)
            for x_t in x:
                h, c = oracle_lstm_step(x_t, h, c, arrays)
            assert np.max(np.abs(row - h)) < 1e-12


def _mixed_batch(rng, config):
    """Sequences of mixed lengths, some beyond capacity (truncated)."""
    lengths = (5, 1, config.capacity() + 2, 9, 3, config.capacity(), 7)
    return [random_sequence(rng, n, config) for n in lengths]


def test_forward_batch_matches_per_sequence_forward():
    rng = np.random.default_rng(41)
    config = small_config(max_groups=3, max_group_len=4)
    seqs = _mixed_batch(rng, config)
    params = mm.MrmParams.init(config, seed=41)
    batch = mm.forward_batch(seqs, params, config)
    assert batch.shape == (len(seqs),)
    for p, seq in zip(batch.data, seqs):
        assert abs(p - mm.forward(seq, params, config)[0].item()) < 1e-12
    parts = [mm.sequence_partition(s, config) for s in seqs]
    assert np.array_equal(mm.forward_batch(seqs, params, config, parts).data,
                          batch.data)
    plain = mm.MrmParams.init(config, seed=42, kind="plain_lstm")
    batch = mm.forward_batch(seqs, plain, config)
    for p, seq in zip(batch.data, seqs):
        one = mm.forward_batch([seq], plain, config)
        assert abs(p - one.data[0]) < 1e-12


@pytest.mark.parametrize("kind", ["mrm", "plain_lstm"])
def test_forward_batch_is_the_outcome_of_the_group_vectors(kind):
    rng = np.random.default_rng(47)
    config = small_config(max_groups=3, max_group_len=4)
    seqs = _mixed_batch(rng, config)
    labels = np.array([s.label for s in seqs])
    x, offsets = mm.group_vectors(seqs, mm.MrmParams.init(config, seed=47, kind=kind),
                                  config)
    rows = ([len(mm.sequence_partition(s, config).groups) for s in seqs]
            if kind == "mrm" else [min(len(s), config.capacity()) for s in seqs])
    assert x.shape == (sum(rows), config.model_dim)
    assert np.diff(offsets).tolist() == rows
    runs = []
    for build in (lambda p: mm.forward_batch(seqs, p, config),
                  lambda p: mm.outcome(*mm.group_vectors(seqs, p, config), p)):
        params = mm.MrmParams.init(config, seed=47, kind=kind)
        y_hat = build(params)
        total = mm.loss(y_hat, labels)
        total.backward()
        runs.append([y_hat.data.tobytes(), total.data.tobytes()]
                    + [t.grad.tobytes() for t in params.named().values()])
    assert runs[0] == runs[1]


def test_forward_batch_sequences_do_not_interact():
    # b's events first sit 1000 h after a's, then exactly on a's times, with
    # other codes and features; a's and c's probabilities must not move by
    # a single bit. Times on a 1/8 h grid keep every shifted difference exact,
    # so b's windows, its partition and the batch's band width stay the same.
    config = small_config(max_groups=3, max_group_len=4)
    rng = np.random.default_rng(44)

    def on_grid(seq, times):
        return EventSequence(seq.patient_id, seq.label,
                             [ClinicalEvent(e.code, float(t), e.cat_features,
                                            e.num_features)
                              for e, t in zip(seq.events, times)])

    grid = np.sort(rng.integers(0, 24, size=9)) / 8.0
    a = on_grid(random_sequence(rng, 9, config), grid)
    c = random_sequence(rng, 6, config)
    far = on_grid(random_sequence(rng, 9, config), grid + 1000.0)
    near = on_grid(random_sequence(rng, 9, config), grid)
    for kind in ("mrm", "plain_lstm"):
        params = mm.MrmParams.init(config, seed=44, kind=kind)
        before = mm.forward_batch([a, far, c], params, config).data
        after = mm.forward_batch([a, near, c], params, config).data
        assert before[0] == after[0] and before[2] == after[2], kind
        assert before[1] != after[1], kind


def test_batch_loss_gradients_are_the_mean_of_per_sequence_gradients():
    rng = np.random.default_rng(43)
    config = small_config(max_groups=3, max_group_len=4)
    seqs = _mixed_batch(rng, config)
    labels = np.array([s.label for s in seqs])
    for kind in ("mrm", "plain_lstm"):
        params = mm.MrmParams.init(config, seed=43, kind=kind)
        named = params.named()
        mm.loss(mm.forward_batch(seqs, params, config), labels).backward()
        batched = {name: t.grad.copy() for name, t in named.items()}
        mean = {name: np.zeros_like(t.data) for name, t in named.items()}
        for seq in seqs:
            for t in named.values():
                t.zero_grad()
            mm.loss(mm.forward_batch([seq], params, config),
                    [seq.label]).backward()
            for name, t in named.items():
                if t.grad is not None:
                    mean[name] += t.grad / len(seqs)
        for name in named:
            assert np.max(np.abs(batched[name] - mean[name])) < 1e-12, (kind, name)


def test_forward_rejects_partition_that_does_not_cover_the_events():
    config = small_config(max_groups=8, max_group_len=4)
    params = mm.MrmParams.init(config, seed=16)
    rng = np.random.default_rng(16)
    seq = random_sequence(rng, 20, config)
    times = seq.times()
    first_ten = optimal_partition(times[:10], 8, 4)
    gap = Partition(((0, 5), (6, 20)), (0.0, 0.0), 0.0)
    for part in (first_ten, gap):
        with pytest.raises(ValueError, match="do not cover"):
            mm.forward(seq, params, config, partition=part)
        with pytest.raises(ValueError, match="do not cover"):
            mm.forward_batch([seq], params, config, [part])
    # the partition of the events before truncation does not fit either
    short = small_config()
    assert len(seq) > short.capacity()
    with pytest.raises(ValueError, match="do not cover"):
        mm.forward(seq, mm.MrmParams.init(short, seed=16), short,
                   partition=optimal_partition(times, 8, 4))


def test_forward_batch_rejects_mrm_kind_with_plain_params():
    config = small_config()
    params = mm.MrmParams.init(config, seed=17, kind="plain_lstm")
    seq = random_sequence(np.random.default_rng(17), 4, config)
    with pytest.raises(mm.ConfigError):
        mm.forward(seq, params, config)
    with pytest.raises(mm.ConfigError, match="svm"):
        mm.MrmParams.init(config, seed=17, kind="svm")


def test_loss_values():
    assert abs(mm.loss(dc.Tensor(0.5), 1).item() - 0.6931471805599453) < 1e-12
    assert abs(mm.loss(dc.Tensor(0.5), 0).item() - 0.6931471805599453) < 1e-12
    assert abs(mm.loss(dc.Tensor(0.9), 1).item() - 0.10536) < 1e-5


def test_loss_monotone_and_vanishing_at_truth():
    values = [0.5, 0.9, 0.99, 0.9999, 1.0 - 1e-9]
    losses = [mm.loss(dc.Tensor(v), 1).item() for v in values]
    assert all(a > b for a, b in zip(losses, losses[1:]))
    assert losses[-1] < 1e-6


def test_loss_rejects_bad_label():
    with pytest.raises(ValueError):
        mm.loss(dc.Tensor(0.5), 2)
    with pytest.raises(ValueError):
        mm.loss(dc.Tensor([0.5, 0.5]), [1, 2])
    with pytest.raises(dc.ShapeError):
        mm.loss(dc.Tensor([0.5, 0.5, 0.5]), [0, 1])
    with pytest.raises(dc.ShapeError):  # a scalar probability, one label in a list
        mm.loss(dc.Tensor(0.5), [1])


@pytest.mark.parametrize("l2", [0.0, 1e-4, 0.37])
@pytest.mark.parametrize("one_sequence", [False, True])
def test_head_and_loss_give_the_bits_of_the_micro_op_graph(one_sequence, l2):
    # the loss and the gradients of x, w and b of the fused logistic and
    # cross_entropy ops against the composite they replace, for the (B,)
    # probabilities of forward_batch and the scalar one of forward, with
    # and without the lr baseline's L2 term; logits up to |z| = 800
    rng = np.random.default_rng(int(one_sequence) * 10 + int(l2 * 1000))
    clamped = 0
    for trial in range(300):
        n_rows = 1 if one_sequence else int(rng.integers(1, 41))
        k = int(rng.integers(1, 9))
        x = rng.normal(size=(n_rows, k)) * float(rng.choice([0.1, 1.0, 10.0, 300.0]))
        w = rng.normal(size=k)
        b = float(rng.normal() * rng.choice([0.0, 1.0, 100.0]))
        if trial % 10 == 0:  # exact saturation and exact zeros
            x = np.round(rng.uniform(-800, 800, size=(n_rows, k)) / 200) * 200
            w = np.eye(k)[0] * rng.choice([-1.0, 1.0])
        labels = rng.integers(0, 2, size=n_rows)
        if one_sequence:
            labels = int(labels[0])
        tx, tw, tb = (dc.Tensor(a, requires_grad=True) for a in (x, w, b))
        y_hat = dc.logistic(tx, tw, tb)
        if one_sequence:
            y_hat = dc.sum_all(y_hat)  # as forward does
        total = mm.loss(y_hat, labels)
        if l2 > 0:  # as the lr baseline's batch loss adds it
            total = dc.add(total, dc.scale(dc.sum_all(dc.mul(tw, tw)), l2))
        total.backward()
        want = head_loss_oracle(x, w, b, labels, mm._CLAMP, l2, one_sequence)
        got = (total.data, tx.grad, tw.grad, tb.grad)
        for name, a, o in zip(("loss", "x", "w", "b"), got, want):
            assert np.shape(a) == np.shape(o), name
            assert np.asarray(a).tobytes() == np.asarray(o).tobytes(), (trial, name)
        clamped += np.any((y_hat.data < mm._CLAMP) | (y_hat.data > 1 - mm._CLAMP))
    assert clamped >= 20


def _graph_ops(out):
    """The op tags of the nodes reachable from out, leaves left out, and
    the number of those nodes with the leaves, by a walk over _parents."""
    seen, stack, ops = set(), [out], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if node.op != "leaf":
                ops.append(node.op)
            stack.extend(node._parents)
    return ops, len(seen)


@pytest.mark.parametrize("kind", ["mrm", "plain_lstm"])
@pytest.mark.parametrize("grouped", [True, False])
def test_a_training_batch_is_one_node_per_layer(kind, grouped):
    rng = np.random.default_rng(46)
    config = small_config(max_groups=3 if grouped else 64, max_group_len=8)
    seqs = [random_sequence(rng, n, config, t_span=50.0) for n in (9, 1, 14)]
    parts = [mm.sequence_partition(seq, config) for seq in seqs]
    assert any(e - s > 1 for p in parts for s, e in p.groups) == grouped
    params = mm.MrmParams.init(config, seed=46, kind=kind)
    total = mm.loss(mm.forward_batch(seqs, params, config),
                    np.array([s.label for s in seqs]))
    ops, n_nodes = _graph_ops(total)
    want = ["embed", "lstm", "logistic", "cross_entropy"]
    if kind == "mrm":
        want[1:1] = ["windowed_attention"] + (["group_maxpool"] if grouped else [])
    assert ops[::-1] == want
    assert n_nodes == len(want) + len(params.named())


def test_loss_of_a_vector_is_the_mean_of_scalar_losses():
    probs, labels = [0.2, 0.9, 0.5, 1.0], [0, 1, 1, 0]
    mean = mm.loss(dc.Tensor(probs), labels).item()
    singles = [mm.loss(dc.Tensor(p), y).item() for p, y in zip(probs, labels)]
    assert abs(mean - np.mean(singles)) < 1e-15


# ---------------------------------------------------------------------------
# gradients


def test_end_to_end_gradients_match_finite_differences(make_instance, fd_grads):
    for seed in (0, 1):
        seq, params, config = make_instance(seed)
        named = params.named()
        part = mm.sequence_partition(seq, config)

        def loss_value():
            y_hat, _ = mm.forward(seq, params, config, partition=part)
            return mm.loss(y_hat, seq.label).item()

        y_hat, _ = mm.forward(seq, params, config, partition=part)
        total = mm.loss(y_hat, seq.label)
        total.backward()
        analytic = {name: (t.grad if t.grad is not None else np.zeros_like(t.data))
                    for name, t in named.items()}
        numeric = fd_grads(loss_value, named)
        for name in named:
            assert param_rel_err(name, analytic[name], numeric[name],
                                 config.n_heads) < 1e-4, name


def test_plain_lstm_gradients_match_finite_differences(fd_grads, grad_rel_err):
    config = small_config()
    params = mm.MrmParams.init(config, seed=21, kind="plain_lstm")
    rng = np.random.default_rng(21)
    seq = random_sequence(rng, 8, config)
    named = params.named()

    def loss_value():
        return mm.loss(mm.forward_batch([seq], params, config),
                       [1]).item()

    total = mm.loss(mm.forward_batch([seq], params, config), [1])
    total.backward()
    numeric = fd_grads(loss_value, named)
    for name in named:
        analytic = named[name].grad
        assert analytic is not None, name
        assert grad_rel_err(analytic, numeric[name]) < 1e-4, name


# ---------------------------------------------------------------------------
# fuzzing


def test_forward_fuzzed_sequences_stay_in_open_interval():
    config = small_config()
    rng = np.random.default_rng(99)
    for trial in range(100):
        params = mm.MrmParams.init(config, seed=int(rng.integers(0, 1 << 30)))
        n = int(rng.integers(1, 17))
        times = np.sort(np.round(rng.uniform(0, 3, size=n), 1))  # many ties
        evs = []
        for t in times:
            num = [(int(rng.integers(0, 6)), float(rng.normal(0, 50)))] \
                if rng.random() < 0.3 else []
            evs.append(ClinicalEvent(int(rng.integers(0, 12)), float(t), [], num))
        seq = EventSequence("p", 0, evs)
        y_hat, _ = mm.forward(seq, params, config)
        p = y_hat.item()
        assert np.isfinite(p) and 0.0 < p < 1.0
