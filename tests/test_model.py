import numpy as np
import pytest

from mrm import diffcore as dc
from mrm import model as mm
from mrm.events import ClinicalEvent, EventSequence
from mrm.partition import Partition, optimal_partition

from .conftest import head_weights, param_rel_err, topk_mask


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
        wq, wk, wv = head_weights(params.attention.data, config.n_heads, h)
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
    assert params.attention is None and params.kind == "plain_lstm"
    assert all(t.requires_grad for t in params.named().values())


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
        assert np.array_equal(legacy.attention.data, params.attention.data)
        for h in range(config.n_heads):
            wq, wk, wv = head_weights(legacy.attention.data, config.n_heads, h)
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
    assert np.array_equal(x.data[0], params.code_embedding.data[5])


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
    v = mm.sparse_attention(x, seq.times(), params, config)
    expected = np.concatenate([head_weights(params.attention.data, config.n_heads, h)[2]
                               @ x.data[0] for h in range(config.n_heads)])
    assert np.allclose(v.data[0], expected, atol=1e-12)


def test_attention_identical_neighbors_share_weight_equally():
    config = small_config()
    params = mm.MrmParams.init(config, seed=5)
    seq = EventSequence("p", 0, [ClinicalEvent(3, 1.0, [], []),
                                 ClinicalEvent(3, 1.1, [], [])])
    x = mm.encode_events(seq, params, config)
    v, weights = mm.sparse_attention(x, seq.times(), params, config,
                                     return_weights=True)
    for w in weights:
        assert np.allclose(w, 0.5, atol=1e-12)
    single = np.concatenate([head_weights(params.attention.data, config.n_heads, h)[2]
                             @ x.data[0] for h in range(config.n_heads)])
    assert np.allclose(v.data[0], single, atol=1e-12)
    assert np.allclose(v.data[1], single, atol=1e-12)


def test_attention_matches_straight_line_oracle():
    rng = np.random.default_rng(6)
    for trial in range(30):
        config = small_config(n_heads=1, head_dim=8) if trial % 2 else small_config()
        params = mm.MrmParams.init(config, seed=trial)
        seq = random_sequence(rng, int(rng.integers(1, 9)), config)
        x = mm.encode_events(seq, params, config)
        v = mm.sparse_attention(x, seq.times(), params, config)
        expected = oracle_attention(x.data, [e.t for e in seq.events],
                                    params.arrays(), config)
        assert np.max(np.abs(v.data - expected)) < 1e-10


def test_attention_rows_are_convex_combinations():
    config = small_config()
    params = mm.MrmParams.init(config, seed=7)
    rng = np.random.default_rng(7)
    seq = random_sequence(rng, 15, config)
    x = mm.encode_events(seq, params, config)
    _, weights = mm.sparse_attention(x, seq.times(), params, config,
                                     return_weights=True)
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
    v, weights = mm.sparse_attention(dc.Tensor(x), times, params, config,
                                     return_weights=True)
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
        wq, wk, _ = head_weights(params.attention.data, config.n_heads, h)
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
        v, weights = mm.sparse_attention(dc.Tensor(x), times, params, config,
                                         return_weights=True)
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
        named = {"x": x, "attention.qkv": params.attention}

        def loss_value():
            out = mm.sparse_attention(x, times, params, config)
            return float(np.sum(out.data * probe))

        out = mm.sparse_attention(x, times, params, config)
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
        named = {"x": x, "attention.qkv": params.attention}

        def loss_value():
            out = mm.sparse_attention(x, times, params, config, offsets=offsets)
            return float(np.sum(out.data * probe))

        out = mm.sparse_attention(x, times, params, config, offsets=offsets)
        for a, b in zip(offsets[:-1], offsets[1:]):
            alone = mm.sparse_attention(dc.Tensor(x.data[a:b]), times[a:b], params,
                                        config)
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
        v, weights = mm.sparse_attention(dc.Tensor(x), times, params, config,
                                         return_weights=True)
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
    out, (rows, weights) = dc.windowed_attention(x, params.attention, config.n_heads,
                                                 lo, hi, topk)
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
    base_v = mm.sparse_attention(base_x, times, params, config).data
    lo, hi = mm.neighborhood_bounds(times, config.window_hours)
    for j in range(len(times)):
        for h_step in (1e-5, 1e-2):
            bumped = dc.Tensor(base_x.data.copy())
            bumped.data[j] += h_step * rng.normal(size=config.model_dim)
            v2 = mm.sparse_attention(bumped, times, params, config).data
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
    params = mm.MrmParams.init(config, seed=10)
    for t in params.named().values():
        t.data = np.zeros_like(t.data)
    rng = np.random.default_rng(10)
    for _ in range(5):
        seq = random_sequence(rng, int(rng.integers(1, 12)), config)
        y_hat, _ = mm.forward(seq, params, config)
        assert y_hat.item() == 0.5
        plain = mm.forward_batch([seq], params, config, kind="plain_lstm")
        assert plain.data[0] == 0.5


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
        y_hat = mm.forward_batch([seq], params, config, kind="plain_lstm").data[0]
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
        out = dc.lstm(dc.Tensor(np.concatenate(xs)), np.cumsum([0, *lengths]),
                      params.lstm_w_input, params.lstm_w_hidden, params.lstm_bias)
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
    batch = mm.forward_batch(seqs, plain, config, kind="plain_lstm")
    for p, seq in zip(batch.data, seqs):
        one = mm.forward_batch([seq], plain, config, kind="plain_lstm")
        assert abs(p - one.data[0]) < 1e-12


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
        before = mm.forward_batch([a, far, c], params, config, kind=kind).data
        after = mm.forward_batch([a, near, c], params, config, kind=kind).data
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
        mm.loss(mm.forward_batch(seqs, params, config, kind=kind), labels).backward()
        batched = {name: t.grad.copy() for name, t in named.items()}
        mean = {name: np.zeros_like(t.data) for name, t in named.items()}
        for seq in seqs:
            for t in named.values():
                t.zero_grad()
            mm.loss(mm.forward_batch([seq], params, config, kind=kind),
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
    with pytest.raises(mm.ConfigError):
        mm.forward_batch([seq], params, config, kind="svm")


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
        return mm.loss(mm.forward_batch([seq], params, config, kind="plain_lstm"),
                       [1]).item()

    total = mm.loss(mm.forward_batch([seq], params, config, kind="plain_lstm"), [1])
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
