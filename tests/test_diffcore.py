import numpy as np
import pytest

from mrm import diffcore as dc


def t(data, grad=True):
    return dc.Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# forward semantics


def test_matmul_ones():
    a = t(np.ones((2, 3)))
    b = t(np.ones(3))
    out = dc.matmul(a, b)
    assert out.shape == (2,)
    assert np.all(out.data == 3.0)


def test_matmul_shape_error_reports_both_shapes():
    with pytest.raises(dc.ShapeError) as exc:
        dc.matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))
    assert "(2, 3)" in str(exc.value)


def test_add_shape_error():
    with pytest.raises(dc.ShapeError) as exc:
        dc.add(t(np.ones(3)), t(np.ones(4)))
    assert "(3,)" in str(exc.value) and "(4,)" in str(exc.value)


def test_sigmoid_at_zero():
    out = dc.sigmoid(t(0.0))
    assert out.item() == 0.5


def test_sigmoid_extreme_inputs_stable():
    out = dc.sigmoid(t([-800.0, 800.0]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] == 0.0 and out.data[1] == 1.0


def test_maxpool_rows_coordinatewise():
    out = dc.maxpool_rows(t([[1.0, 5.0], [3.0, 2.0]]))
    assert np.array_equal(out.data, [3.0, 5.0])


def test_maxpool_rows_single_row_identity():
    out = dc.maxpool_rows(t([[1.0, 2.0, 3.0]]))
    assert np.array_equal(out.data, [1.0, 2.0, 3.0])


def test_maxpool_rows_empty_rejected():
    with pytest.raises(dc.ShapeError):
        dc.maxpool_rows(t(np.zeros((0, 3))))


def test_maxpool_tie_goes_to_lowest_row():
    x = t([[2.0, 1.0], [2.0, 1.0]])
    out = dc.maxpool_rows(x)
    out.backward(np.array([1.0, 1.0]))
    assert np.array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0]])


def test_group_maxpool_matches_slice_and_maxpool_rows():
    rng = np.random.default_rng(5)
    tied = 0
    for trial in range(200):
        n, d = int(rng.integers(1, 12)), int(rng.integers(1, 5))
        if trial % 2:  # small integers: exact ties inside groups
            data = rng.integers(0, 3, size=(n, d)).astype(np.float64)
        else:
            data = rng.normal(size=(n, d))
        starts = np.flatnonzero(np.r_[True, rng.random(n - 1) < 0.4])
        ends = np.r_[starts[1:], n]
        probe = rng.normal(size=(starts.size, d))
        x_new, x_old = t(data), t(data)
        pooled = dc.group_maxpool(x_new, starts)
        dc.sum_all(dc.mul(pooled, dc.Tensor(probe))).backward()
        total = dc.Tensor(0.0)
        for k, (s, e) in enumerate(zip(starts, ends)):
            ref = dc.maxpool_rows(dc.slice_rows(x_old, s, e))
            assert np.array_equal(pooled.data[k], ref.data)
            total = dc.add(total, dc.sum_all(dc.mul(ref, dc.Tensor(probe[k]))))
            tied += np.any((data[s:e] == ref.data).sum(axis=0) > 1)
        total.backward()
        assert np.array_equal(x_new.grad, x_old.grad)
    assert tied > 50


def test_group_maxpool_singletons_pass_through():
    x = t(np.arange(6.0).reshape(3, 2))
    assert dc.group_maxpool(x, [0, 1, 2]) is x


@pytest.mark.parametrize("starts", [[], [1, 2], [0, 2, 2], [0, 2, 1], [0, 3]])
def test_group_maxpool_rejects_starts_that_do_not_split_the_rows(starts):
    with pytest.raises(dc.ShapeError):
        dc.group_maxpool(t(np.zeros((3, 2))), starts)


def test_clip_passes_gradient_only_inside_range():
    x = t([-2.0, 0.5, 2.0])
    out = dc.sum_all(dc.clip(x, 0.0, 1.0))
    out.backward()
    assert np.array_equal(x.grad, [0.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# backward correctness


def test_diamond_graph_accumulates():
    # f = sum(x*x + x): shared x feeds two branches, df/dx = 2x + 1
    x = t([1.0, -2.0, 3.0])
    out = dc.sum_all(dc.add(dc.mul(x, x), x))
    out.backward()
    assert np.allclose(x.grad, 2.0 * x.data + 1.0, atol=1e-15)


def _random_composite(seed):
    """A small randomly-shaped pipeline through every elementwise,
    linear-algebra, embedding and pooling op."""
    rng = np.random.default_rng(seed)
    params = {
        "A": dc.Tensor(rng.normal(size=(3, 4)), requires_grad=True),
        "w": dc.Tensor(rng.normal(size=4), requires_grad=True),
        "c": dc.Tensor(rng.normal(), requires_grad=True),
        "T": dc.Tensor(rng.normal(size=(5, 3)), requires_grad=True),
        "U": dc.Tensor(rng.normal(size=(4, 3)), requires_grad=True),
    }
    idx = rng.integers(0, 5, size=4)
    ids = rng.integers(0, 4, size=6)
    rows = np.sort(rng.integers(0, 4, size=6))
    factors = rng.normal(size=6)

    def forward():
        A, w, c, T, U = (params[k] for k in "AwcTU")
        m = dc.sigmoid(dc.add(dc.matmul(A, w), c))   # (m,k)@(k,), scalar bias
        e = dc.embed(4, [(T, idx, None, None), (U, ids, rows, factors)])  # 4x3
        pooled = dc.maxpool_rows(dc.slice_rows(e, 1, 3))  # 3-vector
        grouped = dc.group_maxpool(e, [0, 2])        # 2x3
        mixed = dc.clip(dc.mul(m, pooled), -0.5, 0.5)
        squares = dc.add(dc.mul(grouped, grouped), dc.Tensor(np.ones((2, 3))))
        total = dc.add(dc.sum_all(mixed), dc.scale(dc.sum_all(dc.log(squares)), 0.5))
        return dc.add(total, dc.neg(dc.sum_all(dc.matmul(e, m))))

    return params, forward


@pytest.mark.parametrize("seed", range(20))
def test_composite_gradients_match_finite_differences(seed, fd_grads, grad_rel_err):
    params, forward = _random_composite(seed)
    loss = forward()
    loss.backward()
    analytic = {k: p.grad for k, p in params.items()}
    numeric = fd_grads(lambda: forward().item(), params)
    for name in params:
        assert grad_rel_err(analytic[name], numeric[name]) < 1e-4, name


def test_matrix_vector_and_scalar_bias_gradients(fd_grads, grad_rel_err):
    rng = np.random.default_rng(9)
    params = {
        "v": dc.Tensor(rng.normal(size=4), requires_grad=True),
        "M": dc.Tensor(rng.normal(size=(3, 4)), requires_grad=True),
        "X": dc.Tensor(rng.normal(size=(5, 3)), requires_grad=True),
        "b": dc.Tensor(rng.normal(), requires_grad=True),
    }

    def forward():
        row_scores = dc.matmul(params["M"], params["v"])        # (m,k)@(k,)
        scores = dc.matmul(params["X"], row_scores)             # (m,k)@(k,)
        return dc.sum_all(dc.sigmoid(dc.add(scores, params["b"])))  # scalar bias

    loss = forward()
    loss.backward()
    numeric = fd_grads(lambda: forward().item(), params)
    for name, t in params.items():
        assert grad_rel_err(t.grad, numeric[name]) < 1e-4, name


def test_maxpool_gradient_matches_finite_differences(fd_grads, grad_rel_err):
    rng = np.random.default_rng(3)
    x = dc.Tensor(rng.normal(size=(4, 5)), requires_grad=True)

    def forward():
        return dc.sum_all(dc.mul(dc.maxpool_rows(x), dc.maxpool_rows(x)))

    loss = forward()
    loss.backward()
    numeric = fd_grads(lambda: forward().item(), {"x": x})
    assert grad_rel_err(x.grad, numeric["x"]) < 1e-4


def test_embed_matches_loop_oracle_and_finite_differences(fd_grads, grad_rel_err):
    # rows with zero, one and several feature entries, a repeated id, and
    # weights of both signs
    rng = np.random.default_rng(13)
    n, d = 6, 3
    params = {"codes": t(rng.normal(size=(7, d))), "cat": t(rng.normal(size=(5, d))),
              "num": t(rng.normal(size=(5, d)))}
    codes = rng.integers(0, 7, size=n)
    cat_ids, cat_rows = [1, 1, 4, 0, 2], [0, 2, 2, 3, 5]
    num_ids, num_rows, num_w = [3, 0, 3], [1, 1, 4], rng.normal(size=3)
    probe = rng.normal(size=(n, d))

    def forward():
        return dc.embed(n, [(params["codes"], codes, None, None),
                            (params["cat"], cat_ids, cat_rows, None),
                            (params["num"], num_ids, num_rows, num_w)])

    want = params["codes"].data[codes].copy()
    for f, r in zip(cat_ids, cat_rows):
        want[r] += params["cat"].data[f]
    for f, r, w in zip(num_ids, num_rows, num_w):
        want[r] += w * params["num"].data[f]
    out = forward()
    assert np.max(np.abs(out.data - want)) < 1e-14
    dc.sum_all(dc.mul(out, dc.Tensor(probe))).backward()
    numeric = fd_grads(lambda: float(np.sum(forward().data * probe)), params)
    for name, p in params.items():
        assert grad_rel_err(p.grad, numeric[name]) < 1e-8, name


def test_embed_rejects_mismatched_rows():
    table = t(np.zeros((4, 2)))
    with pytest.raises(dc.ShapeError):
        dc.embed(3, [(table, [0, 1], None, None)])
    with pytest.raises(dc.ShapeError):
        dc.embed(3, [(table, [0, 1, 2], None, None), (table, [1], [0, 1], None)])


def _offsets(lengths):
    return np.concatenate([[0], np.cumsum(lengths)])


def test_lstm_gradients_match_finite_differences(fd_grads, grad_rel_err):
    # mixed lengths in unsorted order, with a length-1 sequence and a tie
    rng = np.random.default_rng(12)
    d, hid = 3, 2
    lengths = (3, 1, 5, 2, 5)
    params = {"x": t(rng.normal(size=(sum(lengths), d))),
              "w_input": t(rng.normal(size=(4 * hid, d))),
              "w_hidden": t(rng.normal(size=(4 * hid, hid))),
              "bias": t(rng.normal(size=4 * hid))}
    probe = rng.normal(size=(len(lengths), hid))

    def forward():
        out = dc.lstm(params["x"], _offsets(lengths), params["w_input"],
                      params["w_hidden"], params["bias"])
        return dc.sum_all(dc.mul(out, dc.Tensor(probe)))

    forward().backward()
    numeric = fd_grads(lambda: forward().item(), params)
    for name, p in params.items():
        assert grad_rel_err(p.grad, numeric[name]) < 1e-6, name


def test_lstm_rejects_mismatched_shapes():
    w_input, w_hidden, bias = t(np.zeros((8, 3))), t(np.zeros((8, 2))), t(np.zeros(8))
    x = t(np.zeros((4, 3)))
    for offsets in ([0], [0, 0, 4], [0, 3], [1, 4], [0, 5]):
        with pytest.raises(dc.ShapeError):
            dc.lstm(x, offsets, w_input, w_hidden, bias)
    with pytest.raises(dc.ShapeError):
        dc.lstm(t(np.zeros((2, 4))), [0, 2], w_input, w_hidden, bias)
    with pytest.raises(dc.ShapeError):
        dc.lstm(t(np.zeros((2, 3))), [0, 2], w_input, t(np.zeros((8, 3))), bias)


def test_deep_chain_backward_no_recursion_limit():
    x = t(np.ones(4) * 0.01)
    y = x
    for _ in range(3000):
        y = dc.add(y, x)
    out = dc.sum_all(y)
    out.backward()
    assert np.allclose(x.grad, 3001.0)


def test_forward_determinism():
    a = _random_composite(11)
    b = _random_composite(11)
    assert a[1]().item() == b[1]().item()


def test_no_grad_blocks_graph_construction():
    x = t([1.0, 2.0])
    with dc.no_grad():
        out = dc.sum_all(dc.mul(x, x))
    assert out._backward is None and out._parents == ()


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_keeps_params():
    p = {"w": t([1.0, -2.0])}
    state = dc.AdamState(lr=0.1)
    dc.adam_step(p, {"w": np.zeros(2)}, state)
    assert np.array_equal(p["w"].data, [1.0, -2.0])
    assert state.step == 1


def test_adam_first_step_is_minus_lr():
    # from zero state with g=1 the bias-corrected step is exactly
    # -lr * 1 / (1 + eps)
    p = {"w": t([0.0])}
    state = dc.AdamState(lr=0.001)
    dc.adam_step(p, {"w": np.array([1.0])}, state)
    assert abs(p["w"].data[0] - (-0.001)) < 1e-9


def test_adam_constant_gradient_step_bounded_by_lr():
    p = {"w": t([0.0])}
    state = dc.AdamState(lr=0.01)
    last = p["w"].data.copy()
    steps = []
    for _ in range(500):
        dc.adam_step(p, {"w": np.array([2.5])}, state)
        steps.append(float(p["w"].data[0] - last[0]))
        last = p["w"].data.copy()
    assert all(s < 0 for s in steps)  # sign-consistent
    assert all(abs(s) <= 0.01 / (1 - 1e-8) + 1e-12 for s in steps)
    assert abs(steps[-1]) > 0.009  # approaches lr in magnitude


def test_adam_rejects_non_finite_gradient():
    p = {"w": t([0.0])}
    with pytest.raises(FloatingPointError):
        dc.adam_step(p, {"w": np.array([np.nan])}, dc.AdamState())


def test_clip_gradients_global_norm():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}
    norm = dc.clip_gradients(grads, 1.0)
    assert abs(norm - 5.0) < 1e-12
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    assert abs(total - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path):
    path = tmp_path / "ckpt.npz"
    arrays = {"layer.weight": np.arange(6.0).reshape(2, 3), "bias": np.array(1.5)}
    meta = {"kind": "demo", "dim": 3}
    dc.save_checkpoint(path, arrays, meta)
    loaded, meta2 = dc.load_checkpoint(path)
    assert meta2 == meta
    assert set(loaded) == set(arrays)
    for k in arrays:
        assert np.array_equal(loaded[k], arrays[k])


def test_checkpoint_rejects_reserved_names(tmp_path):
    with pytest.raises(ValueError):
        dc.save_checkpoint(tmp_path / "x.npz", {"__meta__": np.zeros(1)})
