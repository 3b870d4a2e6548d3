import numpy as np
import pytest

from mrm import diffcore as dc

from .conftest import lstm_backward_oracle, lstm_steps_oracle, sigmoid_oracle


def t(data, grad=True):
    return dc.Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# forward semantics


def test_logistic_of_ones():
    out = dc.logistic(t(np.ones((2, 3))), t(np.ones(3)), t(0.0))
    assert out.shape == (2,)
    assert np.all(out.data == sigmoid_oracle(3.0))


def test_logistic_shape_error_reports_the_shapes():
    with pytest.raises(dc.ShapeError) as exc:
        dc.logistic(t(np.ones((2, 3))), t(np.ones((2, 3))), t(0.0))
    assert "(2, 3)" in str(exc.value)
    for x, w, b in ((np.ones(3), np.ones(3), 0.0), (np.ones((2, 3)), np.ones(2), 0.0),
                    (np.ones((2, 3)), np.ones(3), [0.0])):
        with pytest.raises(dc.ShapeError):
            dc.logistic(t(x), t(w), t(b))


def test_add_l2_needs_a_scalar_loss():
    with pytest.raises(dc.ShapeError) as exc:
        dc.add_l2(t(np.ones(3)), t(np.ones(3)), 0.5)
    assert "(3,)" in str(exc.value)


def test_sigmoid_at_zero():
    assert dc._sigmoid(np.zeros(2)).tolist() == [0.5, 0.5]
    assert dc.logistic(t(np.ones((1, 2))), t([1.0, -1.0]), t(0.0)).data[0] == 0.5


def test_sigmoid_extreme_inputs_stable():
    x = t([[-800.0], [800.0]])
    w, b = t([1.0]), t(0.0)
    out = dc.logistic(x, w, b)
    assert out.data[0] == 0.0 and out.data[1] == 1.0
    dc.sum_all(out).backward()
    for p in (x, w, b):
        assert np.all(p.grad == 0.0)


def test_sigmoid_into_writes_the_bytes_of_sigmoid():
    tiny = 1e-310  # subnormal
    x = np.array([0.0, -0.0, tiny, -tiny, 745.0, -745.0, np.inf, -np.inf, np.nan,
                  1.0, -1.0, 36.7, -36.7, 1e-300, -1e-300])
    x = np.concatenate([x, np.random.default_rng(0).normal(scale=20.0, size=64)])
    want = sigmoid_oracle(x).tobytes()
    assert dc._sigmoid(x).tobytes() == want
    out = np.full_like(x, 7.0)
    assert dc._sigmoid(x, out=out) is out
    assert out.tobytes() == want
    strided = np.full((x.size, 3), 7.0)  # into a column, as into a gate block
    dc._sigmoid(x[:, None], out=strided[:, 1:2])
    assert strided[:, 1].tobytes() == want


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
        pooled.backward(probe)
        for k, (s, e) in enumerate(zip(starts, ends)):
            ref = dc.maxpool_rows(dc.slice_rows(x_old, s, e))
            assert np.array_equal(pooled.data[k], ref.data)
            ref.backward(probe[k])  # x_old is a leaf: its gradient accumulates
            tied += np.any((data[s:e] == ref.data).sum(axis=0) > 1)
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
    # the loss clamps p to [0.25, 0.75]: -ln 0.25, -ln 0.5 and -ln 0.25
    p = t([0.1, 0.5, 0.9])
    out = dc.cross_entropy(p, [1, 0, 0], 0.25)
    assert abs(out.item() - (2 * np.log(4.0) + np.log(2.0)) / 3) < 1e-15
    out.backward()
    assert p.grad[0] == 0.0 and p.grad[2] == 0.0
    assert abs(p.grad[1] - 2.0 / 3) < 1e-15


# ---------------------------------------------------------------------------
# backward correctness


def test_diamond_graph_accumulates():
    # f = sum(x) + sum(x*x): shared x feeds two branches, df/dx = 2x + 1
    x = t([1.0, -2.0, 3.0])
    out = dc.add_l2(dc.sum_all(x), x, 1.0)
    out.backward()
    assert np.allclose(x.grad, 2.0 * x.data + 1.0, atol=1e-15)


def _random_composite(seed):
    """A small randomly-shaped pipeline through every reduction,
    embedding, pooling, head and loss op."""
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
    # CSR pointers of 6 entries over 4 rows: entry k goes to rows[k]
    rows = np.sort(rng.integers(0, 4, size=6))
    ptr = np.searchsorted(rows, np.arange(5))
    factors = rng.normal(size=6)
    labels = rng.integers(0, 2, size=4)

    def forward():
        A, w, c, T, U = (params[k] for k in "AwcTU")
        m = dc.logistic(A, w, c)                      # (m,k)@(k,), scalar bias
        e = dc.embed(4, [(T, idx, None, None), (U, ids, ptr, factors)])  # 4x3
        pooled = dc.maxpool_rows(dc.slice_rows(e, 1, 3))  # 3-vector
        grouped = dc.group_maxpool(e, [0, 2])        # 2x3
        # c feeds all three heads: its gradient is the sum of the three
        total = dc.cross_entropy(dc.logistic(e, m, c), labels, 1e-7)
        total = dc.add_l2(total, grouped, 0.5)       # the L2 term of a non-leaf
        pair = dc.cross_entropy(dc.logistic(grouped, pooled, c), labels[:2], 1e-7)
        total = dc.add_l2(total, pair, 0.7)          # a second loss, squared
        # a scalar probability, as model.forward sums its single one
        one = dc.sum_all(dc.logistic(dc.slice_rows(e, 3, 4), m, c))
        return dc.add_l2(total, dc.cross_entropy(one, labels[0], 1e-7), 1.0)

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
        row_scores = dc.logistic(params["M"], params["v"], params["b"])
        return dc.sum_all(dc.logistic(params["X"], row_scores, params["b"]))

    loss = forward()
    loss.backward()
    numeric = fd_grads(lambda: forward().item(), params)
    for name, t in params.items():
        assert grad_rel_err(t.grad, numeric[name]) < 1e-4, name


def test_maxpool_gradient_matches_finite_differences(fd_grads, grad_rel_err):
    rng = np.random.default_rng(3)
    x = dc.Tensor(rng.normal(size=(4, 5)), requires_grad=True)

    def forward():
        # sum of the pooled row plus sum of its squares: x reached twice
        return dc.add_l2(dc.sum_all(dc.maxpool_rows(x)), dc.maxpool_rows(x), 1.0)

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
    cat_ptr, num_ptr = [0, 1, 1, 3, 4, 4, 5], [0, 0, 2, 2, 2, 3, 3]
    probe = rng.normal(size=(n, d))

    def forward():
        return dc.embed(n, [(params["codes"], codes, None, None),
                            (params["cat"], cat_ids, cat_ptr, None),
                            (params["num"], num_ids, num_ptr, num_w)])

    want = params["codes"].data[codes].copy()
    for f, r in zip(cat_ids, cat_rows):
        want[r] += params["cat"].data[f]
    for f, r, w in zip(num_ids, num_rows, num_w):
        want[r] += w * params["num"].data[f]
    out = forward()
    assert np.max(np.abs(out.data - want)) < 1e-14
    out.backward(probe)
    numeric = fd_grads(lambda: float(np.sum(forward().data * probe)), params)
    for name, p in params.items():
        assert grad_rel_err(p.grad, numeric[name]) < 1e-8, name


def test_embed_rejects_mismatched_rows():
    table = t(np.zeros((4, 2)))
    with pytest.raises(dc.ShapeError):
        dc.embed(3, [(table, [0, 1], None, None)])
    with pytest.raises(dc.ShapeError):
        dc.embed(3, [(table, [0, 1, 2], None, None), (table, [1], [0, 1, 1, 2], None)])


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
        return dc.lstm(params["x"], _offsets(lengths), params["w_input"],
                       params["w_hidden"], params["bias"])

    forward().backward(probe)
    numeric = fd_grads(lambda: float(np.sum(forward().data * probe)), params)
    for name, p in params.items():
        assert grad_rel_err(p.grad, numeric[name]) < 1e-6, name


def _lstm_bytes(x, offsets, w_input, w_hidden, bias, probe):
    ts = [t(a) for a in (x, w_input, w_hidden, bias)]
    out = dc.lstm(ts[0], offsets, *ts[1:])
    out.backward(probe)
    return [a.tobytes() for a in (out.data, *(p.grad for p in ts))]


@pytest.mark.parametrize("scale", [0.1, 1.0, 40.0])  # 40: saturated gates
def test_lstm_steps_in_place_give_the_bits_of_new_arrays(monkeypatch, scale):
    rng = np.random.default_rng(int(scale * 10))
    d, hid = 5, 6
    for lengths in ([1], [7], [3, 1, 6, 2, 6, 4], [1, 30, 12] * 4):
        arrays = (rng.normal(scale=scale, size=(sum(lengths), d)), _offsets(lengths),
                  rng.normal(size=(4 * hid, d)), rng.normal(size=(4 * hid, hid)),
                  rng.normal(size=4 * hid), rng.normal(size=(len(lengths), hid)))
        got = _lstm_bytes(*arrays)
        with monkeypatch.context() as patch:
            patch.setattr(dc, "_lstm_steps", lstm_steps_oracle)
            assert _lstm_bytes(*arrays) == got


@pytest.mark.parametrize("scale", [0.1, 1.0, 40.0])  # 40: saturated gates
def test_lstm_backward_gives_the_bits_of_the_oracle(scale):
    rng = np.random.default_rng(int(scale * 10) + 1)
    d, hid = 5, 6
    for lengths in ([1], [7], [3, 1, 6, 2, 6, 4], [1, 30, 12] * 4):
        arrays = (rng.normal(scale=scale, size=(sum(lengths), d)), _offsets(lengths),
                  rng.normal(size=(4 * hid, d)), rng.normal(size=(4 * hid, hid)),
                  rng.normal(size=4 * hid), rng.normal(size=(len(lengths), hid)))
        want = [a.tobytes() for a in lstm_backward_oracle(*arrays)]
        assert _lstm_bytes(*arrays)[1:] == want


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
    # f = sum(x) + 3000 * 0.5 * sum(x*x): df/dx = 1 + 3000 x
    x = t(np.ones(4) * 0.01)
    out = dc.sum_all(x)
    for _ in range(3000):
        out = dc.add_l2(out, x, 0.5)
    out.backward()
    assert np.allclose(x.grad, 31.0)


def test_forward_determinism():
    a = _random_composite(11)
    b = _random_composite(11)
    assert a[1]().item() == b[1]().item()


def test_no_grad_blocks_graph_construction():
    x = t([1.0, 2.0])
    with dc.no_grad():
        out = dc.add_l2(dc.sum_all(x), x, 1.0)
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
