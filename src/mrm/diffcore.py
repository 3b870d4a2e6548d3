"""Dense float64 tensors with reverse-mode differentiation and Adam.

Deliberately small: only the operations the model and its baselines
call, each with an explicit backward rule; attention, pooling and the
LSTM are one fused op each. Graphs are built eagerly during the forward
pass; a Tensor doubles as its graph node and is freed when the
output goes out of scope. Everything is double precision so gradient
checks against central finite differences are reliable.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

CHECKPOINT_FORMAT_VERSION = 1


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph construction inside the block (pure evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """Dense float64 array plus the bookkeeping backward() needs.

    A Tensor is also a graph node: ``op`` tags the operation that produced
    it, ``_parents`` are its inputs and ``_backward`` pushes the output
    gradient into them. Leaves created with requires_grad=True accumulate
    gradients in ``.grad``; intermediate nodes hold transient gradients
    during a backward pass.
    """

    __slots__ = ("data", "grad", "requires_grad", "needs_grad", "op",
                 "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self.needs_grad = requires_grad
        self.op = "leaf"
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(op={self.op}, shape={self.data.shape})"

    def backward(self, seed=None):
        """Reverse-mode sweep from this node.

        Without a seed the node must be scalar. Visits every reachable
        node exactly once in reverse topological order; gradients
        accumulate (+=) so shared subgraphs receive summed contributions.
        """
        if seed is None:
            if self.data.shape != ():
                raise ShapeError(
                    f"backward() without seed needs a scalar, got shape {self.data.shape}")
            seed = 1.0
        # Iterative DFS: a long chain of nodes can exceed the recursion
        # limit.
        topo = []
        visited = {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            node, parents = stack[-1]
            pushed = False
            for p in parents:
                if id(p) not in visited:
                    visited.add(id(p))
                    stack.append((p, iter(p._parents)))
                    pushed = True
                    break
            if not pushed:
                topo.append(node)
                stack.pop()
        self.grad = np.asarray(seed, dtype=np.float64)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _accum(t: Tensor, g: np.ndarray):
    if t.needs_grad:
        if t.grad is None:
            t.grad = np.array(g, dtype=np.float64)  # copy: g may be shared
        else:
            t.grad += g


def _node(value, op: str, parents, backward) -> Tensor:
    out = Tensor(value)
    if _grad_enabled and any(p.needs_grad for p in parents):
        out.needs_grad = True
        out.op = op
        out._parents = tuple(parents)
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# elementwise and linear-algebra operations


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape == b.shape:
        def bwd(g):
            _accum(a, g)
            _accum(b, g)
    elif a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        # matrix plus row bias, the only broadcast supported
        def bwd(g):
            _accum(a, g)
            _accum(b, g.sum(axis=0))
    elif b.data.ndim == 0:
        def bwd(g):
            _accum(a, g)
            _accum(b, np.sum(g))
    else:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    return _node(a.data + b.data, "add", (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    def bwd(g):
        _accum(a, -g)
    return _node(-a.data, "neg", (a,), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")

    def bwd(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)
    return _node(a.data * b.data, "mul", (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def bwd(g):
        _accum(a, g * s)
    return _node(a.data * s, "scale", (a,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix/vector product for the four shape combinations in use.

    (m,k)@(k,n)->(m,n); (m,k)@(k,)->(m,); (k,)@(k,n)->(n,); (k,)@(k,)->().
    """
    ad, bd = a.data, b.data
    if ad.ndim == 2 and bd.ndim == 2 and ad.shape[1] == bd.shape[0]:
        def bwd(g):
            _accum(a, g @ bd.T)
            _accum(b, ad.T @ g)
    elif ad.ndim == 2 and bd.ndim == 1 and ad.shape[1] == bd.shape[0]:
        def bwd(g):
            _accum(a, np.outer(g, bd))
            _accum(b, ad.T @ g)
    elif ad.ndim == 1 and bd.ndim == 2 and ad.shape[0] == bd.shape[0]:
        def bwd(g):
            _accum(a, bd @ g)
            _accum(b, np.outer(ad, g))
    elif ad.ndim == 1 and bd.ndim == 1 and ad.shape == bd.shape:
        def bwd(g):
            _accum(a, g * bd)
            _accum(b, g * ad)
    else:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    return _node(ad @ bd, "matmul", (a, b), bwd)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.data)

    def bwd(g):
        _accum(a, g * out * (1.0 - out))
    return _node(out, "sigmoid", (a,), bwd)


def log(a: Tensor) -> Tensor:
    def bwd(g):
        _accum(a, g / a.data)
    return _node(np.log(a.data), "log", (a,), bwd)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes through the unclipped region only."""
    keep = (a.data >= lo) & (a.data <= hi)

    def bwd(g):
        _accum(a, np.where(keep, g, 0.0))
    return _node(np.clip(a.data, lo, hi), "clip", (a,), bwd)


def sum_all(a: Tensor) -> Tensor:
    def bwd(g):
        _accum(a, np.full(a.shape, float(g)))
    return _node(a.data.sum(), "sum_all", (a,), bwd)


# ---------------------------------------------------------------------------
# indexing / pooling


def gather_rows(table: Tensor, idx) -> Tensor:
    idx = np.asarray(idx, dtype=np.intp)

    def bwd(g):
        if table.needs_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, idx, g)
            _accum(table, gt)
    return _node(table.data[idx], "gather_rows", (table,), bwd)


def segment_sum(x: Tensor, segment_ids, n_segments: int) -> Tensor:
    """Sum rows of x into n_segments buckets given per-row bucket ids."""
    seg = np.asarray(segment_ids, dtype=np.intp)
    if seg.shape[0] != x.shape[0]:
        raise ShapeError(f"segment_sum: {seg.shape[0]} ids for {x.shape[0]} rows")
    out = np.zeros((n_segments,) + x.shape[1:])
    np.add.at(out, seg, x.data)

    def bwd(g):
        _accum(x, g[seg])
    return _node(out, "segment_sum", (x,), bwd)


def scale_rows(x: Tensor, row_factors) -> Tensor:
    """Multiply each row of x by a constant (non-differentiated) factor."""
    f = np.asarray(row_factors, dtype=np.float64)
    if f.shape != (x.shape[0],):
        raise ShapeError(f"scale_rows: {f.shape} factors for {x.shape} rows")

    def bwd(g):
        _accum(x, g * f[:, None])
    return _node(x.data * f[:, None], "scale_rows", (x,), bwd)


def slice_rows(x: Tensor, start: int, end: int) -> Tensor:
    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[start:end] = g
        _accum(x, gx)
    return _node(x.data[start:end].copy(), "slice_rows", (x,), bwd)


def maxpool_rows(x: Tensor) -> Tensor:
    """Coordinatewise max over the rows of a non-empty matrix.

    Backward routes each coordinate's gradient to the argmax row; ties go
    to the lowest row index.
    """
    if x.data.ndim != 2 or x.shape[0] == 0:
        raise ShapeError(f"maxpool_rows: need a non-empty matrix, got shape {x.shape}")
    arg = np.argmax(x.data, axis=0)  # first occurrence = lowest index
    cols = np.arange(x.shape[1])

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[arg, cols] = g
        _accum(x, gx)
    return _node(x.data[arg, cols], "maxpool_rows", (x,), bwd)


def group_maxpool(x: Tensor, starts) -> Tensor:
    """Coordinatewise max over each group of consecutive rows of x.

    Group k holds the rows [starts[k], starts[k + 1]), the last group runs
    to the end; starts must begin at 0 and increase strictly. Returns the
    (groups, d) maxima in one node. Backward routes each coordinate's
    gradient to its group's argmax row, the lowest row index on a tie, as
    maxpool_rows does. When every group is a single row, x itself is
    returned.
    """
    starts = np.asarray(starts, dtype=np.intp)
    if x.data.ndim != 2:
        raise ShapeError(f"group_maxpool: need a matrix, got shape {x.shape}")
    n = x.shape[0]
    if (starts.ndim != 1 or starts.size == 0 or starts[0] != 0
            or starts[-1] >= n or np.any(np.diff(starts) <= 0)):
        raise ShapeError(f"group_maxpool: {starts.size} group starts do not "
                         f"split the {n} rows of x in order")
    if starts.size == n:
        return x
    out = np.maximum.reduceat(x.data, starts, axis=0)

    def bwd(g):
        at_max = x.data == np.repeat(out, np.diff(starts, append=n), axis=0)
        rows = np.where(at_max, np.arange(n)[:, None], n)
        arg = np.minimum.reduceat(rows, starts, axis=0)
        gx = np.zeros_like(x.data)
        gx[arg, np.arange(x.shape[1])] = g
        _accum(x, gx)
    return _node(out, "group_maxpool", (x,), bwd)


def _band(lo, hi):
    """Padded (n, W) index block of the rows [lo[i], hi[i]) plus its
    validity mask, W = max(hi - lo). Padding slots repeat lo[i]."""
    width = int(np.max(hi - lo))
    idx = lo[:, None] + np.arange(width)
    valid = idx < hi[:, None]
    return np.where(valid, idx, lo[:, None]), valid


def windowed_attention(x: Tensor, w_qkv: Tensor, n_heads: int, lo, hi, topk: int):
    """Multi-head attention of every row of x over a contiguous window of rows.

    Row i attends to the rows [lo[i], hi[i]); lo and hi must be
    non-decreasing with lo[i] <= i < hi[i]. w_qkv is the (3 * n_heads *
    head_dim, d) stack of every head's query weight, then every key
    weight, then every value weight, so one matmul projects x to
    [Q | K | V]. Per query and head only the topk largest dot-product
    scores survive (ties go to the lowest row index), the softmax runs
    over those and the value rows are summed with its weights; head
    outputs are concatenated in head order.

    Returns (out, weights): out is the (n, heads * head_dim) tensor and
    weights[i, h, w] the softmax weight of row lo[i] + w (exactly 0 when
    not kept or past hi[i]). Time and memory are O(n * W * d) with
    W = max(hi - lo). The backward rule treats the top-k selection as
    constant. Its scatter-add of window gradients back onto rows is done as
    a gather over the transposed band: the queries whose window holds row
    j are the contiguous range [a_j, b_j), because lo and hi are sorted.
    """
    if (w_qkv.data.ndim != 2 or w_qkv.shape[1] != x.shape[1]
            or w_qkv.shape[0] % (3 * n_heads)):
        raise ShapeError(f"windowed_attention: x {x.shape} does not match the "
                         f"stacked weight {w_qkv.shape} of {n_heads} heads")
    head_dim = w_qkv.shape[0] // (3 * n_heads)
    n = x.shape[0]
    ha = n_heads * head_dim
    proj = x.data @ w_qkv.data.T  # [Q | K | V]
    q = proj[:, :ha].reshape(n, n_heads, head_dim)
    idx, valid = _band(lo, hi)
    width = idx.shape[1]
    kg = proj[idx, ha:2 * ha].reshape(n, width, n_heads, head_dim)
    vg = proj[idx, 2 * ha:].reshape(n, width, n_heads, head_dim)
    scores = np.einsum("iha,iwha->ihw", q, kg)
    keep = np.broadcast_to(valid[:, None, :], scores.shape)
    if width > topk:
        # stable sort by (-score, slot): the lowest index wins a tie
        order = np.argsort(np.where(keep, -scores, np.inf), axis=-1, kind="stable")
        top = np.zeros(scores.shape, dtype=bool)
        np.put_along_axis(top, order[..., :topk], True, axis=-1)
        keep = top & keep
    s = np.where(keep, scores, -np.inf)
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    out = np.einsum("ihw,iwha->iha", p, vg).reshape(n, ha)

    def bwd(g):
        g3 = g.reshape(n, n_heads, head_dim)
        dp = np.einsum("iha,iwha->ihw", g3, vg)
        ds = p * (dp - (p * dp).sum(axis=-1, keepdims=True))
        dq = np.einsum("ihw,iwha->iha", ds, kg).reshape(n, ha)
        rows = np.arange(n)
        tidx, tvalid = _band(np.searchsorted(hi, rows, side="right"),
                             np.searchsorted(lo, rows, side="right"))
        slot = np.where(tvalid, rows[:, None] - lo[tidx], 0)
        twidth = tidx.shape[1]
        ds_t = np.where(tvalid[..., None], ds[tidx, :, slot], 0.0)
        p_t = np.where(tvalid[..., None], p[tidx, :, slot], 0.0)
        qg = proj[tidx, :ha].reshape(n, twidth, n_heads, head_dim)
        gg = g[tidx].reshape(n, twidth, n_heads, head_dim)
        dk = np.einsum("juh,juha->jha", ds_t, qg).reshape(n, ha)
        dv = np.einsum("juh,juha->jha", p_t, gg).reshape(n, ha)
        dproj = np.concatenate([dq, dk, dv], axis=1)
        _accum(x, dproj @ w_qkv.data)
        _accum(w_qkv, dproj.T @ x.data)

    return _node(out, "windowed_attention", (x, w_qkv), bwd), p


# ---------------------------------------------------------------------------
# recurrence


def lstm(xs, w_input: Tensor, w_hidden: Tensor, bias: Tensor) -> Tensor:
    """An LSTM over a batch of sequences -> their (B, H) last hidden states.

    xs is a list of B tensors of shape (T_b, d), T_b >= 1, each run from a
    zero hidden and cell state; result rows follow the order of xs. The
    gate pre-activations of a step are w_input @ x_t + w_hidden @ h + bias
    with w_input (4H, d), w_hidden (4H, H), bias (4H,) and gate order
    i, f, g, o.

    The sequences are packed longest first into a zero-padded time-major
    (T, B, d) block, so the rows still running at step t are a prefix of
    n_t rows. The input projection of every step is one matmul; each step
    then adds one (n_t, H) @ (H, 4H) product. Backward is backprop through
    time over the same prefixes. Padded rows get zero gradient, so each
    weight gradient is one matmul over the T * B flattened rows.
    """
    xs = list(xs)
    four_h, d = w_input.shape
    hid = four_h // 4
    if (not xs or four_h != 4 * hid or w_hidden.shape != (four_h, hid)
            or bias.shape != (four_h,)
            or any(x.data.ndim != 2 or x.shape[0] == 0 or x.shape[1] != d
                   for x in xs)):
        raise ShapeError(f"lstm: inputs {[x.shape for x in xs]} do not match the "
                         f"weights {w_input.shape}, {w_hidden.shape}, {bias.shape}")
    batch = len(xs)
    order = np.argsort([-x.shape[0] for x in xs], kind="stable")
    lengths = np.array([xs[b].shape[0] for b in order])
    steps = int(lengths[0])
    running = (lengths[None, :] > np.arange(steps)[:, None]).sum(axis=1)
    packed = np.zeros((steps, batch, d))
    for j, b in enumerate(order):
        packed[:lengths[j], j] = xs[b].data
    pre_in = (packed.reshape(-1, d) @ w_input.data.T + bias.data).reshape(
        steps, batch, four_h)
    hs = np.zeros((steps + 1, batch, hid))  # hs[t]: the hidden state before step t
    cs = np.zeros((steps + 1, batch, hid))
    gates = np.zeros((steps, batch, four_h))  # activated i, f, g, o
    tanh_c = np.zeros((steps, batch, hid))
    w_hidden_t = w_hidden.data.T
    for t in range(steps):
        n = running[t]
        z = pre_in[t, :n] + hs[t, :n] @ w_hidden_t
        a = _sigmoid(z)
        a[:, 2 * hid:3 * hid] = np.tanh(z[:, 2 * hid:3 * hid])
        c = a[:, hid:2 * hid] * cs[t, :n] + a[:, :hid] * a[:, 2 * hid:3 * hid]
        tc = np.tanh(c)
        gates[t, :n] = a
        cs[t + 1, :n] = c
        tanh_c[t, :n] = tc
        hs[t + 1, :n] = a[:, 3 * hid:] * tc
    out = np.empty((batch, hid))
    out[order] = hs[lengths, np.arange(batch)]

    def bwd(g):
        # a row's output gradient waits in dh until its last step is reached
        dh = g[order]
        dc = np.zeros((batch, hid))
        dpre = np.zeros((steps, batch, four_h))
        deriv = gates * (1.0 - gates)
        g_gate = gates[..., 2 * hid:3 * hid]
        deriv[..., 2 * hid:3 * hid] = 1.0 - g_gate * g_gate
        for t in range(steps - 1, -1, -1):
            n = running[t]
            a = gates[t, :n]
            tc = tanh_c[t, :n]
            dh_t = dh[:n]
            dc_t = dc[:n] + dh_t * a[:, 3 * hid:] * (1.0 - tc * tc)
            da = np.concatenate([dc_t * a[:, 2 * hid:3 * hid], dc_t * cs[t, :n],
                                 dc_t * a[:, :hid], dh_t * tc], axis=1)
            dz = da * deriv[t, :n]
            dpre[t, :n] = dz
            dh[:n] = dz @ w_hidden.data
            dc[:n] = dc_t * a[:, hid:2 * hid]
        flat = dpre.reshape(-1, four_h)
        _accum(w_input, flat.T @ packed.reshape(-1, d))
        _accum(w_hidden, flat.T @ hs[:steps].reshape(-1, hid))
        _accum(bias, flat.sum(axis=0))
        if any(x.needs_grad for x in xs):
            dx = (flat @ w_input.data).reshape(steps, batch, d)
            for j, b in enumerate(order):
                _accum(xs[b], dx[:lengths[j], j])

    return _node(out, "lstm", (*xs, w_input, w_hidden, bias), bwd)


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """Adam moment accumulators and hyperparameters for a named parameter set."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState):
    """One bias-corrected Adam update, in place on the parameter tensors.

    Raises FloatingPointError on any non-finite gradient so the caller can
    treat it as divergence (clipping is the caller's job).
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter '{name}'")
    state.step += 1
    c1 = 1.0 - state.beta1 ** state.step
    c2 = 1.0 - state.beta2 ** state.step
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        p.data = p.data - state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    return params, state


def clip_gradients(grads: dict, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for name in grads:
            grads[name] = grads[name] * factor
    return norm


# ---------------------------------------------------------------------------
# parameter checkpoints


def save_checkpoint(path, arrays: dict, meta: dict | None = None):
    """Write a flat name->array archive with a format-version header.

    Arrays are stored row-major in double precision; ``meta`` is an
    arbitrary JSON-serializable mapping kept alongside them.
    """
    payload = {
        "__format_version__": np.array([CHECKPOINT_FORMAT_VERSION], dtype=np.int64),
        "__meta__": np.array(json.dumps(meta or {}, sort_keys=True)),
    }
    for name, arr in arrays.items():
        if name.startswith("__"):
            raise ValueError(f"parameter name '{name}' clashes with reserved keys")
        arr = np.asarray(arr, dtype=np.float64)
        payload[name] = arr if arr.flags["C_CONTIGUOUS"] else np.ascontiguousarray(arr)
    np.savez(path, **payload)


def load_checkpoint(path):
    """Read a checkpoint back as (arrays, meta)."""
    with np.load(path) as f:
        if "__format_version__" not in f.files or "__meta__" not in f.files:
            raise ValueError(f"{path}: not a checkpoint (no format-version "
                             f"header or metadata block)")
        version = int(f["__format_version__"][0])
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format version {version}")
        meta = json.loads(str(f["__meta__"]))
        if not isinstance(meta, dict):
            raise ValueError(f"{path}: checkpoint metadata is a JSON "
                             f"{type(meta).__name__}, not an object")
        arrays = {k: f[k] for k in f.files if not k.startswith("__")}
    return arrays, meta
