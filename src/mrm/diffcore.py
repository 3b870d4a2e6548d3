"""Dense float64 tensors with reverse-mode differentiation and Adam.

Deliberately small: only the operations the model and its baselines
call, each with an explicit backward rule; event encoding, attention,
pooling and the LSTM are one fused op each. Graphs are built eagerly
during the forward pass; a Tensor doubles as its graph node and is freed
when the output goes out of scope. Everything is double precision so gradient
checks against central finite differences are reliable.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor, wait
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
# row-parallel kernels

# Workers for row-separable forward kernels: the calling thread plus pool
# threads, one per CPU this process may run on, at most two (the only count
# measured). The pool exists from import on, so no module attribute changes
# later, and it starts its thread on the first split only.
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
_MIN_BLOCK_ROWS = 512  # smaller blocks lose more to the hand-off than they gain
_BAND_ROWS = 256  # query rows whose window keys attention gathers at once


def _new_pool():
    global _POOL
    _POOL = ThreadPoolExecutor(max_workers=1, thread_name_prefix="mrm-rows")


_new_pool()
if hasattr(os, "register_at_fork"):
    # a forked child has no pool thread, but a copied pool would wait for one
    os.register_at_fork(after_in_child=_new_pool)


def _row_blocks(fn, n: int):
    """Call fn(r0, r1) on blocks that tile the rows [0, n) in order: one
    block per worker when each gets at least _MIN_BLOCK_ROWS rows, else
    one block, [0, n), on the calling thread. The calling thread runs the
    first block and the pool the others. fn must write only its own rows
    of arrays made beforehand and do numpy work only: no Tensor, no
    no_grad state, no public function of this package."""
    blocks = min(_WORKERS, n // _MIN_BLOCK_ROWS)
    if blocks <= 1:
        fn(0, n)
        return
    cuts = [n * b // blocks for b in range(blocks + 1)]
    futures = [_POOL.submit(fn, r0, r1) for r0, r1 in zip(cuts[1:-1], cuts[2:])]
    try:
        fn(cuts[0], cuts[1])
    finally:
        wait(futures)  # no block may still write once this returns
    for future in futures:
        future.result()


# ---------------------------------------------------------------------------
# elementwise and linear-algebra operations


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b for equal shapes, or any a plus a scalar b."""
    if a.shape == b.shape:
        def bwd(g):
            _accum(a, g)
            _accum(b, g)
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
    """Matrix-vector product (m,k)@(k,)->(m,), the only shape in use."""
    ad, bd = a.data, b.data
    if not (ad.ndim == 2 and bd.ndim == 1 and ad.shape[1] == bd.shape[0]):
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")

    def bwd(g):
        _accum(a, np.outer(g, bd))
        _accum(b, ad.T @ g)
    return _node(ad @ bd, "matmul", (a, b), bwd)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    z = np.exp(-np.abs(x))
    d = 1.0 + z
    return np.where(x >= 0, 1.0 / d, z / d)


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


def embed(n_rows: int, lookups) -> Tensor:
    """Sums of weighted table rows, as one (n_rows, d) node.

    lookups is a sequence of (table, ids, rows, weights): entry k of a
    lookup adds weights[k] * table[ids[k]] to output row rows[k]. rows None
    means entry k goes to row k (then ids has n_rows entries), otherwise
    rows must be non-decreasing; weights None means 1. Each lookup is
    summed into its own block, a row's entries one after the other in
    entry order, and the blocks are added in order; the output rows are
    filled in row blocks (_row_blocks). Backward is one np.add.at per
    table.
    """
    terms = []
    for table, ids, rows, weights in lookups:
        ids = np.asarray(ids, dtype=np.intp)
        if ids.size == 0:
            continue
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)[:, None]
        ptr = None
        if rows is None:
            if ids.shape[0] != n_rows:
                raise ShapeError(f"embed: {ids.shape[0]} ids for {n_rows} rows")
        else:
            rows = np.asarray(rows, dtype=np.intp)
            if rows.shape != ids.shape:
                raise ShapeError(f"embed: {rows.shape[0]} rows for {ids.shape[0]} ids")
            if not (0 <= rows[0] and rows[-1] < n_rows and (rows[:-1] <= rows[1:]).all()):
                raise ShapeError(f"embed: rows must be non-decreasing in [0, {n_rows})")
            # the entries of row r are [ptr[r], ptr[r + 1])
            ptr = np.searchsorted(rows, np.arange(n_rows + 1))
        terms.append((table, ids, rows, weights, ptr))
    if not terms:
        raise ShapeError("embed: no lookup has any entries")
    out = np.empty((n_rows, terms[0][0].shape[1]))

    def fill(r0, r1):
        block = out[r0:r1]
        for j, (table, ids, _, weights, ptr) in enumerate(terms):
            a, b = (r0, r1) if ptr is None else (ptr[r0], ptr[r1])
            vals = table.data[ids[a:b]]
            if weights is not None:
                vals = vals * weights[a:b]
            if ptr is not None:
                vals = _sum_entries(vals, ptr[r0:r1 + 1] - a)
            if j:
                block += vals
            else:
                block[...] = vals

    _row_blocks(fill, n_rows)

    def bwd(g):
        for table, ids, rows, weights, _ in terms:
            if table.needs_grad:
                g_ids = g if rows is None else g[rows]
                if weights is not None:
                    g_ids = g_ids * weights
                gt = np.zeros_like(table.data)
                np.add.at(gt, ids, g_ids)
                _accum(table, gt)
    return _node(out, "embed", tuple(t for t, *_ in terms), bwd)


def _sum_entries(vals, ptr):
    """The (len(ptr) - 1, d) sums of the rows [ptr[r], ptr[r + 1]) of vals,
    each from zero in row order: slot j adds the j-th entry of every row
    that has one, so the sums equal np.add.at's."""
    counts = ptr[1:] - ptr[:-1]
    out = np.zeros((counts.size, vals.shape[1]))
    has, j = counts.nonzero()[0], 0
    while has.size:
        out[has] += vals[ptr[has] + j]
        j += 1
        has = (counts > j).nonzero()[0]
    return out


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


def windowed_attention(x: Tensor, w_qkv: Tensor, n_heads: int, lo, hi, topk: int):
    """Multi-head attention of every row of x over a contiguous window of rows.

    Row i attends to the rows [lo[i], hi[i]); lo and hi must be
    non-decreasing with lo[i] <= i < hi[i]. w_qkv is the (3 * n_heads *
    head_dim, d) stack of every head's query weight, then every key
    weight, then every value weight. Per query and head only the topk
    largest dot-product scores survive (ties go to the lowest row index),
    the softmax runs over those and the value rows are summed with its
    weights; head outputs are concatenated in head order.

    Selection first: the scores are computed on the padded (n, W) band of
    every window, W = max(hi - lo), and the k = min(topk, W) kept entries
    of each query and head are picked there. The softmax, the value
    gather, the output and the whole backward then run over those
    entries only, O(n * heads * k * head_dim). A window narrower than k
    is filled up with padding entries of weight exactly 0 whose row is
    lo[i].

    The queries, keys and values of all rows are projected first; the rest
    of the forward runs in row blocks (_row_blocks), each filling its own
    rows of the outputs, so the results do not depend on the number of
    blocks.

    Returns (out, (rows, weights)): out is the (n, heads * head_dim)
    tensor; rows[i, h] are the k rows that query i keeps in head h, in
    row order (padding last), and weights[i, h] their softmax weights,
    both (n, heads, k). The backward rule treats the selection as
    constant. It scatters the key and value gradients of the kept entries
    onto their rows with np.bincount.
    """
    if (w_qkv.data.ndim != 2 or w_qkv.shape[1] != x.shape[1]
            or w_qkv.shape[0] % (3 * n_heads)):
        raise ShapeError(f"windowed_attention: x {x.shape} does not match the "
                         f"stacked weight {w_qkv.shape} of {n_heads} heads")
    head_dim = w_qkv.shape[0] // (3 * n_heads)
    n = x.shape[0]
    ha = n_heads * head_dim
    q, keys, values = (x.data @ w_qkv.data[role * ha:(role + 1) * ha].T
                       for role in range(3))
    q = q.reshape(n, n_heads, head_dim)
    size = hi - lo
    width = int(np.max(size))
    k = min(topk, width)
    out = np.empty((n, n_heads, head_dim))
    rows = np.empty((n, n_heads, k), dtype=np.intp)
    p = np.empty((n, n_heads, k))
    v_kept = np.empty((n, n_heads, k, head_dim))

    def fill(r0, r1):
        m, q_b = r1 - r0, q[r0:r1]
        lo_b, size_b = lo[r0:r1, None, None], size[r0:r1]
        band = np.minimum(lo_b[:, 0] + np.arange(width), hi[r0:r1, None] - 1)
        scores = np.empty((m, n_heads, width))
        # the band's key rows are the largest array here: gathered for
        # _BAND_ROWS query rows at a time
        for c in range(0, m, _BAND_ROWS):
            chunk = slice(c, c + _BAND_ROWS)
            band_keys = keys[band[chunk]].reshape(-1, width, n_heads, head_dim)
            scores[chunk] = np.einsum("iha,iwha->ihw", q_b[chunk], band_keys)
        # a window of at most k rows keeps them all, then padding: slots 0..k-1
        slots = np.broadcast_to(np.arange(k), (m, n_heads, k)).copy()
        s = scores[..., :k].copy()
        wide = np.flatnonzero(size_b > k)
        if wide.size:
            # stable sort by (-score, slot): the lowest row wins a tie
            wide_scores = scores[wide]
            order = np.argsort(np.where(np.arange(width) < size_b[wide, None, None],
                                        -wide_scores, np.inf), axis=-1, kind="stable")
            wide_slots = np.sort(order[..., :k], axis=-1)
            slots[wide] = wide_slots
            s[wide] = np.take_along_axis(wide_scores, wide_slots, axis=-1)
        valid = slots < size_b[:, None, None]
        rows[r0:r1] = np.where(valid, lo_b + slots, lo_b)
        s[~valid] = -np.inf
        e = np.exp(s - _over_kept(np.maximum, s)[..., None])
        np.divide(e, _over_kept(np.add, e)[..., None], out=p[r0:r1])
        # head h of row r is row r * heads + h of the (n, heads * head_dim)
        # keys and values seen as (n * heads, head_dim) arrays
        flat = rows[r0:r1] * n_heads + np.arange(n_heads)[:, None]
        np.take(values.reshape(n * n_heads, head_dim), flat, axis=0, out=v_kept[r0:r1],
                mode="clip")  # "clip" writes straight to out; flat is in range
        np.einsum("ihk,ihka->iha", p[r0:r1], v_kept[r0:r1], out=out[r0:r1])

    _row_blocks(fill, n)

    def bwd(g):
        g3 = g.reshape(n, n_heads, head_dim)
        dp = np.einsum("iha,ihka->ihk", g3, v_kept)
        ds = p * (dp - _over_kept(np.add, p * dp)[..., None])
        flat = rows * n_heads + np.arange(n_heads)[:, None]
        k_kept = keys.reshape(n * n_heads, head_dim)[flat]
        dq = np.einsum("ihk,ihka->iha", ds, k_kept).reshape(n, ha)
        dk = _scatter_kept(flat, ds, q, n * n_heads).reshape(n, ha)
        dv = _scatter_kept(flat, p, g3, n * n_heads).reshape(n, ha)
        dproj = np.concatenate([dq, dk, dv], axis=1)
        _accum(x, dproj @ w_qkv.data)
        _accum(w_qkv, dproj.T @ x.data)

    return (_node(out.reshape(n, ha), "windowed_attention", (x, w_qkv), bwd),
            (rows, p))


def _over_kept(ufunc, a):
    """ufunc reduced over axis 2 of a, the kept entries, as one whole-array
    operation per entry (numpy's own reduction over a short axis is many
    times slower)."""
    out = a[:, :, 0]
    for j in range(1, a.shape[2]):
        out = ufunc(out, a[:, :, j])
    return out


def _scatter_kept(flat, w, u, n_cells):
    """The (n_cells, d) sums over the kept entries (i, h, j) of
    w[i, h, j] * u[i, h] onto row flat[i, h, j]: one np.bincount per
    column."""
    cells = flat.ravel()
    return np.stack([np.bincount(cells, (w * u[:, :, None, c]).ravel(),
                                 minlength=n_cells)
                     for c in range(u.shape[-1])], axis=1)


# ---------------------------------------------------------------------------
# recurrence


def lstm(x: Tensor, offsets, w_input: Tensor, w_hidden: Tensor,
         bias: Tensor) -> Tensor:
    """An LSTM over a batch of sequences -> their (B, H) last hidden states.

    Sequence b is the rows [offsets[b], offsets[b + 1]) of the (N, d)
    tensor x, at least one row each, run from a zero hidden and cell
    state; result rows follow the order of the sequences. The gate
    pre-activations of a step are w_input @ x_t + w_hidden @ h + bias with
    w_input (4H, d), w_hidden (4H, H), bias (4H,) and gate order i, f, g, o.

    The input projection of all N rows is one matmul. The rows are then
    ordered by step, sequences longest first within a step, so the
    sequences still running at step t are a prefix of n_t of them and
    their rows are one contiguous block. Each step adds one
    (n_t, H) @ (H, 4H) product. Backward is backprop through time over the
    same blocks, and each weight gradient is one matmul over the N rows.
    """
    offsets = np.asarray(offsets, dtype=np.intp)
    four_h, d = w_input.shape
    hid = four_h // 4
    lengths = np.diff(offsets)
    if (x.data.ndim != 2 or x.shape[1] != d or offsets.ndim != 1
            or offsets.size < 2 or offsets[0] != 0 or offsets[-1] != x.shape[0]
            or np.any(lengths < 1) or four_h != 4 * hid
            or w_hidden.shape != (four_h, hid) or bias.shape != (four_h,)):
        raise ShapeError(f"lstm: input {x.shape} split at {offsets.tolist()} does "
                         f"not match the weights {w_input.shape}, "
                         f"{w_hidden.shape}, {bias.shape}")
    batch, total = lengths.size, x.shape[0]
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    steps = int(lengths[0])
    # step t's rows in the step-major layout are [first[t], first[t + 1])
    running = (lengths[None, :] > np.arange(steps)[:, None]).sum(axis=1)
    first = np.concatenate([[0], np.cumsum(running)])
    tt, jj = np.nonzero(np.arange(steps)[:, None] < lengths[None, :])
    src = offsets[order][jj] + tt  # the row of x at each layout row
    x_rows = x.data[src]
    pre = x_rows @ w_input.data.T + bias.data
    gates = np.empty((total, four_h))  # activated i, f, g, o
    c_out = np.empty((total, hid))     # the state leaving each layout row
    h_out = np.empty((total, hid))
    tanh_c = np.empty((total, hid))
    w_hidden_t = w_hidden.data.T
    for t in range(steps):
        rows, n = slice(first[t], first[t + 1]), running[t]
        z = pre[rows]
        if t:  # the state entering step t left the first n rows of step t - 1
            prev = slice(first[t - 1], first[t - 1] + n)
            z = z + h_out[prev] @ w_hidden_t
        a = _sigmoid(z)
        a[:, 2 * hid:3 * hid] = np.tanh(z[:, 2 * hid:3 * hid])
        c = a[:, :hid] * a[:, 2 * hid:3 * hid]
        if t:
            c += a[:, hid:2 * hid] * c_out[prev]
        gates[rows] = a
        c_out[rows] = c
        tanh_c[rows] = tc = np.tanh(c)
        h_out[rows] = a[:, 3 * hid:] * tc
    out = np.empty((batch, hid))
    out[order] = h_out[first[lengths - 1] + np.arange(batch)]

    def bwd(g):
        # a sequence's output gradient waits in dh until its last step
        dh = g[order]
        dc = np.zeros((batch, hid))
        dpre = np.empty((total, four_h))
        deriv = gates * (1.0 - gates)
        g_gate = gates[:, 2 * hid:3 * hid]
        deriv[:, 2 * hid:3 * hid] = 1.0 - g_gate * g_gate
        # the layout row whose output state enters each row; -1 for step 0
        # picks the zero row appended below
        entering = np.where(tt > 0, first[tt - 1] + jj, -1)
        h_in = np.concatenate([h_out, np.zeros((1, hid))])[entering]
        c_in = np.concatenate([c_out, np.zeros((1, hid))])[entering]
        for t in range(steps - 1, -1, -1):
            rows, n = slice(first[t], first[t + 1]), running[t]
            a = gates[rows]
            tc = tanh_c[rows]
            dh_t = dh[:n]
            dc_t = dc[:n] + dh_t * a[:, 3 * hid:] * (1.0 - tc * tc)
            da = np.concatenate([dc_t * a[:, 2 * hid:3 * hid], dc_t * c_in[rows],
                                 dc_t * a[:, :hid], dh_t * tc], axis=1)
            dz = da * deriv[rows]
            dpre[rows] = dz
            dh[:n] = dz @ w_hidden.data
            dc[:n] = dc_t * a[:, hid:2 * hid]
        _accum(w_input, dpre.T @ x_rows)
        _accum(w_hidden, dpre.T @ h_in)
        _accum(bias, dpre.sum(axis=0))
        if x.needs_grad:
            dx = np.empty_like(x.data)
            dx[src] = dpre @ w_input.data
            _accum(x, dx)

    return _node(out, "lstm", (x, w_input, w_hidden, bias), bwd)


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
        version = f["__format_version__"]
        if version.shape != (1,) or version.dtype.kind not in "iu":
            raise ValueError(f"{path}: checkpoint format version must be a "
                             f"one-element integer array, got dtype "
                             f"{version.dtype} and shape {version.shape}")
        version = int(version[0])
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format version {version}")
        meta = json.loads(str(f["__meta__"]))
        if not isinstance(meta, dict):
            raise ValueError(f"{path}: checkpoint metadata is a JSON "
                             f"{type(meta).__name__}, not an object")
        arrays = {k: f[k] for k in f.files if not k.startswith("__")}
    return arrays, meta
