"""Dense float64 tensors with reverse-mode differentiation and Adam.

Deliberately small: only the operations the model and its baselines
call, each with an explicit backward rule; event encoding, attention,
pooling, the LSTM, the outcome head, the loss and the L2 penalty are one
fused op each. Graphs are built eagerly during the forward pass; a Tensor
doubles as its graph node and is freed when the output goes out of scope.
Everything is double precision so gradient checks against central finite
differences are reliable.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np


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

    __slots__ = ("data", "grad", "needs_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
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

# Workers for row-separable kernels: the calling thread plus pool
# threads, one per CPU this process may run on, at most two (the only count
# measured). The pool exists from import on, so no module attribute changes
# later, and it starts its thread on the first split only.
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
_MIN_BLOCK_ROWS = 512  # smaller blocks lose more to the hand-off than they gain
# Attention scores its window slots one key gather and einsum at a time, or
# a few slots at once while they hold at most this many query rows in all,
# so that short inputs pay fewer numpy calls.
_SLOT_ROWS = 256


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
    _on_workers([(fn, cut) for cut in zip(cuts[:-1], cuts[1:])])


def _both(f, g, n: int):
    """(f(), g()): g on the pool when a call over n rows splits
    (_row_blocks), else both on the calling thread. f and g keep to what
    _row_blocks asks of fn."""
    if min(_WORKERS, n // _MIN_BLOCK_ROWS) <= 1:
        return f(), g()
    return tuple(_on_workers([(f, ()), (g, ())]))


def _on_workers(calls):
    """[fn(*args) for fn, args in calls], the first call on the calling
    thread and the others on the pool, in a copy of the caller's context
    (numpy's errstate is a context variable); returns once every call has
    ended."""
    futures = [_POOL.submit(partial(contextvars.copy_context().run, fn), *args)
               for fn, args in calls[1:]]
    try:
        fn, args = calls[0]
        first = fn(*args)
    finally:
        wait(futures)  # no call may still write once this returns
    return [first] + [future.result() for future in futures]


# ---------------------------------------------------------------------------
# elementwise operations


def sum_all(a: Tensor) -> Tensor:
    def bwd(g):
        _accum(a, np.full(a.shape, float(g)))
    return _node(a.data.sum(), "sum_all", (a,), bwd)


def _sigmoid(x: np.ndarray, out=None) -> np.ndarray:
    """The logistic function, stable at any magnitude: one divide of 1 (x
    >= 0) or exp(-|x|) (x < 0) by 1 + exp(-|x|), into out when given.
    exp(-|x|) lies in [0, 1] or is NaN, which maximum passes on, so its
    maximum with the 0 or 1 of x >= 0 picks that numerator without a
    where."""
    z = np.exp(-np.abs(x))
    return np.divide(np.maximum(z, x >= 0), 1.0 + z, out=out)


# ---------------------------------------------------------------------------
# indexing / pooling


def embed(n_rows: int, lookups) -> Tensor:
    """Sums of weighted table rows, as one (n_rows, d) node.

    lookups is a sequence of (table, ids, ptr, weights), ids and weights
    in CSR form: the entries of output row r are [ptr[r], ptr[r + 1]), and
    entry k adds weights[k] * table[ids[k]] to its row. ptr None means
    entry k goes to row k (then ids has n_rows entries); weights None
    means 1. Each lookup is summed into its own block, a row's entries one
    after the other in entry order, and the blocks are added in order; the
    output rows are filled in row blocks (_row_blocks). Backward is one
    np.bincount per table over id * d + column, which adds each table
    row's entries in entry order from zero, as np.add.at would.
    """
    terms = []
    for table, ids, ptr, weights in lookups:
        ids = np.asarray(ids, dtype=np.intp)
        if ids.size == 0:
            continue
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)[:, None]
        if ptr is None:
            if ids.shape[0] != n_rows:
                raise ShapeError(f"embed: {ids.shape[0]} ids for {n_rows} rows")
        else:
            ptr = np.asarray(ptr, dtype=np.intp)
            if not (ptr.shape == (n_rows + 1,) and ptr[0] == 0
                    and ptr[-1] == ids.shape[0] and (ptr[:-1] <= ptr[1:]).all()):
                raise ShapeError(f"embed: ptr must be {n_rows + 1} non-decreasing "
                                 f"pointers from 0 to {ids.shape[0]}")
        terms.append((table, ids, ptr, weights))
    if not terms:
        raise ShapeError("embed: no lookup has any entries")
    out = np.empty((n_rows, terms[0][0].shape[1]))

    def fill(r0, r1):
        block = out[r0:r1]
        for j, (table, ids, ptr, weights) in enumerate(terms):
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
        for table, ids, ptr, weights in terms:
            if table.needs_grad:
                g_ids = g if ptr is None else np.repeat(g, np.diff(ptr), axis=0)
                if weights is not None:
                    g_ids = g_ids * weights
                d = table.data.shape[1]
                gt = np.bincount((ids[:, None] * d + np.arange(d)).ravel(),
                                 g_ids.ravel(), minlength=table.data.size)
                _accum(table, gt.reshape(table.data.shape))
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
            or starts[-1] >= n or (starts[1:] <= starts[:-1]).any()):
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
    non-decreasing integer arrays of shape (n,) with 0 <= lo[i] <= i <
    hi[i] <= n (ShapeError otherwise). w_qkv is the (3 * n_heads *
    head_dim, d) stack of every head's query weight, then every key
    weight, then every value weight. Per query and head only the topk
    largest dot-product scores survive (ties go to the lowest row index),
    the softmax runs over those and the value rows are summed with its
    weights; head outputs are concatenated in head order.

    Selection first, narrow windows first: with W = max(hi - lo) and k =
    min(topk, W), every row scores the first k slots (rows lo[i], ...,
    lo[i] + k - 1) of its window, which a window of at most k rows keeps
    whatever the scores; only the rows with a wider window also score
    their slots k..W-1 and pick their k kept entries among all W. Scoring
    goes one slot at a time, a gather of that slot's key rows and one
    einsum (a few slots at once for short inputs), so no more than
    max(n, _SLOT_ROWS) rows of keys are gathered at once. The
    softmax, the value gather, the output and the whole backward then run
    over the kept entries only, O(n * heads * k * head_dim). A window
    narrower than k is filled up with padding entries of weight exactly 0
    whose row is lo[i].

    The queries, keys and values of all rows are projected first; the rest
    of the forward runs in row blocks (_row_blocks), each filling its own
    rows of the outputs, so the results do not depend on the number of
    blocks.

    Returns (out, (rows, weights)): out is the (n, heads * head_dim)
    tensor; rows[i, h] are the k rows that query i keeps in head h, in
    row order (padding last), and weights[i, h] their softmax weights,
    both (n, heads, k). The backward rule treats the selection as
    constant. Its row-separable part (the query gradient and the score
    gradients the other two need) runs in row blocks too; then it
    scatters the key and the value gradients of the kept entries onto
    their rows with np.bincount, the two scatters side by side when the
    rows split (_both). No sum changes its order with the number of
    workers.
    """
    if (w_qkv.data.ndim != 2 or w_qkv.shape[1] != x.shape[1]
            or w_qkv.shape[0] % (3 * n_heads)):
        raise ShapeError(f"windowed_attention: x {x.shape} does not match the "
                         f"stacked weight {w_qkv.shape} of {n_heads} heads")
    n = x.shape[0]
    lo, hi = np.asarray(lo), np.asarray(hi)
    i = np.arange(n)
    if not (n and lo.shape == hi.shape == (n,) and lo.dtype.kind in "iu"
            and hi.dtype.kind in "iu" and ((lo >= 0) & (lo <= i) & (i < hi)).all()
            and hi[-1] <= n and (lo[1:] >= lo[:-1]).all() and (hi[1:] >= hi[:-1]).all()):
        raise ShapeError(f"windowed_attention: the windows [lo, hi) of the {n} rows "
                         f"must be non-decreasing with 0 <= lo[i] <= i < hi[i] <= {n}")
    lo, hi = lo.astype(np.intp, copy=False), hi.astype(np.intp, copy=False)
    head_dim = w_qkv.shape[0] // (3 * n_heads)
    ha = n_heads * head_dim
    q, keys, values = (x.data @ w_qkv.data[role * ha:(role + 1) * ha].T
                       for role in range(3))
    q = q.reshape(n, n_heads, head_dim)
    size = hi - lo
    k = min(topk, int(size.max()))
    out = np.empty((n, n_heads, head_dim))
    rows = np.empty((n, n_heads, k), dtype=np.intp)
    p = np.empty((n, n_heads, k))
    v_kept = np.empty((n, n_heads, k, head_dim))

    def fill(r0, r1):
        lo_b = lo[r0:r1, None, None]
        slots, s = _kept_slots(q[r0:r1], keys, lo[r0:r1], hi[r0:r1], k)
        valid = slots < size[r0:r1, None, None]
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
        flat = rows * n_heads + np.arange(n_heads)[:, None]
        ds = np.empty((n, n_heads, k))
        dq = np.empty((n, n_heads, head_dim))

        def back(r0, r1):
            dp = np.einsum("iha,ihka->ihk", g3[r0:r1], v_kept[r0:r1])
            p_b = p[r0:r1]
            np.multiply(p_b, dp - _over_kept(np.add, p_b * dp)[..., None], out=ds[r0:r1])
            k_kept = np.take(keys.reshape(n * n_heads, head_dim), flat[r0:r1], axis=0)
            np.einsum("ihk,ihka->iha", ds[r0:r1], k_kept, out=dq[r0:r1])

        _row_blocks(back, n)
        # the key and the value scatter sum over every row: one per worker
        dk, dv = _both(lambda: _scatter_kept(flat, ds, q, n * n_heads),
                       lambda: _scatter_kept(flat, p, g3, n * n_heads), n)
        dproj = np.concatenate([dq.reshape(n, ha), dk.reshape(n, ha), dv.reshape(n, ha)],
                               axis=1)
        _accum(x, dproj @ w_qkv.data)
        _accum(w_qkv, dproj.T @ x.data)

    return (_node(out.reshape(n, ha), "windowed_attention", (x, w_qkv), bwd),
            (rows, p))


def _kept_slots(q, keys, lo, hi, k):
    """The (m, heads, k) window slots that the query rows q (m, heads,
    head_dim) keep in their windows [lo, hi), in slot order, and their
    scores. A window of at most k rows keeps slots 0..k-1 (padding past
    its end), so every row scores those k slots; the rows with a wider
    window score their other slots too and keep their k best, a stable
    sort by (-score, slot) so that the lowest row wins a tie."""
    size = hi - lo
    slots = np.broadcast_to(np.arange(k), (len(q), q.shape[1], k)).copy()
    s = _window_scores(q, keys, lo, hi, 0, k)
    wide = np.flatnonzero(size > k)
    if wide.size:
        size_w = size[wide, None, None]
        width = int(size_w.max())
        scores = np.concatenate(
            [s[wide], _window_scores(q[wide], keys, lo[wide], hi[wide], k, width)], axis=-1)
        order = np.argsort(np.where(np.arange(width) < size_w, -scores, np.inf),
                           axis=-1, kind="stable")
        wide_slots = np.sort(order[..., :k], axis=-1)
        slots[wide] = wide_slots
        s[wide] = np.take_along_axis(scores, wide_slots, axis=-1)
    return slots, s


def _window_scores(q, keys, lo, hi, j0, j1):
    """The (m, heads, j1 - j0) dot products of the query rows q (m, heads,
    head_dim) with the key rows lo + j0, ..., lo + j1 - 1 of their
    windows, the last row hi - 1 repeated past the window's end: one key
    gather and one einsum per window slot, or per few slots while they
    hold at most _SLOT_ROWS query rows in all. The result is a transposed
    view, each slot's scores contiguous."""
    m, n_heads, head_dim = q.shape
    keys = keys.reshape(len(keys), n_heads, head_dim)
    slot_rows = np.minimum(lo + np.arange(j0, j1)[:, None], hi - 1)
    scores = np.empty((j1 - j0, m, n_heads))
    per = max(1, _SLOT_ROWS // m)
    for j in range(0, j1 - j0, per):
        np.einsum("iha,jiha->jih", q, np.take(keys, slot_rows[j:j + per], axis=0),
                  out=scores[j:j + per])
    return scores.transpose(1, 2, 0)


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
    lengths = offsets[1:] - offsets[:-1]
    if (x.data.ndim != 2 or x.shape[1] != d or offsets.ndim != 1
            or offsets.size < 2 or offsets[0] != 0 or offsets[-1] != x.shape[0]
            or (lengths < 1).any() or four_h != 4 * hid
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
    first = np.zeros(steps + 1, dtype=running.dtype)
    np.cumsum(running, out=first[1:])
    tt, jj = np.nonzero(np.arange(steps)[:, None] < lengths[None, :])
    src = offsets[order][jj] + tt  # the row of x at each layout row
    x_rows = x.data[src]
    pre = x_rows @ w_input.data.T + bias.data
    gates, c_out, tanh_c, h_out = _lstm_steps(pre, first, running, w_hidden.data)
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
        tanh_deriv = 1.0 - tanh_c * tanh_c
        for t in range(steps - 1, -1, -1):
            rows, n = slice(first[t], first[t + 1]), running[t]
            a = gates[rows]
            dh_t = dh[:n]
            dc_t = dc[:n] + dh_t * a[:, 3 * hid:] * tanh_deriv[rows]
            # the gate gradients, written straight into their dpre rows
            dz = dpre[rows]
            np.multiply(dc_t, a[:, 2 * hid:3 * hid], out=dz[:, :hid])
            np.multiply(dc_t, c_in[rows], out=dz[:, hid:2 * hid])
            np.multiply(dc_t, a[:, :hid], out=dz[:, 2 * hid:3 * hid])
            np.multiply(dh_t, tanh_c[rows], out=dz[:, 3 * hid:])
            dz *= deriv[rows]
            np.matmul(dz, w_hidden.data, out=dh[:n])
            dc[:n] = dc_t * a[:, hid:2 * hid]
        _accum(w_input, dpre.T @ x_rows)
        _accum(w_hidden, dpre.T @ h_in)
        _accum(bias, dpre.sum(axis=0))
        if x.needs_grad:
            dx = np.empty_like(x.data)
            dx[src] = dpre @ w_input.data
            _accum(x, dx)

    return _node(out, "lstm", (x, w_input, w_hidden, bias), bwd)


def _lstm_steps(pre, first, running, w_hidden):
    """The forward loop of lstm over the step-major layout: the activated
    gates i, f, g, o, the cell state, its tanh and the hidden state that
    leave each layout row, each written straight into its rows. Step t's
    rows are [first[t], first[t + 1]) with gate pre-activations pre[rows]
    before the hidden term; the state entering its running[t] rows left
    the first running[t] rows of step t - 1."""
    total, four_h = pre.shape
    hid = four_h // 4
    gates = np.empty((total, four_h))
    c_out = np.empty((total, hid))
    tanh_c = np.empty((total, hid))
    h_out = np.empty((total, hid))
    w_hidden_t = w_hidden.T
    first, running = first.tolist(), running.tolist()
    for t in range(len(running)):
        r0, r1 = first[t], first[t + 1]
        a, c, tc = gates[r0:r1], c_out[r0:r1], tanh_c[r0:r1]
        z = pre[r0:r1]
        if t:
            p0, p1 = first[t - 1], first[t - 1] + running[t]
            z = z + h_out[p0:p1] @ w_hidden_t
        _sigmoid(z, out=a)
        np.tanh(z[:, 2 * hid:3 * hid], out=a[:, 2 * hid:3 * hid])
        np.multiply(a[:, :hid], a[:, 2 * hid:3 * hid], out=c)
        if t:
            c += a[:, hid:2 * hid] * c_out[p0:p1]
        np.tanh(c, out=tc)
        np.multiply(a[:, 3 * hid:], tc, out=h_out[r0:r1])
    return gates, c_out, tanh_c, h_out


# ---------------------------------------------------------------------------
# outcome head and loss


def logistic(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """sigmoid(x @ w + b) for each row of the (m, k) tensor x, with w of
    shape (k,) and a scalar b: m probabilities in one node. Backward forms
    the logit gradient g * p * (1 - p) once and sends it to x, w and b."""
    xd, wd = x.data, w.data
    if not (xd.ndim == 2 and wd.ndim == 1 and xd.shape[1] == wd.shape[0]
            and b.data.ndim == 0):
        raise ShapeError(f"logistic: incompatible shapes {x.shape}, {w.shape} "
                         f"and {b.shape}")
    p = _sigmoid(xd @ wd + b.data)

    def bwd(g):
        dz = g * p * (1.0 - p)
        _accum(x, np.outer(dz, wd))
        _accum(w, xd.T @ dz)
        _accum(b, np.sum(dz))
    return _node(p, "logistic", (x, w, b), bwd)


def cross_entropy(p: Tensor, labels, clamp: float) -> Tensor:
    """Mean binary cross entropy -(y ln q + (1 - y) ln(1 - q)) over the
    probabilities p, a scalar or a vector, and the labels y in {0, 1} of
    the same shape, with q = p clamped to [clamp, 1 - clamp], in one node.
    The gradient reaches p only where it lies inside that range."""
    labels = np.asarray(labels)
    if labels.shape != p.shape:
        raise ShapeError(f"cross_entropy: labels of shape {labels.shape} for "
                         f"probabilities of shape {p.shape}")
    keep = (p.data >= clamp) & (p.data <= 1.0 - clamp)
    sign = 2.0 * labels - 1.0
    # q where y = 1 and 1 - q where y = 0, both exact
    likelihood = sign * np.clip(p.data, clamp, 1.0 - clamp) + (1.0 - labels)
    inv_n = 1.0 / labels.size

    def bwd(g):
        _accum(p, np.where(keep, -float(g * inv_n) / likelihood * sign, 0.0))
    return _node((-np.log(likelihood)).sum() * inv_n, "cross_entropy", (p,), bwd)


def add_l2(loss: Tensor, w: Tensor, l2: float) -> Tensor:
    """loss + l2 * sum(w * w) for a scalar loss, in one node. Backward
    sends g to loss and (g * l2) * w to w twice, once per factor of w * w."""
    if loss.data.ndim != 0:
        raise ShapeError(f"add_l2: need a scalar loss, got shape {loss.shape}")
    l2, wd = float(l2), w.data

    def bwd(g):
        _accum(loss, g)
        gw = (g * l2) * wd
        _accum(w, gw)
        _accum(w, gw)
    return _node(loss.data + (wd * wd).sum() * l2, "add_l2", (loss, w), bwd)


# ---------------------------------------------------------------------------
# optimizer


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam moment accumulators and learning rate for a named parameter set."""

    lr: float = 1e-3
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
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        p.data = p.data - state.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


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
