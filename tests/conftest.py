import numpy as np
import pytest

from mrm import diffcore
from mrm import events as events_mod
from mrm import model as model_mod
from mrm.partition import optimal_partition


def finite_difference_gradients(loss_fn, tensors, h=1e-5):
    """Central-difference gradients of a scalar loss for every element.

    loss_fn() must rebuild the forward pass from the tensors' current
    .data so each perturbed evaluation is independent of the graph under
    test.
    """
    out = {}
    with diffcore.no_grad():
        for name, t in tensors.items():
            g = np.zeros_like(t.data)
            flat = t.data.reshape(-1)
            gf = g.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                lp = float(loss_fn())
                flat[k] = orig - h
                lm = float(loss_fn())
                flat[k] = orig
                gf[k] = (lp - lm) / (2.0 * h)
            out[name] = g
    return out


def rel_err(analytic, numeric, floor=1e-6):
    """Max-norm relative disagreement between two gradient arrays."""
    a = np.asarray(analytic, dtype=np.float64)
    f = np.asarray(numeric, dtype=np.float64)
    denom = max(np.abs(a).max(initial=0.0), np.abs(f).max(initial=0.0), floor)
    return float(np.abs(a - f).max(initial=0.0) / denom)


def param_rel_err(name, analytic, numeric, n_heads):
    """rel_err of one parameter's gradient. The stacked attention weight
    is checked per head and role, each block against its own scale, as
    when every block was a tensor of its own."""
    if name != "attention.qkv":
        return rel_err(analytic, numeric)
    return max(rel_err(a, f) for a, f in zip(np.split(analytic, 3 * n_heads),
                                             np.split(numeric, 3 * n_heads)))


def head_weights(qkv, n_heads, h):
    """Head h's (query, key, value) weights, each (head_dim, d), sliced
    from the stacked (3 * n_heads * head_dim, d) attention array."""
    queries, keys, values = np.split(np.asarray(qkv), 3)
    head_dim = queries.shape[0] // n_heads
    rows = slice(h * head_dim, (h + 1) * head_dim)
    return queries[rows], keys[rows], values[rows]


def dense_weights(kept, n):
    """One dense (n, n) weight matrix per head from the kept entries
    (rows, weights) of sparse_attention, each (n, heads, k): row i of head
    h holds query i's softmax weights at its kept rows, zero elsewhere."""
    rows, weights = kept
    # summed, not assigned: a padding entry (weight 0) may repeat a kept row
    cells = np.arange(n)[:, None, None] * n + rows
    return [np.bincount(cells[:, h].ravel(), weights[:, h].ravel(),
                        minlength=n * n).reshape(n, n)
            for h in range(rows.shape[1])]


def topk_mask(scores, topk: int) -> np.ndarray:
    """Boolean mask keeping the min(topk, n) largest scores, ties at the
    threshold resolved to the lowest index: the top-k selection oracle."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError(f"topk_mask: need a non-empty vector, got shape {s.shape}")
    mask = np.zeros(s.size, dtype=bool)
    mask[np.argsort(-s, kind="stable")[:min(topk, s.size)]] = True
    return mask


_BAND_ROWS = 256  # query rows whose band full_band_kept_slots gathers at once


def full_band_kept_slots(q, keys, lo, hi, k):
    """The window slots that the query rows q (m, heads, head_dim) keep in
    their windows [lo, hi), and their scores, each (m, heads, k), picked on
    the full band: every row scores the key rows lo, lo + 1, ... of a band
    as wide as the widest window (the last window row repeated past its
    end), _BAND_ROWS rows at a time, in one einsum over the band. A window
    of at most k rows keeps slots 0..k-1; a wider one its k best slots by a
    stable sort on (-score, slot), in slot order. The selection oracle of
    diffcore._kept_slots."""
    m, n_heads, head_dim = q.shape
    size = hi - lo
    width = int(size.max())
    band = np.minimum(lo[:, None] + np.arange(width), hi[:, None] - 1)
    scores = np.empty((m, n_heads, width))
    for c in range(0, m, _BAND_ROWS):
        chunk = slice(c, c + _BAND_ROWS)
        band_keys = keys[band[chunk]].reshape(-1, width, n_heads, head_dim)
        scores[chunk] = np.einsum("iha,iwha->ihw", q[chunk], band_keys)
    slots = np.broadcast_to(np.arange(k), (m, n_heads, k)).copy()
    s = scores[..., :k].copy()
    wide = np.flatnonzero(size > k)
    if wide.size:
        wide_scores = scores[wide]
        order = np.argsort(np.where(np.arange(width) < size[wide, None, None],
                                    -wide_scores, np.inf), axis=-1, kind="stable")
        wide_slots = np.sort(order[..., :k], axis=-1)
        slots[wide] = wide_slots
        s[wide] = np.take_along_axis(wide_scores, wide_slots, axis=-1)
    return slots, s


def attention_backward_oracle(x, w_qkv, n_heads, rows, weights, g):
    """(dx, dw_qkv) of diffcore.windowed_attention for the output gradient
    g, given the kept entries (rows, weights) of its forward: the whole
    backward in one pass over all rows, the kept keys and values gathered
    by fancy indexing, then dq, dk and dv one after the other."""
    n = len(x)
    head_dim = w_qkv.shape[0] // (3 * n_heads)
    ha = n_heads * head_dim
    q, keys, values = (x @ w_qkv[role * ha:(role + 1) * ha].T for role in range(3))
    q = q.reshape(n, n_heads, head_dim)
    g3 = g.reshape(n, n_heads, head_dim)
    flat = rows * n_heads + np.arange(n_heads)[:, None]
    v_kept = values.reshape(n * n_heads, head_dim)[flat]
    k_kept = keys.reshape(n * n_heads, head_dim)[flat]
    dp = np.einsum("iha,ihka->ihk", g3, v_kept)
    weighted = weights * dp
    total = weighted[:, :, 0]
    for j in range(1, weights.shape[2]):
        total = total + weighted[:, :, j]
    ds = weights * (dp - total[..., None])
    dq = np.einsum("ihk,ihka->iha", ds, k_kept).reshape(n, ha)

    def scatter(w, u):
        return np.stack([np.bincount(flat.ravel(), (w * u[:, :, None, c]).ravel(),
                                     minlength=n * n_heads)
                         for c in range(head_dim)], axis=1).reshape(n, ha)

    dproj = np.concatenate([dq, scatter(ds, q), scatter(weights, g3)], axis=1)
    return dproj @ w_qkv, dproj.T @ x


def sigmoid_oracle(x):
    """The stable logistic function with one divide per branch, 1 / (1 + z)
    for x >= 0 and z / (1 + z) below, z = exp(-|x|): the byte oracle of
    diffcore._sigmoid, which divides once."""
    z = np.exp(-np.abs(x))
    d = 1.0 + z
    return np.where(x >= 0, 1.0 / d, z / d)


def head_loss_oracle(x, w, b, labels, clamp, l2=0.0, one_sequence=False):
    """(loss, dx, dw, db) of the mean clamped cross entropy of
    sigmoid(x @ w + b) against labels, plus l2 * sum(w * w) when l2 > 0,
    in the float order of the micro-op graph that model.loss and the
    outcome head once built: matmul, add, sigmoid, clip, mul, add, log,
    neg, sum_all and scale, each gradient pushed as those ops' backward
    rules pushed it. one_sequence sums the single probability to a scalar
    first, as model.forward does. The oracle of diffcore.logistic and
    diffcore.cross_entropy."""
    labels = np.asarray(labels)
    out = sigmoid_oracle(x @ w + b)
    p = out.sum() if one_sequence else out
    keep = (p >= clamp) & (p <= 1.0 - clamp)
    sign = np.asarray(2 * labels - 1, dtype=np.float64)
    likelihood = sign * np.clip(p, clamp, 1.0 - clamp) + np.asarray(1 - labels,
                                                                     dtype=np.float64)
    inv_n = float(1.0 / labels.size)
    loss = (-np.log(likelihood)).sum() * inv_n
    dw = None
    if l2 > 0:
        loss = loss + (w * w).sum() * float(l2)
        g_square = np.full(w.shape, float(np.asarray(1.0) * float(l2)))
        dw = np.array(g_square * w)
        dw += g_square * w
    # scale, sum_all, neg, log, mul and clip, one after the other
    g = np.full(np.shape(p), float(np.asarray(1.0) * inv_n))
    g = np.where(keep, (-g / likelihood) * sign, 0.0)
    if one_sequence:
        g = np.full(out.shape, float(g))
    dz = g * out * (1.0 - out)
    dx, dw_head, db = np.outer(dz, w), x.T @ dz, np.array(np.sum(dz))
    if dw is None:
        dw = np.array(dw_head)
    else:
        dw += dw_head
    return loss, dx, dw, db


def auc_oracle(scores, labels) -> float:
    """evalmetrics.auc with its average ranks of tied scores found by a
    loop over the sorted scores, a run at a time: the oracle of its one
    pass over the run starts."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    n = s.size
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(n, dtype=np.float64)
    sorted_s = s[order]
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def lstm_steps_oracle(pre, first, running, w_hidden):
    """The forward loop of diffcore.lstm, each step's values made as new
    arrays and then copied into place: the oracle of diffcore._lstm_steps."""
    total, four_h = pre.shape
    hid = four_h // 4
    gates = np.empty((total, four_h))
    c_out = np.empty((total, hid))
    h_out = np.empty((total, hid))
    tanh_c = np.empty((total, hid))
    for t in range(len(running)):
        rows, n = slice(first[t], first[t + 1]), running[t]
        z = pre[rows]
        if t:
            prev = slice(first[t - 1], first[t - 1] + n)
            z = z + h_out[prev] @ w_hidden.T
        a = sigmoid_oracle(z)
        a[:, 2 * hid:3 * hid] = np.tanh(z[:, 2 * hid:3 * hid])
        c = a[:, :hid] * a[:, 2 * hid:3 * hid]
        if t:
            c += a[:, hid:2 * hid] * c_out[prev]
        gates[rows] = a
        c_out[rows] = c
        tanh_c[rows] = tc = np.tanh(c)
        h_out[rows] = a[:, 3 * hid:] * tc
    return gates, c_out, tanh_c, h_out


def lstm_backward_oracle(x, offsets, w_input, w_hidden, bias, g):
    """(dx, dw_input, dw_hidden, dbias) of diffcore.lstm's (B, H) output
    for its gradient g: backprop through time over the step-major layout,
    from lstm_steps_oracle's forward values, each step's gate gradients
    made as new arrays, joined by one concatenate and copied into place.
    The byte oracle of lstm's backward."""
    offsets = np.asarray(offsets)
    lengths = np.diff(offsets)
    hid = w_hidden.shape[1]
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    steps = int(lengths[0])
    running = (lengths[None, :] > np.arange(steps)[:, None]).sum(axis=1)
    first = np.concatenate([[0], np.cumsum(running)])
    tt, jj = np.nonzero(np.arange(steps)[:, None] < lengths[None, :])
    src = offsets[order][jj] + tt
    x_rows = x[src]
    gates, c_out, tanh_c, h_out = lstm_steps_oracle(x_rows @ w_input.T + bias, first,
                                                    running, w_hidden)
    dh = g[order]
    dc = np.zeros_like(dh)
    dpre = np.empty((len(src), 4 * hid))
    deriv = gates * (1.0 - gates)
    g_gate = gates[:, 2 * hid:3 * hid]
    deriv[:, 2 * hid:3 * hid] = 1.0 - g_gate * g_gate
    entering = np.where(tt > 0, first[tt - 1] + jj, -1)
    h_in = np.concatenate([h_out, np.zeros((1, hid))])[entering]
    c_in = np.concatenate([c_out, np.zeros((1, hid))])[entering]
    for t in range(steps - 1, -1, -1):
        rows, n = slice(first[t], first[t + 1]), running[t]
        a, tc = gates[rows], tanh_c[rows]
        dc_t = dc[:n] + dh[:n] * a[:, 3 * hid:] * (1.0 - tc * tc)
        da = np.concatenate([dc_t * a[:, 2 * hid:3 * hid], dc_t * c_in[rows],
                             dc_t * a[:, :hid], dh[:n] * tc], axis=1)
        dz = da * deriv[rows]
        dpre[rows] = dz
        dh[:n] = dz @ w_hidden
        dc[:n] = dc_t * a[:, hid:2 * hid]
    dx = np.empty_like(x)
    dx[src] = dpre @ w_input
    return dx, dpre.T @ x_rows, dpre.T @ h_in, dpre.sum(axis=0)


def candidate_spans(times) -> np.ndarray:
    """All distinct pairwise differences t_j - t_i (j >= i) of sorted
    times, sorted. The optimal minimax span is the span of some contiguous
    group, so searching this list is exact: the partition oracle's O(L^2)
    candidate set."""
    t = np.asarray(times, dtype=np.float64)
    iu = np.triu_indices(t.size)
    return np.unique(t[iu[1]] - t[iu[0]])


def neighborhood_bounds_oracle(times, window_hours, offsets=None):
    """model.neighborhood_bounds as one pair of searches per sequence, each
    shifted to its offset: the windows oracle."""
    t = np.asarray(times, dtype=np.float64)
    if offsets is None:
        offsets = (0, t.size)
    lo = np.empty(t.size, dtype=np.intp)
    hi = np.empty(t.size, dtype=np.intp)
    for a, b in zip(offsets[:-1], offsets[1:]):
        seg = t[a:b]
        lo[a:b] = np.searchsorted(seg, seg - window_hours, side="left") + a
        hi[a:b] = np.searchsorted(seg, seg + window_hours, side="right") + a
    return lo, hi


def batch_oracle(seqs, config, kind="mrm"):
    """The model.Batch of seqs built one piece at a time, as every batch
    was before cohorts: events.concatenate of the truncated sequences,
    model.neighborhood_bounds with offsets and one optimal_partition per
    sequence, its groups shifted to the sequence's rows."""
    used = [model_mod._truncate(seq, config) for seq in seqs]
    events = events_mod.concatenate(used)
    offsets = np.cumsum([0] + [len(seq) for seq in used], dtype=np.intp)
    if kind != "mrm":
        return model_mod.Batch(kind, events, offsets)
    lo, hi = model_mod.neighborhood_bounds(events.times(), config.window_hours, offsets)
    parts = [optimal_partition(seq.times(), config.max_groups, config.max_group_len)
             for seq in used]
    starts = np.array([a + s for a, part in zip(offsets.tolist(), parts)
                       for s, _ in part.groups], dtype=np.intp)
    group_offsets = np.cumsum([0] + [len(part) for part in parts], dtype=np.intp)
    return model_mod.Batch(kind, events, offsets, lo, hi, starts, group_offsets)


class OracleCohort:
    """model.Cohort's interface over batch_oracle: every batch and every
    chunk is built afresh from its sequences, in the order model.Cohort
    stores them (by truncated length, ties in input order)."""

    def __init__(self, seqs, config, kind="mrm"):
        self.seqs, self.config, self.kind = list(seqs), config, kind
        cap = config.capacity()
        self.order = np.array(sorted(range(len(seqs)),
                                     key=lambda i: min(len(seqs[i]), cap)), dtype=np.intp)
        self.lengths = np.array([min(len(seqs[i]), cap) for i in self.order],
                                dtype=np.intp)

    def __len__(self):
        return len(self.seqs)

    def batch(self, index):
        return batch_oracle([self.seqs[i] for i in index], self.config, self.kind)

    def chunk(self, start, stop):
        return self.batch(self.order[start:stop])


def concatenated_pointers_oracle(ptrs):
    """The CSR pointers of events.concatenate, built sequence by sequence:
    each sequence's pointers after its leading 0, shifted by the items of
    the sequences before it."""
    shift = np.cumsum([0] + [p[-1] for p in ptrs[:-1]])
    return np.concatenate([np.zeros(1, dtype=np.int32)]
                          + [p[1:] + s for p, s in zip(ptrs, shift)])


def linear_greedy(times: list, threshold: float, max_group_len: int, limit=None):
    """The greedy groups by a linear scan, one exact test per event; None
    as soon as there are more than ``limit`` of them: the greedy probe
    oracle."""
    groups = []
    start = 0
    t_start = times[0]
    for i in range(1, len(times)):
        if i - start >= max_group_len or times[i] - t_start > threshold:
            groups.append((start, i))
            if limit is not None and len(groups) >= limit:
                return None
            start = i
            t_start = times[i]
    groups.append((start, len(times)))
    return groups


@pytest.fixture
def fd_grads():
    return finite_difference_gradients


@pytest.fixture
def grad_rel_err():
    return rel_err


def _selection_margins_ok(seq, params, config, margin):
    """True when the instance sits safely away from every non-smooth
    selection boundary (top-k threshold, max-pool argmax, probability
    clamp), so finite differences stay inside one selection region."""
    with diffcore.no_grad():
        x = model_mod.encode_events(seq, params, config)
        times = seq.times()
        lo, hi = model_mod.neighborhood_bounds(times, config.window_hours)
        for h in range(config.n_heads):
            wq, wk, _ = head_weights(params.named()["attention.qkv"].data,
                                     config.n_heads, h)
            q = x.data @ wq.T
            k = x.data @ wk.T
            scores = q @ k.T
            for i in range(len(times)):
                window = np.sort(scores[i, lo[i]:hi[i]])[::-1]
                if window.size > config.topk:
                    if window[config.topk - 1] - window[config.topk] < margin:
                        return False
        v, _ = model_mod.sparse_attention(x, times, params, config)
        part = model_mod.sequence_partition(seq, config)
        for start, end in part.groups:
            if end - start < 2:
                continue
            block = np.sort(v.data[start:end], axis=0)
            if np.min(block[-1] - block[-2]) < margin:
                return False
        y_hat, _ = model_mod.forward(seq, params, config)
        p = y_hat.item()
        if not (1e-6 < p < 1.0 - 1e-6):
            return False
    return True


def tie_avoided_instance(seed, n_events=12, margin=1e-3):
    """A small random sequence + model whose selections are margin-safe.

    Redraws deterministically from (seed + 1000*attempt) until the margins
    hold, so gradient checks never straddle a top-k or max-pool tie.
    """
    config = model_mod.MrmConfig(
        n_codes=12, n_features=6, max_features=3, model_dim=8, n_heads=2,
        head_dim=4, topk=2, window_hours=0.5, max_groups=4, max_group_len=4)
    for attempt in range(60):
        s = seed + 1000 * attempt
        rng = np.random.default_rng(s)
        times = np.sort(rng.uniform(0.0, 4.0, size=n_events))
        evs = []
        for t in times:
            cat = [int(c) for c in rng.choice(config.n_features,
                                              size=rng.integers(0, 2),
                                              replace=False)]
            num = []
            if rng.random() < 0.5:
                num = [(int(rng.integers(0, config.n_features)),
                        float(rng.normal()))]
            evs.append(events_mod.ClinicalEvent(int(rng.integers(0, config.n_codes)),
                                                float(t), cat, num))
        seq = events_mod.EventSequence("t", int(rng.integers(0, 2)), evs)
        params = model_mod.MrmParams.init(config, seed=s, kind="mrm")
        if _selection_margins_ok(seq, params, config, margin):
            return seq, params, config
    raise RuntimeError(f"no tie-avoided instance found from seed {seed}")


@pytest.fixture
def make_instance():
    return tie_avoided_instance


# ---------------------------------------------------------------------------
# acceptance criteria reporting: one pass/fail line per criterion in the
# terminal summary, independent of stdout capture

_acceptance_results = []


def record_criterion(number, name, ok, detail=""):
    _acceptance_results.append((number, name, bool(ok), detail))


@pytest.fixture
def acceptance():
    return record_criterion


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number, name, ok, detail in sorted(_acceptance_results):
        status = "PASS" if ok else "FAIL"
        line = f"criterion {number} [{status}] {name}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
