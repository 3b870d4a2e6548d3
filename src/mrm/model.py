"""The multi-level sequence model and the plain-LSTM baseline.

Pipeline per sequence: encode each event into a model_dim vector, enrich
it with multi-head attention restricted to events within window_hours
(keeping only the topk strongest scores per query), compress the sequence
with the minimax-span partition and per-group max pooling, then run an
LSTM over the group vectors and squash the last hidden state into an
outcome probability. forward_batch runs a whole batch as one concatenated
sequence: one encoding node, one attention node whose windows stop at the
seams, one pooling node and one LSTM node, whatever the batch size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .events import ConfigError, EventSequence, check_number, concatenate
from .partition import Partition, optimal_partition


@dataclass(frozen=True)
class MrmConfig:
    """Model hyperparameters plus the dataset vocabulary sizes.

    head_dim * n_heads must equal model_dim so the concatenated heads
    reproduce the model dimension.
    """

    n_codes: int
    n_features: int
    max_features: int
    model_dim: int = 64
    n_heads: int = 8
    head_dim: int = 8
    topk: int = 4
    window_hours: float = 0.5
    max_groups: int = 64
    max_group_len: int = 32

    def __post_init__(self):
        for name, least in _INTEGER_FIELDS.items():
            check_number(name, getattr(self, name), least, integer=True)
        check_number("window_hours", self.window_hours, 0, strict=True)
        if self.head_dim * self.n_heads != self.model_dim:
            raise ConfigError(
                f"head_dim * n_heads must equal model_dim: "
                f"{self.head_dim} * {self.n_heads} != {self.model_dim}",
                field="head_dim")

    def capacity(self) -> int:
        return self.max_groups * self.max_group_len


# every MrmConfig field but window_hours, with its least value
_INTEGER_FIELDS = {"n_codes": 1, "n_features": 0, "max_features": 0, "model_dim": 1,
                   "n_heads": 1, "head_dim": 1, "topk": 1, "max_groups": 1,
                   "max_group_len": 1}


def _glorot(rng, out_dim: int, in_dim: int) -> np.ndarray:
    a = math.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-a, a, size=(out_dim, in_dim))


_ROLES = ("query", "key", "value")  # block order of the stacked attention weight


class MrmParams:
    """All learnable weights, addressable by flat name for the optimizer
    and checkpointing. kind is "mrm" or "plain_lstm" (no attention).
    from_arrays also loads the per-head head{h}.{query,key,value}_weight
    arrays of older checkpoints by stacking them."""

    def __init__(self, kind, code_embedding, cat_embedding, num_projection,
                 attention, lstm_w_input, lstm_w_hidden, lstm_bias, out_weight,
                 out_bias):
        self.kind = kind
        self.code_embedding = code_embedding
        self.cat_embedding = cat_embedding
        self.num_projection = num_projection
        # (3 * n_heads * head_dim, model_dim): every head's query weight,
        # then every key weight, then every value weight; None for plain_lstm
        self.attention = attention
        self.lstm_w_input = lstm_w_input      # (4H, model_dim), gate order i,f,g,o
        self.lstm_w_hidden = lstm_w_hidden    # (4H, H)
        self.lstm_bias = lstm_bias            # (4H,), forget slice starts at 1.0
        self.out_weight = out_weight          # (model_dim,)
        self.out_bias = out_bias              # scalar

    @classmethod
    def init(cls, config: MrmConfig, seed: int = 0, kind: str = "mrm"):
        if kind not in ("mrm", "plain_lstm"):
            raise ConfigError(f"unknown model kind {kind!r}")
        rng = np.random.default_rng(seed)
        d, h = config.model_dim, config.model_dim
        emb_scale = 1.0 / math.sqrt(d)

        def emb(n):
            return dc.Tensor(rng.normal(0.0, emb_scale, size=(n, d)),
                             requires_grad=True)

        code_embedding = emb(config.n_codes)
        cat_embedding = emb(config.n_features)
        num_projection = emb(config.n_features)
        attention = None
        if kind == "mrm":
            # drawn head by head (query, key, value), then stacked by role
            heads = [[_glorot(rng, config.head_dim, d) for _ in _ROLES]
                     for _ in range(config.n_heads)]
            attention = dc.Tensor(np.concatenate([w for role in zip(*heads)
                                                  for w in role]),
                                  requires_grad=True)
        lstm_w_input = dc.Tensor(_glorot(rng, 4 * h, d), requires_grad=True)
        lstm_w_hidden = dc.Tensor(_glorot(rng, 4 * h, h), requires_grad=True)
        bias = np.zeros(4 * h)
        bias[h:2 * h] = 1.0  # forget gate starts open
        lstm_bias = dc.Tensor(bias, requires_grad=True)
        out_weight = dc.Tensor(rng.uniform(-1, 1, size=d) * math.sqrt(6.0 / (d + 1)),
                               requires_grad=True)
        out_bias = dc.Tensor(0.0, requires_grad=True)
        return cls(kind, code_embedding, cat_embedding, num_projection,
                   attention, lstm_w_input, lstm_w_hidden, lstm_bias,
                   out_weight, out_bias)

    def named(self) -> dict:
        out = {
            "code_embedding": self.code_embedding,
            "cat_embedding": self.cat_embedding,
            "num_projection": self.num_projection,
        }
        if self.attention is not None:
            out["attention.qkv"] = self.attention
        out["lstm.w_input"] = self.lstm_w_input
        out["lstm.w_hidden"] = self.lstm_w_hidden
        out["lstm.bias"] = self.lstm_bias
        out["output.weight"] = self.out_weight
        out["output.bias"] = self.out_bias
        return out

    def arrays(self) -> dict:
        return {name: t.data for name, t in self.named().items()}

    @classmethod
    def from_arrays(cls, arrays: dict, config: MrmConfig, kind: str = "mrm"):
        """Parameters holding float64 copies of arrays, which check_arrays
        holds against param_shapes(config, kind)."""
        checked = check_arrays(cls._stack_legacy_heads(arrays, config),
                               param_shapes(config, kind))
        t = {name: dc.Tensor(arr, requires_grad=True) for name, arr in checked.items()}
        return cls(kind, t["code_embedding"], t["cat_embedding"], t["num_projection"],
                   t.get("attention.qkv"), t["lstm.w_input"], t["lstm.w_hidden"],
                   t["lstm.bias"], t["output.weight"], t["output.bias"])

    @staticmethod
    def _stack_legacy_heads(arrays: dict, config: MrmConfig) -> dict:
        """Replace per-head head{h}.{query,key,value}_weight arrays by their
        attention.qkv stack; arrays without them are returned as they are."""
        legacy = {name for name in arrays if name.startswith("head")}
        if not legacy or "attention.qkv" in arrays:
            return arrays
        shape = (config.head_dim, config.model_dim)
        # counted first, so a huge N_h in the metadata never builds its names
        names = ([f"head{h}.{role}_weight" for role in _ROLES
                  for h in range(config.n_heads)]
                 if len(legacy) == 3 * config.n_heads else [])
        if legacy != set(names) or any(np.shape(arrays[n]) != shape for n in names):
            raise ConfigError(f"checkpoint per-head attention arrays "
                              f"{sorted(legacy)} do not match N_h = "
                              f"{config.n_heads} heads of shape {shape}")
        stacked = {name: arr for name, arr in arrays.items() if name not in legacy}
        stacked["attention.qkv"] = np.concatenate([arrays[name] for name in names])
        return stacked


def param_shapes(config: MrmConfig, kind: str = "mrm") -> dict:
    """name -> shape of every parameter of kind "mrm" or "plain_lstm", in
    the order of MrmParams.named(); nothing is allocated."""
    if kind not in ("mrm", "plain_lstm"):
        raise ConfigError(f"unknown model kind {kind!r}")
    d = config.model_dim
    shapes = {"code_embedding": (config.n_codes, d),
              "cat_embedding": (config.n_features, d),
              "num_projection": (config.n_features, d)}
    if kind == "mrm":
        shapes["attention.qkv"] = (3 * config.n_heads * config.head_dim, d)
    shapes.update({"lstm.w_input": (4 * d, d), "lstm.w_hidden": (4 * d, d),
                   "lstm.bias": (4 * d,), "output.weight": (d,), "output.bias": ()})
    return shapes


def check_arrays(arrays: dict, shapes: dict) -> dict:
    """Float64 copies of arrays, in the order of shapes (name -> shape).

    Raises ConfigError, naming the array, when one is missing or
    unexpected, or is not a real-valued array of its shape with only
    finite entries."""
    missing, extra = set(shapes) - set(arrays), set(arrays) - set(shapes)
    if missing or extra:
        raise ConfigError(f"checkpoint does not match config: "
                          f"missing {sorted(missing)}, unexpected {sorted(extra)}")
    out = {}
    for name, shape in shapes.items():
        arr = np.asarray(arrays[name])
        if arr.dtype.kind not in "iuf":
            raise ConfigError(f"parameter {name}: dtype {arr.dtype} is not real-valued")
        if arr.shape != shape:
            raise ConfigError(f"parameter {name}: shape {arr.shape} != expected {shape}")
        out[name] = arr.astype(np.float64)
        if not np.isfinite(out[name]).all():
            raise ConfigError(f"parameter {name} holds non-finite values")
    return out


# ---------------------------------------------------------------------------
# event encoding


def encode_events(seq: EventSequence, params: MrmParams, config: MrmConfig) -> dc.Tensor:
    """Per-event vectors as an (L, model_dim) tensor, one embed node.

    Each row is the code embedding plus the categorical-feature embeddings
    plus the value-scaled numerical-feature projections of that event. A
    row depends on its own event only, so seq may be a whole batch joined
    by events.concatenate.
    """
    n = len(seq)
    if n == 0:
        raise ValueError("cannot encode an empty sequence")
    for what, ids, size in (("event code", seq.codes, config.n_codes),
                            ("categorical feature id", seq.cat_ids, config.n_features),
                            ("numerical feature id", seq.num_ids, config.n_features)):
        if ids.size and (ids.min() < 0 or ids.max() >= size):
            raise ValueError(f"{what} outside [0, {size})")
    events = np.arange(n)
    return dc.embed(n, [
        (params.code_embedding, seq.codes, None, None),
        (params.cat_embedding, seq.cat_ids,
         np.repeat(events, np.diff(seq.cat_ptr)), None),
        (params.num_projection, seq.num_ids,
         np.repeat(events, np.diff(seq.num_ptr)), seq.num_values),
    ])


# ---------------------------------------------------------------------------
# windowed sparse attention


def neighborhood_bounds(times, window_hours: float, offsets=None):
    """For every i, the contiguous [lo, hi) of indices with
    |t_j - t_i| <= window_hours (inclusive, self included).

    With offsets, times holds several sorted sequences back to back,
    sequence b at [offsets[b], offsets[b + 1]), and no window crosses into
    another sequence."""
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


def sparse_attention(x: dc.Tensor, times, params: MrmParams, config: MrmConfig,
                     return_weights: bool = False, offsets=None):
    """Multi-head attention over time-windowed, top-k-masked neighbors.

    Scores are plain query-key dot products; per query only the topk
    largest in-window scores survive, the rest are masked before the
    softmax. Head outputs are concatenated back to model_dim. Windows are
    contiguous in the sorted times, so one fused op scores the padded
    (L, W) band of each query's window, W the widest window, and picks
    the kept neighbors there; the softmax, the value sum and the backward
    then run over the kept neighbors only, O(L * heads * topk) of them.
    The top-k selection is treated as locally constant in backward.

    With return_weights=True also returns one dense (L, L) weight matrix
    per head, zero outside each query's kept neighbors. offsets marks
    several sequences back to back, as in neighborhood_bounds.
    """
    n = x.shape[0]
    if len(times) != n:
        raise ValueError(f"{n} event vectors but {len(times)} times")
    lo, hi = neighborhood_bounds(times, config.window_hours, offsets)
    out, (rows, kept) = dc.windowed_attention(x, params.attention, config.n_heads,
                                              lo, hi, config.topk)
    if not return_weights:
        return out
    # summed, not assigned: a padding entry (weight 0) may repeat a kept row
    cells = np.arange(n)[:, None, None] * n + rows
    return out, [np.bincount(cells[:, h].ravel(), kept[:, h].ravel(),
                             minlength=n * n).reshape(n, n)
                 for h in range(config.n_heads)]


# ---------------------------------------------------------------------------
# the full pipeline


def _truncate(seq: EventSequence, config: MrmConfig):
    cap = config.capacity()
    if len(seq) <= cap:
        return seq, False
    # keep the most recent events: they carry the most outcome signal
    return seq.take(np.arange(len(seq) - cap, len(seq))), True


def sequence_partition(seq: EventSequence, config: MrmConfig) -> Partition:
    """The partition forward() will use (after its truncation policy)."""
    used, _ = _truncate(seq, config)
    return optimal_partition(used.times(), config.max_groups, config.max_group_len)


def _group_starts(partition: Partition, n_events: int) -> list:
    """First row of every group; the groups must tile [0, n_events) in order."""
    starts = [s for s, _ in partition.groups]
    ends = [e for _, e in partition.groups]
    if not starts or starts[0] != 0 or starts[1:] != ends[:-1] or ends[-1] != n_events:
        raise ValueError(f"the {len(starts)} partition groups do not cover the "
                         f"{n_events} events of the (truncated) sequence in order")
    return starts


def _offsets(lengths) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(lengths)]).astype(np.intp)


def _head(params: MrmParams, h_last: dc.Tensor) -> dc.Tensor:
    return dc.sigmoid(dc.add(dc.matmul(h_last, params.out_weight), params.out_bias))


def forward_batch(seqs, params: MrmParams, config: MrmConfig, partitions=None,
                  kind: str = "mrm") -> dc.Tensor:
    """Outcome probabilities of a batch of sequences as a (B,) tensor.

    Every sequence is truncated to its most recent max_groups *
    max_group_len events, and the batch is encoded as one concatenated
    sequence. kind "mrm" runs attention with windows that stop at the
    seams and max-pools each group of every sequence's partition
    (partitions[i], which must tile the truncated events, or computed when
    partitions is None); kind "plain_lstm" feeds the event vectors
    straight to the LSTM. One LSTM op then runs over the whole batch and
    the sigmoid head scores its last hidden states.
    """
    if kind not in ("mrm", "plain_lstm"):
        raise ConfigError(f"unknown model kind {kind!r}")
    if kind == "mrm" and params.kind != "mrm":
        raise ConfigError(f"the mrm model needs mrm params, got kind {params.kind!r}")
    used = [_truncate(seq, config)[0] for seq in seqs]
    lengths = [len(seq) for seq in used]
    offsets = _offsets(lengths)
    x = encode_events(concatenate(used), params, config)
    if kind == "mrm":
        times = [seq.times() for seq in used]
        x = sparse_attention(x, np.concatenate(times), params, config, offsets=offsets)
        if partitions is None:
            partitions = [optimal_partition(t, config.max_groups, config.max_group_len)
                          for t in times]
        starts = [_group_starts(part, n) for part, n in zip(partitions, lengths)]
        x = dc.group_maxpool(x, np.concatenate(
            [np.add(s, offset) for s, offset in zip(starts, offsets)]))
        offsets = _offsets([len(s) for s in starts])
    h_last = dc.lstm(x, offsets, params.lstm_w_input, params.lstm_w_hidden,
                     params.lstm_bias)
    return _head(params, h_last)


def forward(seq: EventSequence, params: MrmParams, config: MrmConfig,
            partition: Partition | None = None):
    """Full pipeline -> (probability tensor, diagnostics dict).

    The single-sequence case of forward_batch: sequences longer than
    max_groups * max_group_len are truncated to their most recent events
    first. A precomputed partition may be passed in; it must cover exactly
    the post-truncation events (ValueError otherwise).
    """
    used, truncated = _truncate(seq, config)
    if partition is None:
        partition = optimal_partition(used.times(), config.max_groups,
                                      config.max_group_len)
    y_hat = dc.sum_all(forward_batch([used], params, config, [partition]))
    diagnostics = {
        "n_events": len(used),
        "truncated": truncated,
        "partition": partition,
        "n_groups": len(partition.groups),
    }
    return y_hat, diagnostics


_CLAMP = 1e-7


def loss(y_hat: dc.Tensor, y) -> dc.Tensor:
    """Mean cross entropy -(y ln p + (1-y) ln(1-p)) over the probabilities
    in y_hat (a scalar or a vector, y of the same shape), with p clamped
    away from {0, 1} for stability."""
    labels = np.asarray(y)
    if labels.shape != y_hat.shape:
        raise dc.ShapeError(f"loss: labels of shape {labels.shape} for "
                            f"probabilities of shape {y_hat.shape}")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError(f"labels must be 0 or 1, got {y!r}")
    p = dc.clip(y_hat, _CLAMP, 1.0 - _CLAMP)
    # p where y = 1 and 1 - p where y = 0, both exact
    likelihood = dc.add(dc.mul(dc.Tensor(2 * labels - 1), p), dc.Tensor(1 - labels))
    return dc.scale(dc.sum_all(dc.neg(dc.log(likelihood))), 1.0 / labels.size)
