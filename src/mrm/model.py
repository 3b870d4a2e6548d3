"""The multi-level sequence model and the plain-LSTM baseline.

Pipeline per sequence: encode each event into a model_dim vector, enrich
it with multi-head attention restricted to events within window_hours
(keeping only the topk strongest scores per query), compress the sequence
with the minimax-span partition and per-group max pooling, then run an
LSTM over the group vectors and squash the last hidden state into an
outcome probability. group_vectors runs the per-event layers of a whole
batch as one concatenated sequence: one encoding node, one attention node
whose windows stop at the seams and one pooling node. outcome runs one
LSTM node and one head node over the group vectors of any number of
sequences. forward_batch is the two in a row, so a batch is one node per
layer whatever its size; the loss adds one more.
"""

from __future__ import annotations

import itertools
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
    """All learnable weights of one model, kind "mrm" or "plain_lstm" (no
    attention): tensors maps each name of param_shapes(config, kind) to its
    Tensor, in that order, for the layers, the optimizer and checkpointing.
    from_arrays also loads the per-head head{h}.{query,key,value}_weight
    arrays of older checkpoints by stacking them."""

    def __init__(self, kind: str, tensors: dict):
        self.kind = kind
        self.tensors = tensors

    @classmethod
    def init(cls, config: MrmConfig, seed: int = 0, kind: str = "mrm"):
        shapes = param_shapes(config, kind)
        rng = np.random.default_rng(seed)
        d = config.model_dim

        # drawn in the order of shapes; the biases draw nothing
        def draw(name, shape):
            if name in ("code_embedding", "cat_embedding", "num_projection"):
                return rng.normal(0.0, 1.0 / math.sqrt(d), size=shape)
            if name == "attention.qkv":
                # drawn head by head (query, key, value), then stacked by role
                heads = [[_glorot(rng, config.head_dim, d) for _ in _ROLES]
                         for _ in range(config.n_heads)]
                return np.concatenate([w for role in zip(*heads) for w in role])
            if name == "lstm.bias":
                bias = np.zeros(shape)
                bias[d:2 * d] = 1.0  # forget gate starts open
                return bias
            if name == "output.weight":
                return rng.uniform(-1, 1, size=shape) * math.sqrt(6.0 / (d + 1))
            if name == "output.bias":
                return np.zeros(shape)
            return _glorot(rng, *shape)  # lstm.w_input, lstm.w_hidden

        return cls(kind, {name: dc.Tensor(draw(name, shape), requires_grad=True)
                          for name, shape in shapes.items()})

    def named(self) -> dict:
        return self.tensors

    def arrays(self) -> dict:
        return {name: t.data for name, t in self.tensors.items()}

    @classmethod
    def from_arrays(cls, arrays: dict, config: MrmConfig, kind: str = "mrm"):
        """Parameters holding float64 copies of arrays, which check_arrays
        holds against param_shapes(config, kind)."""
        checked = check_arrays(cls._stack_legacy_heads(arrays, config),
                               param_shapes(config, kind))
        return cls(kind, {name: dc.Tensor(arr, requires_grad=True)
                          for name, arr in checked.items()})

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
    """name -> shape of every parameter of kind "mrm" or "plain_lstm", the
    one list of them; nothing is allocated. An unknown kind raises
    ConfigError.

    attention.qkv stacks every head's query weight, then every key weight,
    then every value weight; the LSTM gates are in the order i, f, g, o."""
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
    w = params.named()
    return dc.embed(n, [
        (w["code_embedding"], seq.codes, None, None),
        (w["cat_embedding"], seq.cat_ids, seq.cat_ptr, None),
        (w["num_projection"], seq.num_ids, seq.num_ptr, seq.num_values),
    ])


# ---------------------------------------------------------------------------
# windowed sparse attention


def neighborhood_bounds(times, window_hours: float, offsets=None):
    """For every i, the contiguous [lo, hi) of indices with
    |t_j - t_i| <= window_hours (inclusive, self included), as intp arrays.

    With offsets, times holds several sorted sequences back to back,
    sequence b at [offsets[b], offsets[b + 1]) (offsets runs from 0 to
    len(times)), and no window crosses into another sequence. One sequence
    is one pair of searches. Several are one pair too, over the complex
    keys b + 1j * t, which numpy orders by sequence, then by time. A NaN
    time or an unsorted sequence breaks that order, so such times are
    searched sequence by sequence. Either way the result is that of one
    pair of searches per sequence, bit for bit."""
    t = np.asarray(times, dtype=np.float64)
    if offsets is None or len(offsets) <= 2:
        return (t.searchsorted(t - window_hours, side="left"),
                t.searchsorted(t + window_hours, side="right"))
    offsets = np.asarray(offsets)
    keys = np.empty(t.size, dtype=np.complex128)
    keys.real = np.repeat(np.arange(offsets.size - 1), offsets[1:] - offsets[:-1])
    keys.imag = t
    seq = keys.real
    if np.isnan(t).any() or ((t[1:] < t[:-1]) & (seq[1:] == seq[:-1])).any():
        lo, hi = np.empty((2, t.size), dtype=np.intp)
        for a, b in zip(offsets[:-1], offsets[1:]):
            seg_lo, seg_hi = neighborhood_bounds(t[a:b], window_hours)
            lo[a:b], hi[a:b] = seg_lo + a, seg_hi + a
        return lo, hi
    probe = keys.copy()
    np.subtract(t, window_hours, out=probe.imag)
    lo = keys.searchsorted(probe, side="left")
    np.add(t, window_hours, out=probe.imag)
    return lo, keys.searchsorted(probe, side="right")


def sparse_attention(x: dc.Tensor, times, params: MrmParams, config: MrmConfig,
                     offsets=None):
    """Multi-head top-k attention of every event over the events within
    config.window_hours of its time: dc.windowed_attention (which holds the
    algorithm) with the attention.qkv weights over the windows of
    neighborhood_bounds, which stop at the seams offsets marks. Returns
    what dc.windowed_attention returns; ValueError unless times has one
    entry per row of x.
    """
    n = x.shape[0]
    if len(times) != n:
        raise ValueError(f"{n} event vectors but {len(times)} times")
    lo, hi = neighborhood_bounds(times, config.window_hours, offsets)
    return dc.windowed_attention(x, params.named()["attention.qkv"], config.n_heads,
                                 lo, hi, config.topk)


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
    offsets = np.zeros(len(lengths) + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _batch_group_starts(partitions, offsets) -> tuple:
    """(starts, counts) of several sequences: the first row of every group
    in the concatenated rows, and each sequence's number of groups.

    Built in one pass over every partition's groups, with one vectorized
    test that sequence b's groups tile [offsets[b], offsets[b + 1]) in
    order. Only when that test fails do the starts come sequence by
    sequence from _group_starts, which raises its error for the first
    sequence not covered."""
    counts = np.fromiter((len(part.groups) for part in partitions), dtype=np.intp,
                         count=len(partitions))
    ends = np.cumsum(counts)
    try:
        bounds = np.fromiter(
            itertools.chain.from_iterable(itertools.chain.from_iterable(
                part.groups for part in partitions)),
            dtype=np.intp, count=2 * int(ends[-1])).reshape(-1, 2)
    except (TypeError, ValueError):  # groups that are not pairs of integers
        bounds = None
    if bounds is not None and counts.all():
        bounds += np.repeat(offsets[:-1], counts)[:, None]
        # the groups chain from row 0, and each sequence's last group ends
        # at its last row, so the next sequence's first group starts there
        if (bounds[0, 0] == 0 and (bounds[1:, 0] == bounds[:-1, 1]).all()
                and (bounds[ends - 1, 1] == offsets[1:]).all()):
            return bounds[:, 0], counts
    return np.concatenate([np.add(_group_starts(part, b - a), a) for part, a, b
                           in zip(partitions, offsets[:-1], offsets[1:])]), counts


def group_vectors(seqs, params: MrmParams, config: MrmConfig, partitions=None):
    """The per-event layers of a batch -> (x, offsets): the rows the LSTM
    reads, sequence b at x[offsets[b]:offsets[b + 1]].

    Every sequence is truncated to its most recent max_groups *
    max_group_len events, and the batch is encoded as one concatenated
    sequence. params.kind selects the model: "mrm" runs attention with
    windows that stop at the seams and max-pools each group of every
    sequence's partition (partitions[i], which must tile the truncated
    events, one per sequence, or computed when partitions is None), one
    row per group; "plain_lstm" returns the event vectors, one row per
    event. The group starts of several sequences are one array built in
    one pass (_batch_group_starts); one sequence's come from
    _group_starts.
    """
    used = [_truncate(seq, config)[0] for seq in seqs]
    lengths = [len(seq) for seq in used]
    offsets = _offsets(lengths)
    x = encode_events(concatenate(used), params, config)
    if params.kind == "mrm":
        times = [seq.times() for seq in used]
        x, _ = sparse_attention(x, np.concatenate(times), params, config,
                                offsets=offsets)
        if partitions is None:
            partitions = [optimal_partition(t, config.max_groups, config.max_group_len)
                          for t in times]
        elif len(partitions) != len(used):
            raise ValueError(f"{len(partitions)} partitions for {len(used)} sequences")
        if len(partitions) == 1:
            starts = _group_starts(partitions[0], lengths[0])
            counts = [len(starts)]
        else:
            starts, counts = _batch_group_starts(partitions, offsets)
        x = dc.group_maxpool(x, starts)
        offsets = _offsets(counts)
    return x, offsets


def outcome(x: dc.Tensor, offsets, params: MrmParams) -> dc.Tensor:
    """Outcome probabilities of the sequences whose rows x holds, split at
    offsets as group_vectors returns them, as a (B,) tensor: one LSTM op
    over all of them and one logistic op on its last hidden states."""
    w = params.named()
    h_last = dc.lstm(x, offsets, w["lstm.w_input"], w["lstm.w_hidden"], w["lstm.bias"])
    return dc.logistic(h_last, w["output.weight"], w["output.bias"])


def forward_batch(seqs, params: MrmParams, config: MrmConfig,
                  partitions=None) -> dc.Tensor:
    """Outcome probabilities of a batch of sequences as a (B,) tensor:
    outcome of group_vectors, so a batch is one graph of one node per
    layer (embed, windowed_attention and group_maxpool for "mrm", then
    lstm and logistic)."""
    return outcome(*group_vectors(seqs, params, config, partitions), params)


def forward(seq: EventSequence, params: MrmParams, config: MrmConfig,
            partition: Partition | None = None):
    """Full pipeline -> (probability tensor, diagnostics dict).

    The single-sequence case of forward_batch: sequences longer than
    max_groups * max_group_len are truncated to their most recent events
    first. A precomputed partition may be passed in; it must cover exactly
    the post-truncation events (ValueError otherwise). params must be of
    kind "mrm" (ConfigError otherwise).
    """
    if params.kind != "mrm":
        raise ConfigError(f"the mrm model needs mrm params, got kind {params.kind!r}")
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
    in y_hat (a scalar or a vector, y of the same shape, ShapeError
    otherwise), with p clamped away from {0, 1} for stability: one
    cross_entropy op."""
    labels = np.asarray(y)
    if not np.isin(labels, (0, 1)).all():
        raise ValueError(f"labels must be 0 or 1, got {y!r}")
    return dc.cross_entropy(y_hat, labels, _CLAMP)
