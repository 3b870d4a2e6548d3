"""The multi-level sequence model and the plain-LSTM baseline.

Pipeline per sequence: encode each event into a model_dim vector, enrich
it with multi-head attention restricted to events within window_hours
(keeping only the topk strongest scores per query), compress the sequence
with the minimax-span partition and per-group max pooling, then run an
LSTM over the group vectors and squash the last hidden state into an
outcome probability. A Batch holds what those layers need besides the
parameters: the truncated events back to back, the attention windows
(which stop at the seams) and the group starts. A Cohort builds that once
for a list of sequences and gathers or slices a Batch of any of them.
group_vectors runs the per-event layers of a Batch as one concatenated
sequence: one encoding node, one attention node and one pooling node.
outcome runs one LSTM node and one head node over the group vectors of
any number of sequences. forward_batch is the two in a row, so a batch is
one node per layer whatever its size; the loss adds one more. forward runs
the same two over Batch.of([seq]), so the group starts of every batch, of
one sequence or many, come from partition.batch_partition_starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .events import ConfigError, EventSequence, _take_rows, check_number, concatenate
from .partition import Partition, batch_partition_starts, optimal_partition


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


# Sequences of at most this many events on average are searched jointly;
# beyond about 50-100 events one pair of float searches per sequence costs
# less than the complex comparisons of the joined search.
_JOINED_SEARCH_EVENTS = 64


def neighborhood_bounds(times, window_hours: float, offsets=None):
    """For every i, the contiguous [lo, hi) of indices with
    |t_j - t_i| <= window_hours (inclusive, self included), as intp arrays.

    With offsets, times holds several sorted sequences back to back,
    sequence b at [offsets[b], offsets[b + 1]) (offsets runs from 0 to
    len(times)), and no window crosses into another sequence. One sequence
    is one pair of searches. Several short ones (_JOINED_SEARCH_EVENTS
    events or fewer on average) are one pair too, over the complex keys
    b + 1j * t, which numpy orders by sequence, then by time. Longer
    sequences are searched one by one, and so are times with a NaN or out
    of order, which break the order of the keys. Either way the result is
    that of one pair of searches per sequence, bit for bit."""
    t = np.asarray(times, dtype=np.float64)
    if offsets is None or len(offsets) <= 2:
        return (t.searchsorted(t - window_hours, side="left"),
                t.searchsorted(t + window_hours, side="right"))
    offsets = np.asarray(offsets)
    if t.size <= _JOINED_SEARCH_EVENTS * (offsets.size - 1):
        keys = np.empty(t.size, dtype=np.complex128)
        keys.real = np.repeat(np.arange(offsets.size - 1), offsets[1:] - offsets[:-1])
        keys.imag = t
        seq = keys.real
        if not (np.isnan(t).any() or ((t[1:] < t[:-1]) & (seq[1:] == seq[:-1])).any()):
            probe = keys.copy()
            np.subtract(t, window_hours, out=probe.imag)
            lo = keys.searchsorted(probe, side="left")
            np.add(t, window_hours, out=probe.imag)
            return lo, keys.searchsorted(probe, side="right")
    lo, hi = np.empty((2, t.size), dtype=np.intp)
    for a, b in zip(offsets[:-1], offsets[1:]):
        seg_lo, seg_hi = neighborhood_bounds(t[a:b], window_hours)
        lo[a:b], hi[a:b] = seg_lo + a, seg_hi + a
    return lo, hi


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


def _truncate(seq: EventSequence, config: MrmConfig) -> EventSequence:
    cap = config.capacity()
    if len(seq) <= cap:
        return seq
    # keep the most recent events: they carry the most outcome signal
    return seq.take(np.arange(len(seq) - cap, len(seq)))


def sequence_partition(seq: EventSequence, config: MrmConfig) -> Partition:
    """The optimal_partition of seq's events after truncation: the groups
    that forward and every batch pool, as a Partition with its spans."""
    return optimal_partition(_truncate(seq, config).times(), config.max_groups,
                             config.max_group_len)


def _offsets(lengths) -> np.ndarray:
    offsets = np.zeros(len(lengths) + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


@dataclass(frozen=True)
class Batch:
    """What the per-event layers of some sequences need besides the
    parameters, with the sequences back to back: events holds their
    truncated events as one sequence, sequence b at rows [offsets[b],
    offsets[b + 1]). For kind "mrm", row i attends to the rows [lo[i],
    hi[i]), which stop at the seams; the groups of all sequences start at
    the rows starts, sequence b's being starts[group_offsets[b]:
    group_offsets[b + 1]]. A "plain_lstm" batch leaves those four None.
    """

    kind: str
    events: EventSequence
    offsets: np.ndarray
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    starts: np.ndarray | None = None
    group_offsets: np.ndarray | None = None

    @classmethod
    def of(cls, seqs, config: MrmConfig, kind: str = "mrm") -> Batch:
        """The batch of seqs in their order, each truncated to its most
        recent max_groups * max_group_len events: one events.concatenate,
        one neighborhood_bounds call with seams and one
        batch_partition_starts call. ValueError for no sequence."""
        if not len(seqs):
            raise ValueError("a batch needs at least one sequence")
        used = [_truncate(seq, config) for seq in seqs]
        events = concatenate(used)
        offsets = _offsets([len(seq) for seq in used])
        if kind != "mrm":
            return cls(kind, events, offsets)
        times = events.times()
        starts, counts = batch_partition_starts(times, offsets, config.max_groups,
                                                config.max_group_len)
        return cls(kind, events, offsets,
                   *neighborhood_bounds(times, config.window_hours, offsets),
                   starts, _offsets(counts))


class Cohort:
    """A list of sequences prepared once for any number of batches.

    The truncated events, the attention windows and the group starts
    depend on the event times only, never on the parameters, so a Cohort
    holds them for all of seqs in one Batch, rows, built by Batch.of. The
    sequences are stored in order of truncated length, ties in input
    order: the order score_sequences chunks them in, so that every chunk
    is a slice. Stored sequence p is seqs[order[p]] with lengths[p]
    truncated events. batch(index) gathers the sequences at input indices
    index, in that order, and chunk(start, stop) slices the stored ones;
    both shift rows, windows and group starts with a few vectorized calls
    and give the arrays that Batch.of would build for those sequences
    (though a lone sequence's pointers may come as int64, not int32).
    """

    def __init__(self, seqs, config: MrmConfig, kind: str = "mrm"):
        cap = config.capacity()
        lengths = np.fromiter((min(len(seq), cap) for seq in seqs), dtype=np.intp,
                              count=len(seqs))
        self.order = np.argsort(lengths, kind="stable")
        self.lengths = lengths[self.order]
        self.rows = Batch.of([seqs[i] for i in self.order.tolist()], config, kind)
        self._position = np.empty_like(self.order)  # input index -> stored position
        self._position[self.order] = np.arange(self.order.size)

    def __len__(self):
        return self.order.size

    def batch(self, index) -> Batch:
        """The sequences at the input indices index, in that order."""
        at = self._position[np.asarray(index, dtype=np.intp)]
        if not at.size:
            raise ValueError("a batch needs at least one sequence")
        rows = self.rows
        offsets, taken = _take_rows(rows.offsets, at)
        events = rows.events.take(taken)
        if rows.kind != "mrm":
            return Batch(rows.kind, events, offsets)
        group_offsets, groups = _take_rows(rows.group_offsets, at)
        seq_shift = rows.offsets[at] - offsets[:-1]  # cohort row - batch row
        shift = np.repeat(seq_shift, self.lengths[at])
        starts = rows.starts[groups] - np.repeat(seq_shift, np.diff(group_offsets))
        return Batch(rows.kind, events, offsets, rows.lo[taken] - shift,
                     rows.hi[taken] - shift, starts, group_offsets)

    def chunk(self, start: int, stop: int) -> Batch:
        """The stored sequences start..stop - 1, as views shifted to row 0."""
        rows = self.rows
        if start == 0 and stop == len(self):
            return rows
        a, b = rows.offsets[start], rows.offsets[stop]
        codes, times, cat_ptr, cat_ids, num_ptr, num_ids, num_values = rows.events.columns()
        cat_a, cat_b, num_a, num_b = cat_ptr[a], cat_ptr[b], num_ptr[a], num_ptr[b]
        events = EventSequence.from_columns(
            "", 0, codes[a:b], times[a:b], cat_ptr[a:b + 1] - cat_a,
            cat_ids[cat_a:cat_b], num_ptr[a:b + 1] - num_a, num_ids[num_a:num_b],
            num_values[num_a:num_b])
        offsets = rows.offsets[start:stop + 1] - a
        if rows.kind != "mrm":
            return Batch(rows.kind, events, offsets)
        g_a, g_b = rows.group_offsets[start], rows.group_offsets[stop]
        return Batch(rows.kind, events, offsets, rows.lo[a:b] - a, rows.hi[a:b] - a,
                     rows.starts[g_a:g_b] - a,
                     rows.group_offsets[start:stop + 1] - g_a)


def group_vectors(batch: Batch, params: MrmParams, config: MrmConfig):
    """The per-event layers of a Batch -> (x, offsets): the rows the LSTM
    reads, sequence b at x[offsets[b]:offsets[b + 1]].

    The batch is encoded as one sequence. params.kind, which must be the
    batch's kind (ConfigError otherwise), selects the model: "mrm" runs
    attention over the batch's windows and max-pools every group, one row
    per group; "plain_lstm" returns the event vectors, one row per event.
    """
    if batch.kind != params.kind:
        raise ConfigError(f"a {batch.kind!r} batch cannot feed {params.kind!r} params")
    x = encode_events(batch.events, params, config)
    if batch.kind != "mrm":
        return x, batch.offsets
    x, _ = dc.windowed_attention(x, params.named()["attention.qkv"], config.n_heads,
                                 batch.lo, batch.hi, config.topk)
    return dc.group_maxpool(x, batch.starts), batch.group_offsets


def outcome(x: dc.Tensor, offsets, params: MrmParams) -> dc.Tensor:
    """Outcome probabilities of the sequences whose rows x holds, split at
    offsets as group_vectors returns them, as a (B,) tensor: one LSTM op
    over all of them and one logistic op on its last hidden states."""
    w = params.named()
    h_last = dc.lstm(x, offsets, w["lstm.w_input"], w["lstm.w_hidden"], w["lstm.bias"])
    return dc.logistic(h_last, w["output.weight"], w["output.bias"])


def forward_batch(seqs, params: MrmParams, config: MrmConfig) -> dc.Tensor:
    """Outcome probabilities of a batch of sequences as a (B,) tensor:
    outcome of group_vectors over Batch.of(seqs), so a batch is one graph
    of one node per layer (embed, windowed_attention and group_maxpool for
    "mrm", then lstm and logistic)."""
    return outcome(*group_vectors(Batch.of(seqs, config, params.kind), params, config),
                   params)


def forward(seq: EventSequence, params: MrmParams, config: MrmConfig):
    """Full pipeline of one sequence -> (probability tensor, diagnostics).

    The one-sequence case of forward_batch: group_vectors and outcome over
    Batch.of([seq]), which truncates seq to its most recent max_groups *
    max_group_len events first; the probability is a scalar. The
    diagnostics are the events kept (n_events), whether any were cut
    (truncated) and the groups pooled (n_groups). params must be of kind
    "mrm" (ConfigError otherwise).
    """
    if params.kind != "mrm":
        raise ConfigError(f"the mrm model needs mrm params, got kind {params.kind!r}")
    batch = Batch.of([seq], config)
    x, offsets = group_vectors(batch, params, config)
    n_events = len(batch.events)
    diagnostics = {"n_events": n_events, "truncated": n_events < len(seq),
                   "n_groups": x.shape[0]}
    return dc.sum_all(outcome(x, offsets, params)), diagnostics


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
