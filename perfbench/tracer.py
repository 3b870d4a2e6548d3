"""Per-layer tracing from outside the library.

The tracer replaces public functions of the ``mrm`` modules with timing
wrappers, keeps a stack of open spans so each span's self time (its
duration minus its wrapped children and the GC pauses inside it) is known,
and times the cyclic garbage collector through ``gc.callbacks``. Every
replaced attribute and the GC callback are put back when the ``active()``
block ends, even on error. Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from contextlib import contextmanager

import mrm
from mrm import diffcore, evalmetrics, events, model, partition, syngen

_clock = time.perf_counter
_MODULES = (mrm, diffcore, evalmetrics, events, model, partition, syngen)


def snapshot_mrm() -> dict:
    """Every attribute of the mrm modules and of diffcore.Tensor."""
    snap = {m.__name__: dict(vars(m)) for m in _MODULES}
    snap["mrm.diffcore.Tensor"] = dict(vars(diffcore.Tensor))
    return snap


def changed_attributes(before: dict, after: dict) -> list:
    """Names whose value is not the very object it was in ``before``."""
    changed = []
    for owner, attrs in before.items():
        now = after[owner]
        for name in attrs.keys() | now.keys():
            if attrs.get(name, before) is not now.get(name, after):
                changed.append(f"{owner}.{name}")
    return sorted(changed)


class _Span:
    __slots__ = ("start", "inner", "gc", "collections")

    def __init__(self, start):
        self.start = start
        self.inner = 0.0  # wrapped children, hidden work and GC directly below
        self.gc = 0.0     # GC pauses anywhere below this span
        self.collections = 0


class Bucket:
    """Totals for one traced function (or group of functions)."""

    __slots__ = ("calls", "total", "self_time", "gc", "collections")

    def __init__(self):
        self.calls = 0
        self.total = 0.0      # wall seconds, GC pauses excluded
        self.self_time = 0.0  # total minus wrapped children
        self.gc = 0.0         # GC pauses inside, and how many
        self.collections = 0


def _reachable_nodes(root) -> int:
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    """Collects per-layer buckets and counters while ``active()``."""

    def __init__(self):
        self.buckets = defaultdict(Bucket)
        self.counts = defaultdict(int)
        self.partitions = []      # the groups of every partition made
        self.valid_split = None   # the list train() scores after each epoch
        self._stack = []
        self._gc_start = None

    # -- spans ---------------------------------------------------------------

    def _enter(self):
        span = _Span(_clock())
        self._stack.append(span)
        return span

    def _exit(self, span, name):
        duration = _clock() - span.start
        self._stack.pop()
        b = self.buckets[name]
        b.calls += 1
        b.total += duration - span.gc
        b.self_time += duration - span.inner
        b.gc += span.gc
        b.collections += span.collections
        if self._stack:
            self._stack[-1].inner += duration
        return duration

    def _hide(self, fn, *args):
        """Run fn so that its time counts in no bucket's self time."""
        t0 = _clock()
        try:
            return fn(*args)
        finally:
            if self._stack:
                self._stack[-1].inner += _clock() - t0

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = _clock()
            return
        if self._gc_start is None:
            return
        pause = _clock() - self._gc_start
        self._gc_start = None
        for span in self._stack:
            span.gc += pause
            span.collections += 1
        if self._stack:
            self._stack[-1].inner += pause

    # -- wrappers ------------------------------------------------------------

    def _timed(self, fn, name, before=None, after=None):
        """Wrap fn in a span of bucket ``name`` (a string, or a function of
        the call's arguments). ``before(args)`` and ``after(args, result)``
        run outside every span."""
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                tracer._hide(before, args)
            bucket = name if isinstance(name, str) else name(args)
            span = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span, bucket)
            if after is not None:
                tracer._hide(after, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _score_bucket(self, args):
        return ("evalmetrics.valid_score" if args[2] is self.valid_split
                else "evalmetrics.score")

    def _count_nodes(self, args):
        self.counts["nodes"] += _reachable_nodes(args[0])

    def _record_partition(self, args, result):
        self.partitions.append(result.groups)

    def _record_forward(self, args, result):
        self.counts["forward_events"] += result[1]["n_events"]

    def _patches(self):
        """(owner, attribute, replacement) for every traced entry point."""
        opt_partition = self._timed(partition.optimal_partition, "partition",
                                    after=self._record_partition)
        return [
            (syngen, "generate", self._timed(syngen.generate, "syngen.generate")),
            (events, "write_dataset", self._timed(events.write_dataset, "events.write")),
            (events, "load_dataset", self._timed(events.load_dataset, "events.load")),
            (events, "fit_normalization",
             self._timed(events.fit_normalization, "events.normalize")),
            (events, "normalize_numeric",
             self._timed(events.normalize_numeric, "events.normalize")),
            # model imports optimal_partition by name, so both owners are patched
            (partition, "optimal_partition", opt_partition),
            (model, "optimal_partition", opt_partition),
            (partition, "greedy_feasible",
             self._timed(partition.greedy_feasible, "partition.probe")),
            (model, "forward", self._timed(model.forward, "model.forward",
                                           after=self._record_forward)),
            (model, "encode_events", self._timed(model.encode_events, "model.encode")),
            (model, "sparse_attention",
             self._timed(model.sparse_attention, "model.attention")),
            (diffcore, "slice_rows", self._timed(diffcore.slice_rows, "model.pool")),
            (diffcore, "maxpool_rows", self._timed(diffcore.maxpool_rows, "model.pool")),
            (diffcore.Tensor, "backward",
             self._timed(diffcore.Tensor.__dict__["backward"], "diffcore.backward",
                         before=self._count_nodes)),
            (diffcore, "clip_gradients",
             self._timed(diffcore.clip_gradients, "diffcore.clip")),
            (diffcore, "adam_step", self._timed(diffcore.adam_step, "diffcore.adam")),
            (evalmetrics, "train", self._timed(evalmetrics.train, "evalmetrics.train")),
            (evalmetrics, "score_sequences",
             self._timed(evalmetrics.score_sequences, self._score_bucket)),
            (evalmetrics, "auc", self._timed(evalmetrics.auc, "evalmetrics.auc")),
        ]

    @contextmanager
    def active(self):
        """Install every wrapper and the GC callback; restore on exit."""
        saved = []
        try:
            for owner, attr, replacement in self._patches():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, replacement)
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self._stack.clear()
            self._gc_start = None


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures from one traced pass, as name -> (value, unit).
    Set-up layers are per set-up; model layers per forward call; diffcore
    and the training loop per optimizer step."""
    b = tracer.buckets
    setups = tracer.counts["setups"]

    def ms(name, per, field="self_time"):
        return 1000.0 * getattr(b[name], field) / per if per else 0.0

    forwards = b["model.forward"].calls
    steps = b["diffcore.adam"].calls
    epochs = tracer.counts["epochs"]
    n_parts = len(tracer.partitions)
    n_groups = sum(len(groups) for groups in tracer.partitions)
    singletons = sum(1 for groups in tracer.partitions
                     for s, e in groups if e - s == 1)
    return {
        "syngen.generate_ms": (ms("syngen.generate", setups), "ms"),
        "events.write_ms": (ms("events.write", setups), "ms"),
        "events.load_ms": (ms("events.load", setups), "ms"),
        "events.normalize_ms": (ms("events.normalize", setups), "ms"),
        "partition.calls": (n_parts, "count"),
        "partition.ms_per_call": (ms("partition", n_parts, "total"), "ms"),
        "partition.probes_per_call": (
            b["partition.probe"].calls / n_parts if n_parts else 0.0, "count"),
        "partition.groups_per_seq": (n_groups / n_parts if n_parts else 0.0, "count"),
        "partition.singleton_share": (singletons / n_groups if n_groups else 0.0, "1"),
        "model.forward_calls": (forwards, "count"),
        "model.events_per_forward": (
            tracer.counts["forward_events"] / forwards if forwards else 0.0, "count"),
        "model.encode_ms_per_seq": (ms("model.encode", forwards), "ms"),
        "model.attention_ms_per_seq": (ms("model.attention", forwards), "ms"),
        "model.pool_ms_per_seq": (ms("model.pool", forwards), "ms"),
        "model.lstm_head_ms_per_seq": (ms("model.forward", forwards), "ms"),
        "diffcore.steps": (steps, "count"),
        "diffcore.nodes_per_seq": (
            tracer.counts["nodes"] / tracer.counts["train_seqs"]
            if tracer.counts["train_seqs"] else 0.0, "count"),
        "diffcore.backward_ms_per_step": (ms("diffcore.backward", steps), "ms"),
        "diffcore.clip_ms_per_step": (ms("diffcore.clip", steps), "ms"),
        "diffcore.adam_ms_per_step": (ms("diffcore.adam", steps), "ms"),
        "diffcore.gc_ms_per_step": (ms("evalmetrics.train", steps, "gc"), "ms"),
        "diffcore.gc_collections": (b["evalmetrics.train"].collections, "count"),
        "evalmetrics.valid_score_ms_per_epoch": (
            ms("evalmetrics.valid_score", epochs, "total"), "ms"),
        "evalmetrics.fit_self_ms_per_step": (ms("evalmetrics.train", steps), "ms"),
        "evalmetrics.auc_ms": (ms("evalmetrics.auc", b["evalmetrics.auc"].calls,
                                  "total"), "ms"),
    }
