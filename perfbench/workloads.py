"""The benchmark workloads and the measured run of one of them.

Every workload is a closed loop with one client. A run is a sequence of
identical rounds; each round builds the data from the seed (set-up),
trains an "mrm" model through ``evalmetrics.train``, then ``score_repeats``
times scores the scoring cohort in one ``evalmetrics.score_sequences``
call and again one patient per call. Interleaving the kinds of work, and
giving scoring about as much time as training, lets every metric's median
sample the whole run, so a slow spell of a shared machine does not land
on one metric only. Library calls go through
module attributes at call time, so the tracer's wrappers see them.

Timings are reported at reference machine speed. A fixed kernel owned by
the benchmark (``reference_s``) runs just before and just after every
timed call, and the call's time is scaled by REFERENCE_S over the mean of
those two kernel times. On a shared VM whose speed drifts by tens of percent
over minutes, this cancels most of the drift; the plain wall-clock
figures are printed next to the scaled ones.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from mrm import evalmetrics, events, model, syngen

from . import checks
from .tracer import Tracer, changed_attributes, layer_metrics, snapshot_mrm

_clock = time.perf_counter

LR = 3e-3
SYNTH = dict(vocab_size=50, base_rate=2.0, t_signal=0.4)
# Validation and test splits of at least 19 sequences make a one-class split
# (on which AUC is undefined) a one-in-a-hundred-thousand event.
SPLIT = (0.4, 0.3, 0.3)
# The split and the training seed are fixed, so every seed puts sequences of
# the same lengths into each split and batch: the seed changes the content
# of the data, never the amount of work or the peak graph size.
SPLIT_SEED = 0
TRAIN_SEED = 0
TRACE_PAIRS = 2  # untraced/traced round pairs in a traced run
REFERENCE_S = 0.010  # reference kernel time that timings are scaled to
_REFERENCE_SORT = np.random.default_rng(0).random(400_000)

# name -> (unit, better); the order is the print order
END_TO_END = {
    "train_seq_per_s": ("seq/s", "higher"),
    "score_seq_per_s": ("seq/s", "higher"),
    "score_ms_p50": ("ms", "lower"),
    "score_ms_p90": ("ms", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
}
# Printed with the end-to-end figures but not part of the result object:
# error_rate is 0 on a correct program (the result's failed/attempted carry
# it), and test_auc after these short trainings varies too much from seed
# to seed to carry a bound of 25 %.
REPORTED_ONLY = {"test_auc": "1", "error_rate": "1"}
TRACE_RATIOS = ("trace.train_speed_ratio", "trace.score_speed_ratio")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_sequences: int           # training cohort, split by SPLIT
    lengths: tuple             # its events per sequence, evenly spread
    model: dict                # MrmConfig settings besides the vocabulary sizes
    batch_size: int
    epochs: int
    score_lengths: tuple = ()  # a separate scoring cohort; () scores the test split
    n_score: int = 0
    score_repeats: int = 1     # batch calls (and single-patient passes) per round


WORKLOADS = {w.name: w for w in (
    Workload(
        name="short_train",
        why="criterion-5 shape: 12-36 events, every group a single event, so "
            "autograd, backward, GC and per-event LSTM steps carry the load",
        n_sequences=128, lengths=(12, 36),
        model=dict(model_dim=32, n_heads=8, head_dim=4, max_groups=64,
                   max_group_len=32),
        batch_size=32, epochs=2, score_repeats=8),
    Workload(
        name="grouped_train",
        why="200-600 events in 16 groups of up to 64, so attention and pooling "
            "dominate and the LSTM runs only 16 steps",
        n_sequences=64, lengths=(200, 600),
        model=dict(model_dim=32, n_heads=8, head_dim=4, max_groups=16,
                   max_group_len=64),
        batch_size=8, epochs=1, score_lengths=(200, 600), n_score=32,
        score_repeats=2),
    Workload(
        name="long_score",
        why="default config scoring 1800-2048-event records: dense attention "
            "and the O(L^2) partition under no_grad; trains only a small short "
            "cohort",
        n_sequences=128, lengths=(12, 36), model={},
        batch_size=32, epochs=2, score_lengths=(1800, 2048), n_score=4),
)}


@dataclass
class Prepared:
    splits: tuple
    score_seqs: list
    model_cfg: model.MrmConfig
    train_cfg: evalmetrics.TrainConfig


class Tally:
    """Attempted and failed operations, keeping every failure message."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, attempted: int, messages: list, failed: int | None = None):
        self.attempted += attempted
        self.failed += len(messages) if failed is None else failed
        self.messages.extend(messages)


def _cohort(n: int, lengths: tuple, seed: int, tag: str):
    """n sequences whose lengths are spread evenly over ``lengths``, each
    drawn from its own generator seed. Fixed lengths keep the amount of
    work the same from seed to seed."""
    lo, hi = lengths
    first = (2 * seed + (tag == "score")) * 100_000
    seqs = []
    for j in range(n):
        length = lo + (hi - lo) * j // max(n - 1, 1)
        synth = syngen.SynthConfig(n_sequences=1, seq_len_range=(length, length),
                                   seed=first + j, **SYNTH)
        seq = syngen.generate(synth)[0]
        seq.patient_id = f"{tag}-{j:05d}"
        seqs.append(seq)
    return seqs


def setup(w: Workload, seed: int, workdir: str) -> Prepared:
    """Generate, write and reload, split, normalize, and build the configs."""
    raw_cfg = syngen.dataset_config_for(syngen.SynthConfig(n_sequences=1, **SYNTH))
    path = os.path.join(workdir, "train.jsonl")
    events.write_dataset(path, _cohort(w.n_sequences, w.lengths, seed, "train"))
    splits = events.split_dataset(events.load_dataset(path, raw_cfg), SPLIT,
                                  SPLIT_SEED)
    data_cfg = events.fit_normalization(splits[0], raw_cfg)
    splits = tuple(events.normalize_numeric(s, data_cfg) for s in splits)
    score_seqs = splits[2]
    if w.score_lengths:
        path = os.path.join(workdir, "score.jsonl")
        events.write_dataset(path, _cohort(w.n_score, w.score_lengths, seed, "score"))
        score_seqs = events.normalize_numeric(events.load_dataset(path, raw_cfg),
                                              data_cfg)
    model_cfg = model.MrmConfig(n_codes=data_cfg.n_codes,
                                n_features=data_cfg.n_features,
                                max_features=data_cfg.max_features, **w.model)
    train_cfg = evalmetrics.TrainConfig(lr=LR, batch_size=w.batch_size,
                                        max_epochs=w.epochs, patience=w.epochs - 1,
                                        seed=TRAIN_SEED)
    return Prepared(splits, score_seqs, model_cfg, train_cfg)


def reference_s() -> float:
    """Seconds for one run of a fixed kernel: a Python loop over small
    numpy operations and fresh objects, like the autodiff core, plus a
    sort of a 3 MB array. It never calls the library, and the cyclic GC
    is off while it runs, so its time depends on the machine only."""
    gc.disable()
    try:
        t0 = _clock()
        x = np.ones(16)
        nodes = []
        for i in range(1200):
            x = np.tanh(x * 0.5 + 0.1)
            nodes.append((i, x, {"op": i}))
        np.sort(_REFERENCE_SORT)
        return _clock() - t0
    finally:
        gc.enable()


class Speed:
    """Scale factors from reference runs around timed calls."""

    def __init__(self):
        self.last = 0.0

    def mark(self):
        """Run the reference just before a timed call."""
        self.last = reference_s()

    def factor(self) -> float:
        """Scale for the call that just ended: REFERENCE_S over the mean of
        the reference runs just before and just after it."""
        now = reference_s()
        scale = 2.0 * REFERENCE_S / (self.last + now)
        self.last = now
        return scale


@dataclass
class Round:
    """Timings of one round as (wall seconds, scale factor) pairs, and
    the outputs the checks need."""

    prep: Prepared
    setup: tuple
    train: tuple = None     # stays None when the call failed
    report: object = None
    batch: list = field(default_factory=list)
    singles: list = field(default_factory=list)  # (ms, factor) per call


def run_round(w: Workload, seed: int, workdir: str, tally: Tally,
              tracer: Tracer | None = None) -> Round:
    gc.collect()
    speed = Speed()
    speed.mark()
    t0 = _clock()
    prep = setup(w, seed, workdir)
    rnd = Round(prep, (_clock() - t0, speed.factor()))
    n_train = len(prep.splits[0])
    steps = math.ceil(n_train / w.batch_size) * w.epochs

    if tracer is not None:
        tracer.valid_split = prep.splits[1]
    gc.collect()
    speed.mark()
    t0 = _clock()
    try:
        params, rnd.report = evalmetrics.train("mrm", prep.splits, prep.train_cfg,
                                               prep.model_cfg)
        rnd.train = (_clock() - t0, speed.factor())
        failures = checks.check_report(rnd.report, "train")
        tally.add(steps, failures, failed=steps if failures else 0)
    except Exception as err:  # a failing program is reported, not fatal
        tally.add(steps, [f"train: {type(err).__name__}: {err}"], failed=steps)
        params = model.MrmParams.init(prep.model_cfg, seed=TRAIN_SEED)  # still score
    if tracer is not None and rnd.report is not None:
        tracer.counts["epochs"] += len(rnd.report.loss_trace)
        tracer.counts["train_seqs"] += n_train * len(rnd.report.loss_trace)

    for _ in range(w.score_repeats):
        _score_cohort(prep, params, rnd, tally, speed)
    return rnd


def _score_cohort(prep: Prepared, params, rnd: Round, tally: Tally, speed: Speed):
    """One batch call over the cohort, then one call per patient."""
    cohort = prep.score_seqs
    batch_scores = None
    gc.collect()
    speed.mark()
    t0 = _clock()
    try:
        batch_scores = evalmetrics.score_sequences("mrm", params, cohort,
                                                   prep.model_cfg)
        rnd.batch.append((_clock() - t0, speed.factor()))
        tally.add(len(cohort), checks.check_scores(batch_scores, "batch score"))
    except Exception as err:
        tally.add(len(cohort), [f"batch score: {type(err).__name__}: {err}"],
                  failed=len(cohort))
    gc.collect()
    speed.mark()
    latencies = []
    for i, seq in enumerate(cohort):
        t0 = _clock()
        try:
            score = evalmetrics.score_sequences("mrm", params, [seq],
                                                prep.model_cfg)[0]
        except Exception as err:
            tally.add(1, [f"single score {i}: {type(err).__name__}: {err}"])
            continue
        latencies.append(1000.0 * (_clock() - t0))
        failures = checks.check_scores([score], f"single score {i}")
        if not failures and batch_scores is not None:
            failures = checks.check_same_score(score, batch_scores[i],
                                               f"single score {i}")
        tally.add(1, failures)
    scale = speed.factor()
    rnd.singles.extend((ms, scale) for ms in latencies)


def check_rounds(rounds: list, tally: Tally):
    """Rounds repeat seeded work, so their trainings must agree exactly."""
    first = rounds[0].report
    for k, rnd in enumerate(rounds[1:], start=2):
        if first is None or rnd.report is None:
            continue  # the failed train call is already counted
        same = ((rnd.report.auc, rnd.report.loss_trace)
                == (first.auc, first.loss_trace))
        tally.add(1, [] if same else [f"round {k}: training gave test AUC "
                                      f"{rnd.report.auc!r}, round 1 gave {first.auc!r}"])


def check_partitions(prep: Prepared, tally: Tally):
    """The partition of every sequence the run uses must be valid."""
    cfg = prep.model_cfg
    cohorts = {"train": prep.splits[0], "valid": prep.splits[1],
               "test": prep.splits[2], "score": prep.score_seqs}
    if prep.score_seqs is prep.splits[2]:
        del cohorts["score"]
    for name, seqs in cohorts.items():
        for i, seq in enumerate(seqs):
            part = model.sequence_partition(seq, cfg)
            tally.add(1, checks.check_partition(
                part.groups, min(len(seq), cfg.capacity()), cfg.max_groups,
                cfg.max_group_len, f"{name} partition {i}"))


def _median(values):
    """Median, or 0.0 when every call failed (the tally says why)."""
    return statistics.median(values) if values else 0.0


def _p90(values):
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _figures(rounds: list, w: Workload, scaled: bool) -> dict:
    """End-to-end metrics over rounds, at reference speed or wall clock."""
    def secs(pair):
        return pair[0] * pair[1] if scaled else pair[0]

    prep = rounds[-1].prep
    n_train = len(prep.splits[0]) * w.epochs
    latencies = [secs(p) for r in rounds for p in r.singles]
    return {
        "train_seq_per_s": _median([n_train / secs(r.train)
                                    for r in rounds if r.train]),
        "score_seq_per_s": _median([len(prep.score_seqs) / secs(b)
                                    for r in rounds for b in r.batch]),
        "score_ms_p50": _median(latencies),
        "score_ms_p90": _p90(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": _median([secs(r.setup) for r in rounds]),
    }


def measure(w: Workload, seed: int, seconds: float, workdir: str):
    """Untraced run: rounds while the next is expected to end within
    ``seconds`` (at least two). Returns (metrics at reference speed, the
    same at wall clock, reported-only figures, sample counts, tally)."""
    tally = Tally()
    rounds = []
    started = _clock()
    while len(rounds) < 2 or (
            _clock() - started) * (len(rounds) + 1) / len(rounds) <= seconds:
        rounds.append(run_round(w, seed, workdir, tally))
    check_rounds(rounds, tally)
    prep = rounds[-1].prep
    check_partitions(prep, tally)
    report = rounds[0].report
    extra = {"test_auc": report.auc if report is not None else 0.0,
             "error_rate": tally.failed / max(tally.attempted, 1)}
    samples = {"rounds": len(rounds),
               "batch_calls": sum(len(r.batch) for r in rounds),
               "single_calls": sum(len(r.singles) for r in rounds),
               "train_seqs_per_call": len(prep.splits[0]) * w.epochs,
               "score_cohort": len(prep.score_seqs),
               "speed_factor": _median([r.setup[1] for r in rounds])}
    return (_figures(rounds, w, scaled=True), _figures(rounds, w, scaled=False),
            extra, samples, tally)


def _throughputs(rounds, w: Workload):
    """(train seq/s, score seq/s) at reference speed over rounds, all calls
    pooled."""
    n_train = len(rounds[0].prep.splits[0]) * w.epochs
    n_score = len(rounds[0].prep.score_seqs)
    train_s = sum(r.train[0] * r.train[1] for r in rounds if r.train)
    score_s = sum(sum(s * f for s, f in r.batch)
                  + sum(ms * f for ms, f in r.singles) / 1000.0 for r in rounds)
    scored = len(rounds) * 2 * n_score * w.score_repeats
    return (len(rounds) * n_train / train_s if train_s else 0.0,
            scored / score_s if score_s else 0.0)


def measure_traced(w: Workload, seed: int, workdir: str):
    """Traced run: TRACE_PAIRS pairs of one untraced and one traced round.
    The per-layer figures come from the traced rounds, and the ratio of
    traced to untraced throughput is the tracing overhead. Returns
    (per-layer metrics, tally)."""
    tally = Tally()
    before = snapshot_mrm()
    tracer = Tracer()
    plain, traced = [], []
    for _ in range(TRACE_PAIRS):
        plain.append(run_round(w, seed, workdir, tally))
        with tracer.active():
            traced.append(run_round(w, seed, workdir, tally, tracer))
    tracer.counts["setups"] = len(traced)
    changed = changed_attributes(before, snapshot_mrm())
    tally.add(1, [f"trace: {name} not restored" for name in changed],
              failed=1 if changed else 0)
    check_rounds(plain + traced, tally)
    check_partitions(traced[-1].prep, tally)
    metrics = layer_metrics(tracer)
    for name, t, p in zip(TRACE_RATIOS, _throughputs(traced, w),
                          _throughputs(plain, w)):
        metrics[name] = (t / p if p else 0.0, "1")
    return metrics, tally
