"""Command-line entry point: generate / train / evaluate / partition / inspect.

Exit codes: 0 success, 1 usage error, 2 runtime or data error. The env
var MRM_LOG in {quiet, info, debug} controls logging verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import __version__
from . import evalmetrics as ev
from . import events as events_mod
from . import model as model_mod
from . import syngen as syngen_mod
from .checkpoint import (KINDS, Checkpoint, checkpoint_scores, read_checkpoint,
                         write_checkpoint)
from .partition import InfeasiblePartitionError, optimal_partition


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _configure_logging():
    level = {"quiet": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(os.environ.get("MRM_LOG", "info"))
    if level is None:
        level = logging.INFO
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(level)  # honor MRM_LOG on repeated calls too


def _build_parser() -> _Parser:
    parser = _Parser(prog="mrm", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset")
    p.add_argument("--config", required=True, help="flat key-value generator config")
    p.add_argument("--out", required=True, help="output dataset path (JSON lines)")
    p.add_argument("--seed", required=True, type=int)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a model and write checkpoint + report")
    p.add_argument("--data", required=True)
    p.add_argument("--data-config", default=None,
                   help="sidecar config path (default: <data>.config)")
    p.add_argument("--model", required=True, choices=KINDS)
    p.add_argument("--out", required=True, help="checkpoint path")
    model, train = model_mod.MrmConfig, ev.TrainConfig  # the defaults' one home
    p.add_argument("--D_m", type=int, default=model.model_dim, help="model dimension")
    p.add_argument("--N_h", type=int, default=model.n_heads, help="attention head count")
    p.add_argument("--D_a", type=int, default=model.head_dim, help="per-head dimension")
    p.add_argument("--topk", type=int, default=model.topk, help="kept neighbors per query")
    p.add_argument("--T_r", type=float, default=model.window_hours,
                   help="attention half-window, hours")
    p.add_argument("--M", type=int, default=model.max_groups, help="max event groups")
    p.add_argument("--L_G", type=int, default=model.max_group_len,
                   help="max events per group")
    p.add_argument("--lr", type=float, default=train.lr)
    p.add_argument("--batch-size", type=int, default=train.batch_size)
    p.add_argument("--max-epochs", type=int, default=train.max_epochs)
    p.add_argument("--patience", type=int, default=None,
                   help=f"epochs without a better validation AUC before stopping "
                        f"(default: {train.patience}, or max-epochs - 1 when that is less)")
    p.add_argument("--seed", type=int, default=train.seed)
    p.add_argument("--clip", type=float, default=train.clip_norm, help="gradient-norm clip")
    p.add_argument("--l2", type=float, default=1e-4, help="L2 penalty (lr model)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a dataset with a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--data-config", default=None)
    p.add_argument("--ckpt", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("partition", help="minimax-span grouping of a times list")
    p.add_argument("--times", required=True,
                   help="comma-separated times in hours (sorted before use)")
    p.add_argument("--M", required=True, type=int, help="max groups")
    p.add_argument("--L_G", required=True, type=int, help="max events per group")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("inspect", help="summarize a dataset or one sequence")
    p.add_argument("--data", required=True)
    p.add_argument("--data-config", default=None)
    p.add_argument("--ckpt", default=None,
                   help="also score the --index sequence with this checkpoint")
    p.add_argument("--index", type=int, default=None, help="single sequence index")
    p.set_defaults(func=cmd_inspect)
    return parser


def _sidecar_path(args) -> str:
    return args.data_config if args.data_config else args.data + ".config"


def cmd_generate(args) -> int:
    config = syngen_mod.load_synth_config(args.config, args.seed)
    sequences = syngen_mod.generate(config)
    events_mod.write_dataset(args.out, sequences)
    events_mod.write_sidecar_config(
        args.out + ".config", syngen_mod.dataset_config_for(config),
        extra=events_mod.entries(config, syngen_mod.SYNTH_KEYS))
    n_pos = sum(s.label for s in sequences)
    n = len(sequences)
    print(f"wrote {n} sequences to {args.out}")
    print(f"positives = {n_pos}/{n} ({100.0 * n_pos / n:.1f}%)")
    return 0


def _model_config(args, data_config) -> model_mod.MrmConfig:
    try:
        return model_mod.MrmConfig(
            n_codes=data_config.n_codes, n_features=data_config.n_features,
            max_features=data_config.max_features, model_dim=args.D_m,
            n_heads=args.N_h, head_dim=args.D_a, topk=args.topk,
            window_hours=args.T_r, max_groups=args.M, max_group_len=args.L_G)
    except model_mod.ConfigError as err:
        raise _UsageError(str(err)) from None


def cmd_train(args) -> int:
    folder = os.path.dirname(args.out) or "."  # checked now, not after the last epoch
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
        raise OSError(f"--out {args.out}: no writable directory {folder}")
    patience = (min(ev.TrainConfig.patience, args.max_epochs - 1)
                if args.patience is None else args.patience)
    train_config = ev.TrainConfig(lr=args.lr, batch_size=args.batch_size,
                                  max_epochs=args.max_epochs, patience=patience,
                                  seed=args.seed, clip_norm=args.clip)
    data_config = events_mod.load_sidecar_config(_sidecar_path(args))
    sequences = events_mod.load_dataset(args.data, data_config)
    splits = events_mod.split_dataset(sequences, seed=args.seed)
    data_config = events_mod.fit_normalization(splits[0], data_config)
    splits = tuple(events_mod.normalize_numeric(part, data_config) for part in splits)
    if args.model == "lr":
        named, report = ev.train_lr_baseline(splits, args.l2, train_config,
                                             n_codes=data_config.n_codes)
        ckpt = Checkpoint("lr", data_config, None,
                          {name: t.data for name, t in named.items()}, train_config,
                          args.l2)
    else:
        model_config = _model_config(args, data_config)
        params, report = ev.train(args.model, splits, train_config, model_config)
        ckpt = Checkpoint(args.model, data_config, model_config, params, train_config)
    file_scores = checkpoint_scores(ckpt, sequences, f"checkpoint {args.out}")
    extra = {}
    file_labels = [s.label for s in sequences]
    if 0 < sum(file_labels) < len(file_labels):
        extra["file_auc"] = repr(ev.auc(file_scores, file_labels))
        extra["file_ap"] = repr(ev.average_precision(file_scores, file_labels))
    write_checkpoint(args.out, ckpt)
    ev.write_report(args.out + ".report", report, extra=extra)
    ev.write_trace_csv(args.out + ".trace.csv", report)
    print(f"test_auc = {report.auc!r}")
    print(f"test_ap = {report.ap!r}")
    print(f"best_epoch = {report.best_epoch}")
    print(f"checkpoint = {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    sidecar = _sidecar_path(args)
    ckpt = read_checkpoint(args.ckpt, events_mod.load_sidecar_config(sidecar)
                           if os.path.exists(sidecar) else None)
    sequences = events_mod.load_dataset(args.data, ckpt.dataset)
    scores = checkpoint_scores(ckpt, sequences, f"checkpoint {args.ckpt}")
    labels = [s.label for s in sequences]
    auc, ap = ev.auc(scores, labels), ev.average_precision(scores, labels)  # may raise
    print(f"n_sequences = {len(sequences)}")
    print(f"n_pos = {sum(labels)}")
    print(f"n_neg = {len(labels) - sum(labels)}")
    print(f"auc = {auc!r}")
    print(f"ap = {ap!r}")
    return 0


def cmd_partition(args) -> int:
    try:
        times = sorted(float(v) for v in args.times.split(",") if v.strip())
    except ValueError:
        raise _UsageError(f"--times must be comma-separated numbers, got "
                          f"{args.times!r}") from None
    if not times:
        raise _UsageError("--times is empty")
    part = optimal_partition(times, args.M, args.L_G)
    print(f"minimax_span = {part.minimax_span!r}")
    print(f"n_groups = {len(part.groups)}")
    for gi, ((s, e), span) in enumerate(zip(part.groups, part.spans)):
        print(f"group {gi}: [{s}, {e}) span={span!r} "
              f"times {times[s]!r}..{times[e - 1]!r}")
    return 0


def cmd_inspect(args) -> int:
    if args.ckpt is not None and args.index is None:
        raise _UsageError("--ckpt needs --index: a checkpoint scores one sequence")
    sidecar = _sidecar_path(args)
    data_config = events_mod.load_sidecar_config(sidecar)
    sequences = events_mod.load_dataset(args.data, data_config)
    if args.index is None:
        lengths = np.array([len(s) for s in sequences])
        durations = np.array([s.times()[-1] - s.times()[0] for s in sequences])
        n_pos = sum(s.label for s in sequences)
        print(f"n_sequences = {len(sequences)}")
        print(f"positives = {n_pos}/{len(sequences)}")
        print(f"length min/mean/max = {lengths.min()}/{lengths.mean():.1f}/{lengths.max()}")
        print(f"duration_hours min/mean/max = {durations.min():.2f}/"
              f"{durations.mean():.2f}/{durations.max():.2f}")
        return 0
    if not (0 <= args.index < len(sequences)):
        raise events_mod.DatasetError(
            f"--index {args.index} outside [0, {len(sequences)})")
    seq = sequences[args.index]
    ckpt = None if args.ckpt is None else read_checkpoint(args.ckpt, data_config)
    if ckpt is not None:  # scored first: a checkpoint that fails prints nothing
        prediction = checkpoint_scores(ckpt, [seq], f"checkpoint {args.ckpt}")[0]
    print(f"patient_id = {seq.patient_id}")
    print(f"label = {seq.label}")
    print(f"n_events = {len(seq)}")
    print(f"t_first = {float(seq.times()[0])!r}")
    print(f"t_last = {float(seq.times()[-1])!r}")
    if ckpt is not None:
        print(f"prediction = {float(prediction)!r}")
        if ckpt.kind == "mrm":
            part = model_mod.sequence_partition(seq, ckpt.model)
            print(f"n_groups = {len(part.groups)}")
            print(f"minimax_span = {part.minimax_span!r}")
    return 0


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as err:
        print(f"{parser.prog}: error: {err}", file=sys.stderr)
        return 1
    except (events_mod.DatasetError, InfeasiblePartitionError, model_mod.ConfigError,
            ev.TrainingDiverged, OSError, ValueError) as err:
        print(f"{parser.prog}: error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        print(f"{parser.prog}: error: {str(err) or 'out of memory'}", file=sys.stderr)
        return 2


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
