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
from . import diffcore as dc
from . import evalmetrics as ev
from . import events as events_mod
from . import model as model_mod
from . import syngen as syngen_mod
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
    p.add_argument("--model", required=True, choices=["mrm", "plain_lstm", "lr"])
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--D_m", type=int, default=64, help="model dimension")
    p.add_argument("--N_h", type=int, default=8, help="attention head count")
    p.add_argument("--D_a", type=int, default=8, help="per-head dimension")
    p.add_argument("--topk", type=int, default=4, help="kept neighbors per query")
    p.add_argument("--T_r", type=float, default=0.5, help="attention half-window, hours")
    p.add_argument("--M", type=int, default=64, help="max event groups")
    p.add_argument("--L_G", type=int, default=32, help="max events per group")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--max-epochs", type=int, default=20)
    p.add_argument("--patience", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clip", type=float, default=5.0, help="gradient-norm clip")
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
    p.add_argument("--ckpt", default=None, help="also score with this checkpoint")
    p.add_argument("--index", type=int, default=None, help="single sequence index")
    p.set_defaults(func=cmd_inspect)
    return parser


def _sidecar_path(args) -> str:
    return args.data_config if args.data_config else args.data + ".config"


# file key -> (SynthConfig field, parser); seq_len_min/max fold into the range
_SYNTH_KEYS = {
    "n_sequences": ("n_sequences", int),
    "vocab_size": ("vocab_size", int),
    "seq_len_min": ("seq_len_min", int),
    "seq_len_max": ("seq_len_max", int),
    "base_rate": ("base_rate", float),
    "T_signal": ("t_signal", float),
    "marker_a": ("marker_a", int),
    "marker_b": ("marker_b", int),
    "marker_c": ("marker_c", int),
    "marker_d": ("marker_d", int),
    "positive_fraction": ("positive_fraction", float),
    "n_feature_ids": ("n_feature_ids", int),
    "max_features": ("max_features", int),
}


def _read_synth_config(path, seed: int) -> syngen_mod.SynthConfig:
    kv = events_mod.read_keyvalue_file(path)
    unknown = set(kv) - set(_SYNTH_KEYS) - {"seed"}
    if unknown:
        raise syngen_mod.SynthConfigError(
            f"{path}: unknown keys {sorted(unknown)}")
    if "n_sequences" not in kv:
        raise syngen_mod.SynthConfigError(f"{path}: n_sequences is required")
    fields = {}
    for key, (name, conv) in _SYNTH_KEYS.items():
        if key in kv:
            try:
                fields[name] = conv(kv[key])
            except ValueError:
                raise syngen_mod.SynthConfigError(
                    f"{path}: bad value for {key}: {kv[key]!r}") from None
    lo = fields.pop("seq_len_min", syngen_mod.SynthConfig.seq_len_range[0])
    hi = fields.pop("seq_len_max", syngen_mod.SynthConfig.seq_len_range[1])
    return syngen_mod.SynthConfig(seq_len_range=(lo, hi), seed=seed, **fields)


def cmd_generate(args) -> int:
    config = _read_synth_config(args.config, args.seed)
    sequences = syngen_mod.generate(config)
    events_mod.write_dataset(args.out, sequences)
    data_config = syngen_mod.dataset_config_for(config)
    echo = {
        "n_sequences": config.n_sequences, "vocab_size": config.vocab_size,
        "seq_len_min": config.seq_len_range[0], "seq_len_max": config.seq_len_range[1],
        "base_rate": config.base_rate, "T_signal": config.t_signal,
        "marker_a": config.marker_a, "marker_b": config.marker_b,
        "marker_c": config.marker_c, "marker_d": config.marker_d,
        "positive_fraction": config.positive_fraction, "seed": config.seed,
        "n_feature_ids": config.n_feature_ids, "max_features": config.max_features,
    }
    events_mod.write_sidecar_config(args.out + ".config", data_config, extra=echo)
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


def _stats_to_meta(stats: dict) -> dict:
    return {str(fid): [mean, std] for fid, (mean, std) in stats.items()}


def _stats_from_meta(meta_stats: dict) -> dict:
    return {int(fid): (float(m), float(s)) for fid, (m, s) in meta_stats.items()}


def cmd_train(args) -> int:
    data_config = events_mod.load_sidecar_config(_sidecar_path(args))
    sequences = events_mod.load_dataset(args.data, data_config)
    splits = events_mod.split_dataset(sequences, seed=args.seed)
    data_config = events_mod.fit_normalization(splits[0], data_config)
    splits = tuple(events_mod.normalize_numeric(part, data_config) for part in splits)
    train_config = ev.TrainConfig(lr=args.lr, batch_size=args.batch_size,
                                  max_epochs=args.max_epochs, patience=args.patience,
                                  seed=args.seed, clip_norm=args.clip)
    meta = {
        "kind": args.model,
        "dataset": {"N_c": data_config.n_codes, "N_f": data_config.n_features,
                    "maxFeat": data_config.max_features},
        "feature_stats": _stats_to_meta(data_config.feature_stats),
        "train": {"lr": args.lr, "batch_size": args.batch_size,
                  "max_epochs": args.max_epochs, "patience": args.patience,
                  "seed": args.seed, "clip": args.clip},
    }
    if args.model == "lr":
        meta["l2"] = args.l2
        named, report = ev.train_lr_baseline(splits, args.l2, train_config,
                                             n_codes=data_config.n_codes)
        arrays = {name: t.data for name, t in named.items()}
        full = events_mod.normalize_numeric(sequences, data_config)
        fv = np.stack([events_mod.frequency_vector(s, data_config.n_codes)
                       for s in full])
        file_scores = ev.lr_scores(arrays["weight"], float(arrays["bias"]), fv)
    else:
        model_config = _model_config(args, data_config)
        meta["model"] = {
            "D_m": model_config.model_dim, "N_h": model_config.n_heads,
            "D_a": model_config.head_dim, "topk": model_config.topk,
            "T_r": model_config.window_hours, "M": model_config.max_groups,
            "L_G": model_config.max_group_len,
        }
        params, report = ev.train(args.model, splits, train_config, model_config)
        arrays = params.arrays()
        full = events_mod.normalize_numeric(sequences, data_config)
        file_scores = ev.score_sequences(args.model, params, full, model_config)

    extra = {}
    file_labels = [s.label for s in sequences]
    if 0 < sum(file_labels) < len(file_labels):
        extra["file_auc"] = repr(ev.auc(file_scores, file_labels))
        extra["file_ap"] = repr(ev.average_precision(file_scores, file_labels))
    dc.save_checkpoint(args.out, arrays, meta)
    ev.write_report(args.out + ".report", report, extra=extra)
    ev.write_trace_csv(args.out + ".trace.csv", report)
    print(f"test_auc = {report.auc!r}")
    print(f"test_ap = {report.ap!r}")
    print(f"best_epoch = {report.best_epoch}")
    print(f"checkpoint = {args.out}")
    return 0


# metadata block -> keys it must hold; the model kinds also need "model" and
# "feature_stats", which the lr baseline does not have
_META_KEYS = {
    "dataset": ("N_c", "N_f", "maxFeat"),
    "model": ("D_m", "N_h", "D_a", "topk", "T_r", "M", "L_G"),
    "feature_stats": (),
}


def _load_checkpoint_model(path):
    arrays, meta = dc.load_checkpoint(path)
    kind = meta.get("kind")
    if kind not in ("mrm", "plain_lstm", "lr"):
        raise events_mod.DatasetError(f"{path}: unknown model kind {kind!r}")
    for block in (("dataset",) if kind == "lr" else _META_KEYS):
        if not isinstance(meta.get(block), dict):
            raise events_mod.DatasetError(
                f"{path}: checkpoint metadata lacks the {block!r} block")
        missing = [k for k in _META_KEYS[block] if k not in meta[block]]
        if missing:
            raise events_mod.DatasetError(
                f"{path}: checkpoint metadata block {block!r} lacks {missing}")
    return arrays, meta, kind


def _check_dataset_match(meta, data_config, where: str):
    want = meta["dataset"]
    got = {"N_c": data_config.n_codes, "N_f": data_config.n_features,
           "maxFeat": data_config.max_features}
    if want != got:
        raise events_mod.DatasetError(
            f"{where}: checkpoint/config mismatch: checkpoint has {want}, "
            f"dataset has {got}")


def _checkpoint_model_config(meta, data_config) -> model_mod.MrmConfig:
    m = meta["model"]
    return model_mod.MrmConfig(
        n_codes=data_config.n_codes, n_features=data_config.n_features,
        max_features=data_config.max_features, model_dim=m["D_m"],
        n_heads=m["N_h"], head_dim=m["D_a"], topk=m["topk"],
        window_hours=m["T_r"], max_groups=m["M"], max_group_len=m["L_G"])


def _scores_for_checkpoint(arrays, meta, kind, sequences, data_config):
    if kind == "lr":
        fv = np.stack([events_mod.frequency_vector(s, data_config.n_codes)
                       for s in sequences])
        return ev.lr_scores(arrays["weight"], float(arrays["bias"]), fv)
    model_config = _checkpoint_model_config(meta, data_config)
    params = model_mod.MrmParams.from_arrays(arrays, model_config, kind=kind)
    stats = _stats_from_meta(meta["feature_stats"])
    normalized = events_mod.normalize_numeric(
        sequences, events_mod.DatasetConfig(
            data_config.n_codes, data_config.n_features,
            data_config.max_features, feature_stats=stats))
    return ev.score_sequences(kind, params, normalized, model_config)


def cmd_evaluate(args) -> int:
    arrays, meta, kind = _load_checkpoint_model(args.ckpt)
    sidecar = _sidecar_path(args)
    if os.path.exists(sidecar):
        data_config = events_mod.load_sidecar_config(sidecar)
        _check_dataset_match(meta, data_config, args.ckpt)
    else:
        d = meta["dataset"]
        data_config = events_mod.DatasetConfig(d["N_c"], d["N_f"], d["maxFeat"])
    sequences = events_mod.load_dataset(args.data, data_config)
    scores = _scores_for_checkpoint(arrays, meta, kind, sequences, data_config)
    labels = [s.label for s in sequences]
    print(f"n_sequences = {len(sequences)}")
    print(f"n_pos = {sum(labels)}")
    print(f"n_neg = {len(labels) - sum(labels)}")
    print(f"auc = {ev.auc(scores, labels)!r}")
    print(f"ap = {ev.average_precision(scores, labels)!r}")
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
    print(f"patient_id = {seq.patient_id}")
    print(f"label = {seq.label}")
    print(f"n_events = {len(seq)}")
    print(f"t_first = {float(seq.times()[0])!r}")
    print(f"t_last = {float(seq.times()[-1])!r}")
    if args.ckpt:
        arrays, meta, kind = _load_checkpoint_model(args.ckpt)
        _check_dataset_match(meta, data_config, args.ckpt)
        score = _scores_for_checkpoint(arrays, meta, kind, [seq], data_config)[0]
        print(f"prediction = {float(score)!r}")
        if kind == "mrm":
            part = model_mod.sequence_partition(
                seq, _checkpoint_model_config(meta, data_config))
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
    except (events_mod.DatasetError, syngen_mod.SynthConfigError,
            InfeasiblePartitionError, model_mod.ConfigError,
            ev.TrainingDiverged, OSError, ValueError) as err:
        print(f"{parser.prog}: error: {err}", file=sys.stderr)
        return 2


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
