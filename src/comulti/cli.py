"""Command-line harness.

Subcommands: ``run`` (one experiment), ``grid`` (several configs as table
columns), ``profile`` (class-skew report) and ``convert`` (csv <-> sparse).
Exit codes: 0 success, 1 config error, 2 data error, 3 training error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path

from .bench import (
    FORMATS,
    MODELS,
    SAMPLINGS,
    ExperimentConfig,
    load_config,
    load_dataset,
    parse_field,
    run,
    run_grid,
)
from .dataset import class_stats, write_csv, write_sparse
from .errors import ComultiError, ConfigError, DataError, TrainingError

EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_TRAINING = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are config errors (exit 1)
        raise ConfigError(message)


def _field_flag(p: argparse.ArgumentParser, flag: str, field: str, **kw):
    """A flag that sets config field ``field``, parsed as the config file
    parses it."""
    p.add_argument(flag, dest=field, type=partial(parse_field, field), **kw)


def _add_dataset_flags(p: argparse.ArgumentParser):
    _field_flag(p, "--dataset", "dataset_path",
                help="dataset path (csv, or sparse matrix file)")
    _field_flag(p, "--format", "dataset_format", choices=FORMATS)
    _field_flag(p, "--label-column", "label_column",
                help="label column name for csv datasets")
    _field_flag(p, "--labels", "labels_path",
                help="labels file for sparse datasets")
    _field_flag(p, "--schema", "schema_path",
                help="JSON feature schema for csv datasets")


def _add_run_flags(p: argparse.ArgumentParser):
    _add_dataset_flags(p)
    _field_flag(p, "--model", "model", choices=MODELS)
    _field_flag(p, "--sampling", "sampling", choices=SAMPLINGS)
    _field_flag(p, "--seed", "seed")
    _field_flag(p, "--seeds", "seeds", metavar="N",
                help="run N consecutive seeds and report mean±std")
    _field_flag(p, "--split", "split_fraction",
                help="train fraction (default 0.8)")
    _field_flag(p, "--majority", "majority_override", metavar="k1,k2,...",
                help="majority-class override (label names)")
    _field_flag(p, "--delta", "delta", help="smoothing for SG-Mean")
    p.add_argument("--out", help="write output to this file")
    p.add_argument("--json", action="store_true", help="structured JSON output")


_FIELDS = {f.name for f in fields(ExperimentConfig)}


def _config_from_args(args) -> ExperimentConfig:
    """The config file, if any, with every config field a flag set."""
    over = {k: v for k, v in vars(args).items()
            if k in _FIELDS and v is not None}
    if getattr(args, "config", None):
        return load_config(args.config, over)
    if "dataset_path" not in over:
        raise ConfigError("--dataset is required")
    return ExperimentConfig(**over)


def _emit(text: str, out_path):
    """Write ``text`` and a final newline, if it lacks one, to ``out_path``
    or stdout: the same bytes either way."""
    text = text if text.endswith("\n") else text + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_run(args) -> int:
    result = run(_config_from_args(args))
    _emit(result.to_json() if args.json else result.to_text(), args.out)
    return 0


def _cmd_grid(args) -> int:
    from dataclasses import replace

    cfgs = []
    for path in args.configs:
        cfg = load_config(path)
        if cfg.name is None:
            cfg = replace(cfg, name=f"{Path(path).stem} {cfg.display_name}")
        cfgs.append(cfg)
    grid = run_grid(cfgs, workers=args.workers)
    _emit(grid.to_json() if args.json else grid.to_text(), args.out)
    return 0


def _cmd_profile(args) -> int:
    cfg = _config_from_args(args)
    stats = class_stats(load_dataset(cfg), cfg.majority_override)
    _emit(stats.describe(), args.out)
    return 0


def _cmd_convert(args) -> int:
    cfg = _config_from_args(args)
    ds = load_dataset(cfg)
    if args.to == "csv":
        write_csv(ds, args.out, label_column=cfg.label_column)
    else:
        out = Path(args.out)
        labels_out = args.labels_out or str(out) + ".labels"
        write_sparse(ds, out, labels_out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="comulti",
                     description="co-multistage imbalanced-multiclass benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("--config", help="config file (flat key = value lines)")
    _add_run_flags(p_run)

    p_grid = sub.add_parser("grid", help="run a grid of config files")
    p_grid.add_argument("configs", nargs="+", help="one config file per column")
    p_grid.add_argument("--workers", type=int, default=1)
    p_grid.add_argument("--out")
    p_grid.add_argument("--json", action="store_true")

    p_prof = sub.add_parser("profile", help="print class statistics")
    _add_dataset_flags(p_prof)
    _field_flag(p_prof, "--majority", "majority_override",
                metavar="k1,k2,...")
    p_prof.add_argument("--out")

    p_conv = sub.add_parser("convert", help="convert csv <-> sparse")
    _add_dataset_flags(p_conv)
    p_conv.add_argument("--to", choices=("csv", "sparse"), required=True)
    p_conv.add_argument("--out", required=True)
    p_conv.add_argument("--labels-out",
                        help="labels file when writing sparse (default "
                             "<out>.labels)")
    return parser


_COMMANDS = {
    "run": _cmd_run,
    "grid": _cmd_grid,
    "profile": _cmd_profile,
    "convert": _cmd_convert,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingError, ComultiError) as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
