"""Command-line entry point: train / cv / undersample / report.

Configuration comes from an optional JSON config file plus flag overrides
(flags win).  Every command writes a manifest, itself a valid config file,
with the fully resolved configuration so outputs can be reproduced bit-exactly.
Each option is declared once, in the option table above build_parser.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import experiment
from .data import (
    DataFormatError,
    Dataset,
    field_types,
    orient_labels,
    parse_csv,
    parse_sparse,
    undersample_minority,
    write_sparse,
)
# Unused here (experiment.split splits); bench/spans.py traces these names.
from .data import fold_split, standardize, stratified_folds  # noqa: F401
from .losses import ALL_KINDS, LossKind
from .network import save_checkpoint
from .trainer import TrainConfig, train, write_epoch_csv

# Exit codes besides 0 (success): 2 parse error, 3 i/o error, 4 invalid
# configuration, and this one: `cv` or `report` finished and wrote its
# outputs, but at least one run failed.
EXIT_RUNS_FAILED = 5


def _load_dataset(path: str) -> Dataset:
    p = Path(path)
    if not p.exists():
        raise DataFormatError(f"dataset not found: {path}")
    raw = parse_csv(p) if p.suffix == ".csv" else parse_sparse(p)
    # The parsers read nan and inf; no run can learn from them.
    for values, what in ((raw.labels[:, None], "label"), (raw.X, "feature value")):
        bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
        if len(bad):
            raise DataFormatError(f"{path}: data row {bad[0] + 1} holds a "
                                  f"non-finite {what}")
    return orient_labels(raw)


def environment() -> dict:
    """The Python, numpy and BLAS a run used, the machine and its CPU count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "machine": platform.machine(), "cpus": os.cpu_count()}


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve(args: argparse.Namespace) -> dict:
    """Merge config file values under CLI flags (flags win).  A config file
    may set only what a flag of the command or, for train and cv, a
    TrainConfig field names.  Each value is checked against its CHOICES,
    checked to be a string (a path) or cast to its type in TYPES; a null
    one is dropped, leaving the default."""
    flags = {k: v for k, v in vars(args).items()
             if k not in ("config", "func", "command")}
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            try:
                cfg = json.load(fh)
            except ValueError as exc:
                raise DataFormatError(f"config {args.config}: {exc}") from None
        if not isinstance(cfg, dict):
            raise DataFormatError(f"config {args.config}: not a JSON object")
        # A manifest names the command that wrote it and its environment.
        cfg.pop("command", None)
        cfg.pop("environment", None)
    trains = args.command in ("train", "cv")
    unknown = set(cfg) - set(flags) - {f.name for f in fields(TrainConfig) if trains}
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    cfg.update((k, v) for k, v in flags.items() if v is not None)
    for key, kind in TYPES.items():
        value = cfg.pop(key, None)
        if value is None:
            continue
        if key in CHOICES and value not in CHOICES[key]:
            raise ValueError(f"{key} must be one of {CHOICES[key]}, got {value!r}")
        if kind is str and not isinstance(value, str):
            raise ValueError(f"{key} must be a path string, got {value!r}")
        try:
            cfg[key] = kind(value)
        except (TypeError, ValueError):
            raise ValueError(f"{key} must be {kind.__name__}, "
                             f"got {value!r}") from None
    return cfg


def _train_config(cfg: dict) -> TrainConfig:
    """The TrainConfig the options set, every other field at its default;
    its loss is the method the loss/astra options name."""
    given = {f.name: cfg[f.name] for f in fields(TrainConfig)
             if f.name != "loss" and f.name in cfg}
    default = TrainConfig.loss
    use_astra = cfg["astra"] == "on" if "astra" in cfg else default.use_astra
    return TrainConfig(loss=LossKind(cfg.get("loss", default.variant), use_astra),
                       **given)


def _manifest(command: str, cfg: dict, tcfg: TrainConfig, loss: bool) -> dict:
    """The options given plus every TrainConfig field at its resolved value,
    the loss (if `loss`) under the option names loss/astra."""
    manifest = {"command": command, "environment": environment(), **cfg,
                **vars(tcfg)}
    del manifest["loss"]
    if loss:
        manifest.update(loss=tcfg.loss.variant,
                        astra="on" if tcfg.loss.use_astra else "off")
    return manifest


def cmd_train(cfg: dict) -> int:
    out = Path(cfg["out"])
    tcfg = _train_config(cfg)
    k = cfg.get("folds", experiment.FOLDS)
    ds = _load_dataset(cfg["dataset"])
    experiment.check_protocol(ds, k, None, 1, 1)
    train_ds, val_ds, test_ds = experiment.split(ds, k, tcfg.seed, 0, 0)

    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "manifest.json", _manifest("train", cfg, tcfg, True))
    snapshot, records = train(tcfg, train_ds, val_ds)
    save_checkpoint(snapshot.model, out / "checkpoint.json")
    write_epoch_csv(records, out / "epochs.csv")

    run = vars(experiment.score(snapshot, test_ds, tcfg.loss.name, 0, 0))
    summary = {key: run[key] for key in ("best_epoch", "val_fnr_apx",
                                         "diverged", "final_b", "final_tau")}
    summary.update(test_cm={key: run[key] for key in ("tn", "fp", "fn", "tp")},
                   test_g_mean=run["g_mean"], test_mcc=run["mcc"])
    _write_json(out / "summary.json", summary)
    return 0


def cmd_cv(cfg: dict) -> int:
    out = Path(cfg["out"])
    tcfg = _train_config(cfg)
    if "loss" in cfg:
        methods = [tcfg.loss]
    else:   # all four, or the two with the ASTra setting given
        methods = [kind for kind in ALL_KINDS if "astra" not in cfg
                   or kind.use_astra == tcfg.loss.use_astra]
    k = cfg.get("folds", experiment.FOLDS)
    repeats = cfg.get("repeats", experiment.REPEATS)
    keep_positives = cfg.get("keep_positives")
    ds = _load_dataset(cfg["dataset"])
    jobs = cfg.get("jobs", 1)
    experiment.check_protocol(ds, k, keep_positives, repeats, len(methods), jobs)

    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "manifest.json", _manifest("cv", cfg, tcfg, "loss" in cfg))
    results = experiment.run_cv(ds, tcfg, methods, repeats=repeats, k=k,
                                keep_positives=keep_positives, jobs=jobs)
    experiment.write_run_csv(results, out / "runs.csv")
    return _report(results, out, out / "runs.csv")


def _report(results, out: Path, runs_csv, show: bool = False) -> int:
    """Write the report of `results` under `out`, made once the report is
    built, and print its table if `show`; EXIT_RUNS_FAILED if a run failed."""
    report = experiment.determine_winners(results)
    table = experiment.render_table(report)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "report.json", report)
    (out / "table.txt").write_text(table)
    if show:
        print(table)
    failed = sum(r.error is not None for r in results)
    if failed:
        print(f"{failed} run(s) failed; see the error column of {runs_csv}",
              file=sys.stderr)
    return EXIT_RUNS_FAILED if failed else 0


def cmd_undersample(cfg: dict) -> int:
    out = Path(cfg["out"])
    seed = cfg.get("seed", TrainConfig.seed)
    if seed < 0:        # as TrainConfig rejects it for train and cv
        raise ValueError(f"seed must be >= 0, got {seed}")
    ds = _load_dataset(cfg["dataset"])
    keep = cfg["keep_positives"]
    reduced, kept_idx = undersample_minority(ds, keep, seed=[seed, 0, 101])
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "manifest.json", {"command": "undersample",
                                        "environment": environment(), **cfg})
    write_sparse(out / "undersampled.txt", reduced.X, reduced.y)
    _write_json(out / "kept_positives.json", {
        "kept_positive_rows": [int(i) for i in kept_idx],
        "m_tot": reduced.m_tot,
        "m_1": reduced.m1,
        "ir": reduced.ir,
    })
    return 0


def cmd_report(cfg: dict) -> int:
    results = experiment.read_run_csv(cfg["runs"])
    return _report(results, Path(cfg["out"]), cfg["runs"], show=True)


# The option table.  TYPES gives each option's type: the TrainConfig fields
# (whose loss is set by a choice), the protocol integers, and the paths and
# choices, which stay uncast strings (a number is no path).
CHOICES = {"loss": tuple(dict.fromkeys(kind.variant for kind in ALL_KINDS)),
           "astra": ("on", "off")}
TYPES = (field_types(TrainConfig)
         | dict.fromkeys(("folds", "repeats", "keep_positives", "jobs"), int)
         | dict.fromkeys(("out", "dataset", "runs", *CHOICES), str))
HELP = {"config": "JSON config file; flags override it",
        "out": "output directory", "runs": "per-run results CSV"}
# Each command's function, help text and flags besides --config and --out,
# in the order --help lists them.
COMMANDS = {
    "train": (cmd_train, "train one model on one dataset",
              ("seed", "dataset", "loss", "astra", "epochs", "folds", "n_h")),
    "cv": (cmd_cv, "repeated stratified cross-validation",
           ("seed", "dataset", "loss", "astra", "epochs", "repeats", "folds",
            "keep_positives", "jobs")),
    "undersample": (cmd_undersample, "minority-undersample a dataset",
                    ("seed", "dataset", "keep_positives")),
    "report": (cmd_report, "rebuild a report from a runs CSV", ("runs",)),
}
# The options each command needs besides --out, checked once the config file
# is merged.
REQUIRED = {"train": ("dataset",), "cv": ("dataset",),
            "undersample": ("dataset", "keep_positives"), "report": ("runs",)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="astra",
        description="Imbalanced binary classification with an asymmetric "
                    "output activation and confusion-matrix losses.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help=HELP["config"])
        for key in ("out", *flags):
            p.add_argument("--" + key.replace("_", "-"), type=TYPES[key],
                           choices=CHOICES.get(key), help=HELP.get(key))
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        for key in ("out", *REQUIRED[args.command]):
            if cfg.get(key) in (None, ""):
                parser.error(f"--{key.replace('_', '-')} is required")
        return args.func(cfg)
    except DataFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
