"""Command-line entry point: train / cv / undersample / report.

Configuration comes from an optional JSON config file plus flag overrides
(flags win).  Every command writes a manifest, itself a valid config file,
with the fully resolved configuration so outputs can be reproduced bit-exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import experiment
from .data import (
    DataFormatError,
    Dataset,
    fold_split,
    orient_labels,
    parse_csv,
    parse_sparse,
    standardize,
    stratified_folds,
    undersample_minority,
    write_sparse,
)
from .losses import ALL_KINDS, LossKind
from .metrics import counting_cm, g_mean, mcc
from .network import predict_labels, save_checkpoint
from .trainer import TrainConfig, train, write_epoch_csv

# Exit codes besides 0 (success): 2 parse error, 3 i/o error, 4 invalid
# configuration, and this one: `cv` finished and wrote its outputs, but at
# least one run failed.
EXIT_RUNS_FAILED = 5

# Allowed values of the string options, from a flag or a config file.
CHOICES = {"loss": ("bce", "gmn"), "astra": ("on", "off")}


def _load_dataset(path: str) -> Dataset:
    p = Path(path)
    if not p.exists():
        raise DataFormatError(f"dataset not found: {path}")
    raw = parse_csv(p) if p.suffix == ".csv" else parse_sparse(p)
    return orient_labels(raw)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve(args: argparse.Namespace) -> dict:
    """Merge config file values under CLI flags (flags win).  A config file
    may set only what a flag of the command or a TrainConfig field names."""
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
        cfg.pop("command", None)    # a manifest names the command that wrote it
    unknown = set(cfg) - set(flags) - {f.name for f in fields(TrainConfig)}
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    cfg.update((k, v) for k, v in flags.items() if v is not None)
    for key, allowed in CHOICES.items():
        if cfg.get(key, allowed[0]) not in allowed:
            raise ValueError(f"{key} must be one of {allowed}, got {cfg[key]!r}")
    return cfg


def _train_config(cfg: dict) -> TrainConfig:
    """The TrainConfig the options set: each given field cast to its type
    (`int | None` to int), every other field at its default."""
    types = get_type_hints(TrainConfig)
    given = {}
    for f in fields(TrainConfig):
        value = cfg.get(f.name)
        if f.name != "loss" and value is not None:
            kind = (get_args(types[f.name]) or [types[f.name]])[0]
            try:
                given[f.name] = kind(value)
            except (TypeError, ValueError):
                raise ValueError(f"{f.name} must be {kind.__name__}, "
                                 f"got {value!r}") from None
    return TrainConfig(loss=_loss_kind(cfg), **given)


def _loss_kind(cfg: dict) -> LossKind:
    """The method the loss/astra options name, TrainConfig's by default."""
    default = TrainConfig.loss
    use_astra = cfg["astra"] == "on" if "astra" in cfg else default.use_astra
    return LossKind(cfg.get("loss", default.variant), use_astra)


def _manifest(command: str, cfg: dict, tcfg: TrainConfig, loss: bool) -> dict:
    """The options given plus every TrainConfig field at its resolved value,
    the loss (if `loss`) under the option names loss/astra."""
    manifest = {"command": command, **cfg, **vars(tcfg)}
    del manifest["loss"]
    if loss:
        manifest.update(loss=tcfg.loss.variant,
                        astra="on" if tcfg.loss.use_astra else "off")
    return manifest


def cmd_train(cfg: dict) -> int:
    out = Path(cfg["out"])
    tcfg = _train_config(cfg)
    k = int(cfg.get("folds", 5))
    ds = _load_dataset(cfg["dataset"])

    plan = stratified_folds(ds, k, seed=[tcfg.seed, 0, 202])
    train_ds, val_ds, test_ds = fold_split(ds, plan, test_fold=0, val_fold=1)
    train_ds, (val_ds, test_ds), _, _ = standardize(train_ds, [val_ds, test_ds])

    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "manifest.json", _manifest("train", cfg, tcfg, True))
    snapshot, records = train(tcfg, train_ds, val_ds)
    save_checkpoint(snapshot.model, out / "checkpoint.json")
    write_epoch_csv(records, out / "epochs.csv")

    labels = predict_labels(snapshot.model, test_ds.X)
    cm = counting_cm(labels, test_ds.y)
    summary = {
        "best_epoch": snapshot.epoch,
        "val_fnr_apx": snapshot.val_fnr_apx,
        "diverged": snapshot.diverged,
        "test_cm": {"tn": cm.tn, "fp": cm.fp, "fn": cm.fn, "tp": cm.tp},
        "test_g_mean": g_mean(cm) if test_ds.m1 and test_ds.m0 else None,
        "test_mcc": mcc(cm),
        "final_b": snapshot.model.astra.b,
        "final_tau": snapshot.model.astra.tau,
    }
    _write_json(out / "summary.json", summary)
    return 0


def cmd_cv(cfg: dict) -> int:
    out = Path(cfg["out"])
    tcfg = _train_config(cfg)
    methods = [tcfg.loss] if "loss" in cfg else list(ALL_KINDS)
    k = int(cfg.get("folds", 5))
    repeats = int(cfg.get("repeats", 10))
    keep_positives = cfg.get("keep_positives")
    ds = _load_dataset(cfg["dataset"])
    experiment.check_protocol(ds, k, keep_positives, repeats, len(methods))

    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "manifest.json", _manifest("cv", cfg, tcfg, "loss" in cfg))
    results = experiment.run_cv(
        ds, tcfg, methods,
        repeats=repeats,
        k=k,
        base_seed=tcfg.seed,
        keep_positives=keep_positives,
        jobs=int(cfg.get("jobs", 1)),
    )
    experiment.write_run_csv(results, out / "runs.csv")
    report = experiment.determine_winners(results)
    _write_json(out / "report.json", experiment.report_to_dict(report))
    (out / "table.txt").write_text(experiment.render_table(report))
    failures = [r for r in results if r.error]
    if failures:
        print(f"{len(failures)} run(s) failed; see report", file=sys.stderr)
        return EXIT_RUNS_FAILED
    return 0


def cmd_undersample(cfg: dict) -> int:
    out = Path(cfg["out"])
    ds = _load_dataset(cfg["dataset"])
    keep = int(cfg["keep_positives"])
    seed = int(cfg.get("seed", 0))
    reduced, kept_idx = undersample_minority(ds, keep, seed=[seed, 0, 101])
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "manifest.json", {"command": "undersample", **cfg})
    write_sparse(out / "undersampled.txt", reduced.X, reduced.y)
    _write_json(out / "kept_positives.json", {
        "kept_positive_rows": [int(i) for i in kept_idx],
        "m_tot": reduced.m_tot,
        "m_1": reduced.m1,
        "ir": reduced.ir,
    })
    return 0


def cmd_report(cfg: dict) -> int:
    out = Path(cfg["out"])
    results = experiment.read_run_csv(cfg["runs"])
    report = experiment.determine_winners(results)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "report.json", experiment.report_to_dict(report))
    (out / "table.txt").write_text(experiment.render_table(report))
    print(experiment.render_table(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="astra",
        description="Imbalanced binary classification with an asymmetric "
                    "output activation and confusion-matrix losses.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int)

    p_train = sub.add_parser("train", help="train one model on one dataset")
    common(p_train)
    p_train.add_argument("--dataset")
    p_train.add_argument("--loss", choices=CHOICES["loss"])
    p_train.add_argument("--astra", choices=CHOICES["astra"])
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--folds", type=int)
    p_train.add_argument("--n-h", dest="n_h", type=int)
    p_train.set_defaults(func=cmd_train)

    p_cv = sub.add_parser("cv", help="repeated stratified cross-validation")
    common(p_cv)
    p_cv.add_argument("--dataset")
    p_cv.add_argument("--loss", choices=CHOICES["loss"])
    p_cv.add_argument("--astra", choices=CHOICES["astra"])
    p_cv.add_argument("--epochs", type=int)
    p_cv.add_argument("--repeats", type=int)
    p_cv.add_argument("--folds", type=int)
    p_cv.add_argument("--keep-positives", dest="keep_positives", type=int)
    p_cv.add_argument("--jobs", type=int)
    p_cv.set_defaults(func=cmd_cv)

    p_us = sub.add_parser("undersample", help="minority-undersample a dataset")
    common(p_us)
    p_us.add_argument("--dataset")
    p_us.add_argument("--keep-positives", dest="keep_positives", type=int)
    p_us.set_defaults(func=cmd_undersample)

    p_rep = sub.add_parser("report", help="rebuild a report from a runs CSV")
    common(p_rep)
    p_rep.add_argument("--runs", help="per-run results CSV")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        if not cfg.get("out"):
            parser.error("--out is required")
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
