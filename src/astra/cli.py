"""Command-line entry point: train / cv / undersample / report.

Configuration comes from an optional JSON config file plus flag overrides
(flags win).  Every command writes a manifest with the fully resolved
configuration and seed so outputs can be reproduced bit-exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

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
    """Merge config file values under CLI flags; flags take precedence."""
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg.update(json.load(fh))
    for key, value in vars(args).items():
        if key in ("config", "func", "command"):
            continue
        if value is not None:
            cfg[key] = value
    return cfg


def _train_config(cfg: dict, loss: LossKind, seed) -> TrainConfig:
    return TrainConfig(
        epochs=int(cfg.get("epochs", 10000)),
        eta=float(cfg.get("eta", 0.001)),
        eta_b_min=float(cfg.get("eta_b_min", 0.01)),
        eta_b_max=float(cfg.get("eta_b_max", 0.5)),
        k_mult=float(cfg.get("k_mult", 1.1)),
        k_dec=float(cfg.get("k_dec", 0.99)),
        tau_init=float(cfg.get("tau_init", 0.25)),
        loss=loss,
        seed=seed,
        n_h=cfg.get("n_h"),
    )


def _loss_kind(cfg: dict) -> LossKind:
    return LossKind(variant=cfg.get("loss", "bce"),
                    use_astra=cfg.get("astra", "off") == "on")


def cmd_train(cfg: dict) -> int:
    out = Path(cfg["out"])
    ds = _load_dataset(cfg["dataset"])
    seed = int(cfg.get("seed", 0))
    k = int(cfg.get("folds", 5))
    kind = _loss_kind(cfg)
    tcfg = _train_config(cfg, kind, seed)

    plan = stratified_folds(ds, k, seed=[seed, 0, 202])
    train_ds, val_ds, test_ds = fold_split(ds, plan, test_fold=0, val_fold=1)
    train_ds, (val_ds, test_ds), _, _ = standardize(train_ds, [val_ds, test_ds])

    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "manifest.json", {"command": "train", **cfg})
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
    ds = _load_dataset(cfg["dataset"])
    seed = int(cfg.get("seed", 0))
    if "loss" in cfg:
        methods = [_loss_kind(cfg)]
    else:
        methods = list(ALL_KINDS)
    tcfg = _train_config(cfg, methods[0], seed)
    k = int(cfg.get("folds", 5))
    keep_positives = cfg.get("keep_positives")
    experiment.check_protocol(ds, k, keep_positives)

    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "manifest.json", {"command": "cv", **cfg})
    results = experiment.run_cv(
        ds, tcfg, methods,
        repeats=int(cfg.get("repeats", 10)),
        k=k,
        base_seed=seed,
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
    p_train.add_argument("--loss", choices=["bce", "gmn"])
    p_train.add_argument("--astra", choices=["on", "off"])
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--folds", type=int)
    p_train.add_argument("--n-h", dest="n_h", type=int)
    p_train.set_defaults(func=cmd_train)

    p_cv = sub.add_parser("cv", help="repeated stratified cross-validation")
    common(p_cv)
    p_cv.add_argument("--dataset")
    p_cv.add_argument("--loss", choices=["bce", "gmn"])
    p_cv.add_argument("--astra", choices=["on", "off"])
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
    cfg = _resolve(args)
    if not cfg.get("out"):
        parser.error("--out is required")
    try:
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
