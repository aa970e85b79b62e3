"""Repeated stratified cross-validation over the four training candidates,
aggregation of counting G-Mean/MCC, paired significance testing, and winner
determination.

Protocol: per repeat, optionally resample the retained minority positives,
build a stratified k-fold plan, and rotate test/validation folds through all
k positions; three folds train, one validates, one tests.  All methods share
the per-(repeat, fold) split and seed so results are paired.
"""

from __future__ import annotations

import itertools
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .data import (Dataset, fold_split, standardize, stratified_folds,
                   undersample_minority, write_records)
from .losses import LossKind
from .metrics import counting_cm, g_mean, mcc
from .network import predict_labels
from .trainer import Snapshot, TrainConfig, train

log = logging.getLogger(__name__)

P_THRESHOLD = 0.05
MIN_PAIRS = 5        # fewest paired observations compare() accepts
FOLDS = 5            # the paper's protocol: 10 repeats of 5-fold CV
REPEATS = 10
METRICS = {"g_mean": "G-Mean", "mcc": "MCC"}   # RunResult score -> table label


@dataclass(frozen=True)
class RunResult:
    """One CV run; its fields are the columns of runs.csv.  A failed run
    carries `error` and no scores."""
    method: str
    repeat: int
    fold: int
    tn: int | None = None
    fp: int | None = None
    fn: int | None = None
    tp: int | None = None
    g_mean: float | None = None
    mcc: float | None = None
    best_epoch: int | None = None
    final_b: float | None = None
    diverged: bool | None = None    # stopped early; the last good model scored
    final_tau: float | None = None
    val_fnr_apx: float | None = None
    error: str | None = None

    def __post_init__(self):
        scores = (self.g_mean, self.mcc)
        if self.error is None and None in scores:
            raise ValueError("a run without an error needs g_mean and mcc")
        if not all(s is None or math.isfinite(s) for s in scores):
            raise ValueError(f"scores must be finite: g_mean {self.g_mean}, "
                             f"mcc {self.mcc}")


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank test


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of `values`, ties sharing the mean of their ranks: a
    group of c equal values ending at sorted position e ranks e - (c-1)/2."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def wilcoxon_signed_rank(diffs) -> float:
    """Two-sided paired Wilcoxon signed-rank p-value from the exact null
    distribution: exact up to n = 53 pairs, float64-rounded above.

    Zero differences are dropped (none left gives p = 1).  The null
    distribution of 2*W+ over the 2^n sign assignments is a shift-convolution
    over the doubled midranks, held as probabilities halved at each rank:
    dyadic rationals.  It is symmetric about half its total, so p is twice
    the nearer tail, the only part built.  Cost: O(n^3).
    """
    d = np.asarray(diffs, dtype=float)
    d = d[d != 0.0]
    r2 = np.rint(2 * _midranks(np.abs(d))).astype(np.int64)
    w2 = int(r2[d > 0].sum())
    m = min(w2, int(r2.sum()) - w2)
    tail = np.zeros(m + 1)          # P(2*W+ = k) for k <= m
    tail[0] = 1.0
    for r in r2:
        if r <= m:
            tail[r:] += tail[:m + 1 - r]
        tail *= 0.5
    return min(1.0, 2.0 * float(tail.sum()))


def compare(a, b) -> float:
    """Paired two-sided Wilcoxon signed-rank p-value for two metric vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) != len(b):
        raise ValueError("paired vectors must have equal length")
    if len(a) < MIN_PAIRS:
        raise ValueError(f"need at least {MIN_PAIRS} paired observations")
    for name, v in (("a", a), ("b", b)):
        if not np.isfinite(v).all():
            raise ValueError(f"scores must be finite: {name} holds "
                             f"{v[~np.isfinite(v)].tolist()}")
    return wilcoxon_signed_rank(a - b)


# ---------------------------------------------------------------------------
# Cross-validation


def score(snapshot: Snapshot, test_ds: Dataset, method: str, repeat: int,
          fold: int) -> RunResult:
    """The RunResult of a trained run: the counting CM of the snapshot's
    labels on `test_ds`, its G-Mean and MCC, and the snapshot's health."""
    labels = predict_labels(snapshot.model, test_ds.X)
    cm, astra = counting_cm(labels, test_ds.y), snapshot.model.astra
    return RunResult(method, repeat, fold, **vars(cm), g_mean=g_mean(cm),
                     mcc=mcc(cm), best_epoch=snapshot.epoch, final_b=astra.b,
                     diverged=snapshot.diverged, final_tau=astra.tau,
                     val_fnr_apx=snapshot.val_fnr_apx)


def check_protocol(ds: Dataset, k: int, keep_positives: int | None,
                   repeats: int, n_methods: int, jobs: int = 1) -> None:
    """Reject a protocol that cannot give a report: every fold serves once as
    the validation fold, which needs a positive, and the paired tests of two
    or more methods need MIN_PAIRS runs each.  At least one job runs it."""
    if k < 3:    # a rotation takes a test, a validation and a train fold
        raise ValueError(f"need at least 3 folds, got {k}")
    m1 = ds.m1 if keep_positives is None else keep_positives
    if m1 > ds.m1:      # below 1, it fails the fold count next
        raise ValueError(f"keep must be in [1, {ds.m1}], got {m1}")
    if m1 < k:
        raise ValueError(f"{k} folds need at least {k} positives, got {m1}")
    if repeats < 1:
        raise ValueError(f"need at least 1 repeat, got {repeats}")
    if n_methods > 1 and repeats * k < MIN_PAIRS:
        raise ValueError(f"paired tests need repeats * folds >= {MIN_PAIRS}")
    if jobs < 1:
        raise ValueError(f"need at least 1 job, got {jobs}")


def split(ds: Dataset, k: int, seed: int, repeat: int, fold: int):
    """(train, val, test) of one rotation: repeat `repeat`'s stratified
    k-fold plan of `ds`, test fold `fold`, validation fold the next one,
    all three standardized by the train set's statistics."""
    plan = stratified_folds(ds, k, seed=[seed, repeat, 202])
    train_ds, val_ds, test_ds = fold_split(ds, plan, fold, (fold + 1) % k)
    train_ds, (val_ds, test_ds) = standardize(train_ds, [val_ds, test_ds])
    return train_ds, val_ds, test_ds


def undersample(ds: Dataset, keep: int, seed: int, repeat: int):
    """(reduced dataset, kept positive rows) of repeat `repeat`: `keep` of
    the positives of `ds`, drawn from the seed [seed, repeat, 101]."""
    return undersample_minority(ds, keep, seed=[seed, repeat, 101])


def _run_rotation(ds: Dataset, cfg: TrainConfig, methods, k, keep_positives, key):
    """One RunResult per method for rotation `key` = (repeat, fold), built in
    the worker from `ds` alone: the repeat's undersample, the rotation's
    split, then each method trained from the seed [cfg.seed, repeat, fold]."""
    repeat, fold = key
    if keep_positives is not None:
        ds, _ = undersample(ds, keep_positives, cfg.seed, repeat)
    train_ds, val_ds, test_ds = split(ds, k, cfg.seed, repeat, fold)
    results = []
    for kind in methods:
        cfg_run = replace(cfg, loss=kind, seed=[cfg.seed, repeat, fold])
        try:
            snapshot, _ = train(cfg_run, train_ds, val_ds)
            results.append(score(snapshot, test_ds, kind.name, repeat, fold))
        except Exception as exc:  # failed runs are recorded, never dropped
            log.warning("run (%s, repeat %d, fold %d) failed: %s",
                        kind.name, repeat, fold, exc)
            results.append(RunResult(kind.name, repeat, fold,
                                     error=f"{type(exc).__name__}: {exc}"))
    return results


def _rotate(key):
    """_run_rotation(*_rotate.args, key) in a pool worker, whose initializer
    sets _rotate.args: the dataset reaches each worker once, not with every
    task."""
    return _run_rotation(*_rotate.args, key)


def run_cv(ds: Dataset, cfg: TrainConfig, methods: list[LossKind],
           repeats: int = REPEATS, k: int = FOLDS,
           keep_positives: int | None = None, jobs: int = 1) -> list[RunResult]:
    """repeats x k cross-validation of every method on one dataset.

    Returns repeats*k RunResults per method, deterministically ordered by
    (method, repeat, fold) and reproducible for a fixed cfg.seed regardless
    of the worker count.  A task is one (repeat, fold) key: _run_rotation.
    The pool starts no more workers than there are keys.
    """
    check_protocol(ds, k, keep_positives, repeats, len(methods), jobs)
    args = (ds, cfg, methods, k, keep_positives)
    keys = list(itertools.product(range(repeats), range(k)))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(keys)),
                                 initializer=partial(setattr, _rotate, "args"),
                                 initargs=(args,)) as pool:
            per_key = list(pool.map(_rotate, keys, chunksize=1))
    else:
        per_key = map(partial(_run_rotation, *args), keys)
    return sorted(itertools.chain.from_iterable(per_key),
                  key=lambda r: (r.method, r.repeat, r.fold))


def _scores(results: list[RunResult]) -> dict:
    """method (sorted) -> metric -> scores over the (repeat, fold) keys where
    no method failed, in key order, so that vectors pair run for run.  A key
    that a method has twice or lacks while another has it: ValueError."""
    if not results:
        raise ValueError("no results to aggregate")
    runs: dict = {}
    for r in results:
        by_key, key = runs.setdefault(r.method, {}), (r.repeat, r.fold)
        if key in by_key:
            raise ValueError(f"{r.method} has two runs of (repeat, fold) {key}")
        by_key[key] = r
    keys = set().union(*runs.values())
    for method, by_key in runs.items():
        if len(by_key) != len(keys):
            raise ValueError(f"{method} lacks (repeat, fold) {min(keys - set(by_key))}")
    kept = sorted(k for k in keys if all(rs[k].error is None for rs in runs.values()))
    return {method: {metric: np.array([getattr(runs[method][k], metric) for k in kept])
                     for metric in METRICS}
            for method in sorted(runs)}


def _mean_sd(v: np.ndarray) -> dict:
    if not len(v):    # a failed run on every key
        return {"mean": None, "sd": None}
    return {"mean": float(v.mean()), "sd": float(v.std(ddof=1)) if len(v) > 1 else 0.0}


def determine_winners(results: list[RunResult]) -> dict:
    """The report, as report.json holds it: `methods` (sorted), `stats`
    (method -> metric -> the "mean" and sample "sd" of its scores),
    `p_values` (metric -> "a|b" -> paired Wilcoxon p of each pair a < b)
    and `winners` (metric -> method -> "winner" | "tie" | "").

    A method is a sole winner when its mean is highest and every pairwise
    comparison against it has p <= P_THRESHOLD; methods not separable from
    the best are co-flagged as ties.  With fewer than MIN_PAIRS (repeat,
    fold) keys free of failed runs every p is None and no method is flagged.
    """
    scores = _scores(results)
    stats = {method: {metric: _mean_sd(v) for metric, v in by_metric.items()}
             for method, by_metric in scores.items()}
    methods = list(scores)
    testable = len(scores[methods[0]]["g_mean"]) >= MIN_PAIRS
    p_values: dict = {}
    winners: dict = {}
    for metric in METRICS:
        p_values[metric] = pvals = {
            f"{a}|{b}": compare(scores[a][metric], scores[b][metric]) if testable
            else None for a, b in itertools.combinations(methods, 2)}
        best = max(methods, key=lambda m: stats[m][metric]["mean"]) if testable else None
        tied = {m for m in methods if testable and (
            m == best or pvals["|".join(sorted((best, m)))] > P_THRESHOLD)}
        winners[metric] = {m: ("winner" if len(tied) == 1 else "tie")
                           if m in tied else "" for m in methods}
    return {"methods": methods, "stats": stats, "p_values": p_values,
            "winners": winners}


# ---------------------------------------------------------------------------
# Serialization


def write_run_csv(results: list[RunResult], path) -> None:
    write_records(results, RunResult, path)


def render_table(report: dict) -> str:
    """Aligned plain-text table: mean (sd) per cell, * winner, = tie."""
    marker = {"winner": "*", "tie": "=", "": " "}
    methods = report["methods"]
    width = max(18, max(len(m) for m in methods) + 4)
    lines = ["".ljust(8) + "".join(m.ljust(width) for m in methods)]
    for metric, label in METRICS.items():
        cells = []
        for m in methods:
            s = report["stats"][m][metric]
            cell = "n/a" if s["mean"] is None else f"{s['mean']:.3f} ({s['sd']:.3f})"
            cells.append((cell + marker[report["winners"][metric][m]]).ljust(width))
        lines.append(label.ljust(8) + "".join(cells))
    lines += ["", f"* winner (outperforms every competitor at p <= {P_THRESHOLD})",
              f"= tie (not separable from the best at p <= {P_THRESHOLD})"]
    return "\n".join(lines) + "\n"
