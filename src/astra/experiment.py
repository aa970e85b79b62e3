"""Repeated stratified cross-validation over the four training candidates,
aggregation of counting G-Mean/MCC, paired significance testing, and winner
determination.

Protocol: per repeat, optionally resample the retained minority positives,
build a stratified k-fold plan, and rotate test/validation folds through all
k positions; three folds train, one validates, one tests.  All methods share
the per-(repeat, fold) seeds so results are paired.
"""

from __future__ import annotations

import itertools
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .data import (DataFormatError, Dataset, fold_split, standardize,
                   stratified_folds, undersample_minority)
from .losses import LossKind
from .metrics import CountCM, counting_cm, g_mean, mcc
from .network import predict_labels
from .trainer import TrainConfig, train

log = logging.getLogger(__name__)

P_THRESHOLD = 0.05
MIN_PAIRS = 5        # fewest paired observations compare() accepts
EXACT_MAX = 62       # most differences whose 2^n sign assignments fit int64
FOLDS = 5            # the paper's protocol: 10 repeats of 5-fold CV
REPEATS = 10
METRICS = {"g_mean": "G-Mean", "mcc": "MCC"}   # RunResult score -> table label


@dataclass(frozen=True)
class RunResult:
    repeat: int
    fold: int
    method: str
    test_cm: CountCM
    g_mean: float
    mcc: float
    best_epoch: int
    final_b: float
    error: str | None = None


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank test


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of `values`, ties sharing the mean of their ranks: a
    group of c equal values ending at sorted position e ranks e - (c-1)/2."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def wilcoxon_signed_rank(diffs, exact_limit: int = 50) -> float:
    """Two-sided paired Wilcoxon signed-rank p-value.

    Zero differences are dropped (all-zero input gives p = 1).  Exact null
    distribution (shift-convolution over signed midranks) for up to
    ``exact_limit`` non-zero differences, normal approximation with tie
    correction and continuity correction above.  The default covers the
    50 pairs of 10 x 5-fold CV; the exact counts are int64, so at most 62
    differences take the exact path whatever the limit.
    """
    d = np.asarray(diffs, dtype=float)
    d = d[d != 0.0]
    n = len(d)
    if n == 0:
        return 1.0
    ranks = _midranks(np.abs(d))
    w_pos = float(np.sum(ranks[d > 0]))

    if n <= min(exact_limit, EXACT_MAX):
        # Distribution of 2*W+ over all 2^n sign assignments; no count
        # exceeds 2^n.
        r2 = np.rint(2 * ranks).astype(np.int64)
        counts = np.zeros(r2.sum() + 1, dtype=np.int64)
        counts[0] = 1
        for r in r2:
            counts[r:] = counts[r:] + counts[:len(counts) - r]
        w2 = int(round(2 * w_pos))
        p_le = int(counts[: w2 + 1].sum())
        p_ge = int(counts[w2:].sum())
        return min(1.0, 2.0 * min(p_le, p_ge) / 2 ** n)

    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    # Tie correction on the midranks.
    _, tie_counts = np.unique(ranks, return_counts=True)
    var -= np.sum(tie_counts ** 3 - tie_counts) / 48.0
    if var <= 0:
        return 1.0
    z = (abs(w_pos - mean) - 0.5) / math.sqrt(var)
    return min(1.0, 2.0 * 0.5 * math.erfc(max(z, 0.0) / math.sqrt(2.0)))


def compare(a, b) -> float:
    """Paired two-sided Wilcoxon signed-rank p-value for two metric vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) != len(b):
        raise ValueError("paired vectors must have equal length")
    if len(a) < MIN_PAIRS:
        raise ValueError(f"need at least {MIN_PAIRS} paired observations")
    return wilcoxon_signed_rank(a - b)


# ---------------------------------------------------------------------------
# Cross-validation


def _run_single(args):
    (repeat, fold, kind, cfg, train_ds, val_ds, test_ds) = args
    method = kind.name
    try:
        snapshot, _ = train(cfg, train_ds, val_ds)
        labels = predict_labels(snapshot.model, test_ds.X)
        cm = counting_cm(labels, test_ds.y)
        return RunResult(repeat=repeat, fold=fold, method=method, test_cm=cm,
                         g_mean=g_mean(cm), mcc=mcc(cm), best_epoch=snapshot.epoch,
                         final_b=snapshot.model.astra.b)
    except Exception as exc:  # failed runs are recorded, never dropped
        log.warning("run (%s, repeat %d, fold %d) failed: %s",
                    method, repeat, fold, exc)
        return RunResult(repeat=repeat, fold=fold, method=method,
                         test_cm=CountCM(0, 0, 0, 0), g_mean=0.0, mcc=0.0,
                         best_epoch=0, final_b=1.0, error=str(exc))


def check_protocol(ds: Dataset, k: int, keep_positives: int | None,
                   repeats: int, n_methods: int) -> None:
    """Reject a protocol that cannot give a report: every fold serves once as
    the validation fold, which needs a positive, and the paired tests of two
    or more methods need MIN_PAIRS runs each."""
    if k < 3:    # a rotation takes a test, a validation and a train fold
        raise ValueError(f"need at least 3 folds, got {k}")
    m1 = ds.m1 if keep_positives is None else min(ds.m1, keep_positives)
    if m1 < k:
        raise ValueError(f"{k} folds need at least {k} positives, got {m1}")
    if repeats < 1:
        raise ValueError(f"need at least 1 repeat, got {repeats}")
    if n_methods > 1 and repeats * k < MIN_PAIRS:
        raise ValueError(f"paired tests need repeats * folds >= {MIN_PAIRS}")


def split(ds: Dataset, k: int, seed: int, repeat: int, fold: int):
    """(train, val, test) of one rotation: repeat `repeat`'s stratified
    k-fold plan of `ds`, test fold `fold`, validation fold the next one,
    all three standardized by the train set's statistics."""
    plan = stratified_folds(ds, k, seed=[seed, repeat, 202])
    train_ds, val_ds, test_ds = fold_split(ds, plan, fold, (fold + 1) % k)
    train_ds, (val_ds, test_ds), _, _ = standardize(train_ds, [val_ds, test_ds])
    return train_ds, val_ds, test_ds


def run_cv(ds: Dataset, cfg: TrainConfig, methods: list[LossKind],
           repeats: int = REPEATS, k: int = FOLDS, base_seed: int = 0,
           keep_positives: int | None = None, jobs: int = 1) -> list[RunResult]:
    """repeats x k cross-validation of every method on one dataset.

    Returns repeats*k RunResults per method, deterministically ordered by
    (method, repeat, fold) and reproducible for a fixed base seed regardless
    of the worker count.
    """
    check_protocol(ds, k, keep_positives, repeats, len(methods))
    tasks = []
    for repeat in range(repeats):
        ds_r = ds
        if keep_positives is not None:
            ds_r, _ = undersample_minority(ds, keep_positives,
                                           seed=[base_seed, repeat, 101])
        for fold in range(k):
            sets = split(ds_r, k, base_seed, repeat, fold)   # train, val, test
            for kind in methods:
                cfg_run = replace(cfg, loss=kind, seed=[base_seed, repeat, fold])
                tasks.append((repeat, fold, kind, cfg_run, *sets))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_single, tasks, chunksize=1))
    else:
        results = [_run_single(t) for t in tasks]
    results.sort(key=lambda r: (r.method, r.repeat, r.fold))
    return results


def _scores(results: list[RunResult]) -> dict:
    """method -> metric -> the method's scores ordered by (repeat, fold), so
    that two methods' vectors pair run for run; methods sorted."""
    if not results:
        raise ValueError("no results to aggregate")
    runs: dict = {}
    for r in sorted(results, key=lambda r: (r.method, r.repeat, r.fold)):
        runs.setdefault(r.method, []).append(r)
    return {method: {metric: np.array([getattr(r, metric) for r in rs])
                     for metric in METRICS}
            for method, rs in runs.items()}


def _stats(scores: dict) -> dict:
    return {method: {metric: {"mean": float(v.mean()),
                              "sd": float(v.std(ddof=1)) if len(v) > 1 else 0.0}
                     for metric, v in by_metric.items()}
            for method, by_metric in scores.items()}


def aggregate(results: list[RunResult]) -> dict:
    """method -> metric -> {"mean", "sd"}: the mean and sample standard
    deviation of each method's scores."""
    return _stats(_scores(results))


def determine_winners(results: list[RunResult]) -> dict:
    """The report, as report.json holds it: `methods` (sorted), `stats` (as
    `aggregate`), `p_values` (metric -> "a|b" -> paired Wilcoxon p of each
    pair a < b) and `winners` (metric -> method -> "winner" | "tie" | "").

    A method is a sole winner when its mean is highest and every pairwise
    comparison against it has p <= 0.05; methods not separable from the best
    are co-flagged as ties.
    """
    scores = _scores(results)
    stats = _stats(scores)
    methods = list(scores)
    p_values: dict = {}
    winners: dict = {}
    for metric in METRICS:
        pvals = {f"{a}|{b}": compare(scores[a][metric], scores[b][metric])
                 for a, b in itertools.combinations(methods, 2)}
        p_values[metric] = pvals
        best = max(methods, key=lambda m: stats[m][metric]["mean"])
        tied = {m for m in methods
                if m == best or pvals["|".join(sorted((best, m)))] > P_THRESHOLD}
        winners[metric] = {m: ("winner" if len(tied) == 1 else "tie")
                           if m in tied else "" for m in methods}
    return {"methods": methods, "stats": stats, "p_values": p_values,
            "winners": winners}


# ---------------------------------------------------------------------------
# Serialization


RUN_CSV_HEADER = "method,repeat,fold,tn,fp,fn,tp,g_mean,mcc,best_epoch,final_b"


def write_run_csv(results: list[RunResult], path) -> None:
    with open(path, "w") as fh:
        fh.write(RUN_CSV_HEADER + "\n")
        for r in results:
            cm = r.test_cm
            fh.write(",".join([
                r.method, str(r.repeat), str(r.fold),
                str(cm.tn), str(cm.fp), str(cm.fn), str(cm.tp),
                repr(r.g_mean), repr(r.mcc), str(r.best_epoch),
                repr(r.final_b),
            ]) + "\n")


def read_run_csv(path) -> list[RunResult]:
    """The results `write_run_csv` wrote.  A wrong header, a line without
    one value per column or a value that does not cast raises
    DataFormatError naming the path and line."""
    width = len(RUN_CSV_HEADER.split(","))
    results = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != RUN_CSV_HEADER:
            raise DataFormatError(f"{path} line 1: unexpected header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if parts == [""]:
                continue
            if len(parts) != width:
                raise DataFormatError(f"{path} line {lineno}: expected "
                                      f"{width} values, got {len(parts)}")
            try:
                results.append(RunResult(
                    method=parts[0], repeat=int(parts[1]), fold=int(parts[2]),
                    test_cm=CountCM(*map(int, parts[3:7])),    # tn,fp,fn,tp
                    g_mean=float(parts[7]), mcc=float(parts[8]),
                    best_epoch=int(parts[9]), final_b=float(parts[10])))
            except ValueError as exc:
                raise DataFormatError(f"{path} line {lineno}: {exc}") from None
    return results


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
            flag = marker[report["winners"][metric][m]]
            cells.append(f"{s['mean']:.3f} ({s['sd']:.3f}){flag}".ljust(width))
        lines.append(label.ljust(8) + "".join(cells))
    lines += ["", "* winner (outperforms every competitor at p <= 0.05)",
              "= tie (not separable from the best at p <= 0.05)"]
    return "\n".join(lines) + "\n"
