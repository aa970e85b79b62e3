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

from .data import Dataset, fold_split, standardize, stratified_folds, undersample_minority
from .losses import LossKind
from .metrics import CountCM, counting_cm, g_mean, mcc
from .network import predict_labels
from .trainer import TrainConfig, train

log = logging.getLogger(__name__)

P_THRESHOLD = 0.05
MIN_PAIRS = 5        # fewest paired observations compare() accepts


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


@dataclass(frozen=True)
class MethodStats:
    mean_g_mean: float
    sd_g_mean: float
    mean_mcc: float
    sd_mcc: float


@dataclass(frozen=True)
class CvReport:
    methods: tuple[str, ...]
    stats: dict                 # method -> MethodStats
    p_values: dict              # metric -> {(a, b) -> p}
    winners: dict               # metric -> {method -> "winner" | "tie" | ""}


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank test


def _midranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    sorted_vals = values[order]
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def wilcoxon_signed_rank(diffs, exact_limit: int = 25) -> float:
    """Two-sided paired Wilcoxon signed-rank p-value.

    Zero differences are dropped (all-zero input gives p = 1).  Exact null
    distribution (shift-convolution over signed midranks) for up to
    ``exact_limit`` non-zero differences, normal approximation with tie
    correction and continuity correction above.
    """
    d = np.asarray(diffs, dtype=float)
    d = d[d != 0.0]
    n = len(d)
    if n == 0:
        return 1.0
    ranks = _midranks(np.abs(d))
    w_pos = float(np.sum(ranks[d > 0]))

    if n <= exact_limit:
        # Distribution of 2*W+ over all 2^n sign assignments.
        r2 = np.rint(2 * ranks).astype(int)
        total = r2.sum()
        counts = np.zeros(total + 1, dtype=object)
        counts[0] = 1
        for r in r2:
            shifted = np.zeros_like(counts)
            shifted[r:] = counts[:len(counts) - r]
            counts = counts + shifted
        w2 = int(round(2 * w_pos))
        n_total = 2 ** n
        p_le = sum(counts[: w2 + 1])
        p_ge = sum(counts[w2:])
        return min(1.0, 2.0 * min(p_le, p_ge) / n_total)

    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    # Tie correction on the midranks.
    _, tie_counts = np.unique(ranks, return_counts=True)
    var -= np.sum(tie_counts ** 3 - tie_counts) / 48.0
    if var <= 0:
        return 1.0
    delta = w_pos - mean
    z = (abs(delta) - 0.5) / math.sqrt(var)
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
        try:
            gm = g_mean(cm)
        except ValueError:
            gm = 0.0
        return RunResult(repeat=repeat, fold=fold, method=method, test_cm=cm,
                         g_mean=gm, mcc=mcc(cm), best_epoch=snapshot.epoch,
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
    m1 = ds.m1 if keep_positives is None else min(ds.m1, keep_positives)
    if m1 < k:
        raise ValueError(f"{k} folds need at least {k} positives, got {m1}")
    if repeats < 1:
        raise ValueError(f"need at least 1 repeat, got {repeats}")
    if n_methods > 1 and repeats * k < MIN_PAIRS:
        raise ValueError(f"paired tests need repeats * folds >= {MIN_PAIRS}")


def run_cv(ds: Dataset, cfg: TrainConfig, methods: list[LossKind],
           repeats: int = 10, k: int = 5, base_seed: int = 0,
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
        plan = stratified_folds(ds_r, k, seed=[base_seed, repeat, 202])
        for fold in range(k):
            test_fold = fold
            val_fold = (fold + 1) % k
            train_ds, val_ds, test_ds = fold_split(ds_r, plan, test_fold, val_fold)
            train_ds, (val_ds, test_ds), _, _ = standardize(train_ds, [val_ds, test_ds])
            for kind in methods:
                cfg_run = replace(cfg, loss=kind, seed=[base_seed, repeat, fold])
                tasks.append((repeat, fold, kind, cfg_run,
                              train_ds, val_ds, test_ds))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_single, tasks, chunksize=1))
    else:
        results = [_run_single(t) for t in tasks]
    results.sort(key=lambda r: (r.method, r.repeat, r.fold))
    return results


def aggregate(results: list[RunResult]) -> dict:
    """Per-method mean and sample standard deviation of G-Mean and MCC."""
    if not results:
        raise ValueError("no results to aggregate")
    stats = {}
    for method in sorted({r.method for r in results}):
        gs = np.array([r.g_mean for r in results if r.method == method])
        ms = np.array([r.mcc for r in results if r.method == method])
        stats[method] = MethodStats(
            mean_g_mean=float(gs.mean()),
            sd_g_mean=float(gs.std(ddof=1)) if len(gs) > 1 else 0.0,
            mean_mcc=float(ms.mean()),
            sd_mcc=float(ms.std(ddof=1)) if len(ms) > 1 else 0.0,
        )
    return stats


def _metric_vectors(results: list[RunResult], metric: str) -> dict:
    vecs = {}
    for method in sorted({r.method for r in results}):
        rows = sorted((r for r in results if r.method == method),
                      key=lambda r: (r.repeat, r.fold))
        vecs[method] = np.array([getattr(r, metric) for r in rows])
    return vecs


def determine_winners(results: list[RunResult]) -> CvReport:
    """Aggregate, compute pairwise p-values, and flag winners/ties per metric.

    A method is a sole winner when its mean is highest and every pairwise
    comparison against it has p <= 0.05; methods not separable from the best
    are co-flagged as ties.
    """
    stats = aggregate(results)
    methods = tuple(sorted(stats))
    p_values: dict = {}
    winners: dict = {}
    for metric, mean_attr in (("g_mean", "mean_g_mean"), ("mcc", "mean_mcc")):
        vecs = _metric_vectors(results, metric)
        pvals = {}
        for a, b in itertools.combinations(methods, 2):
            pvals[(a, b)] = compare(vecs[a], vecs[b])
        p_values[metric] = pvals
        best = max(methods, key=lambda m: getattr(stats[m], mean_attr))
        tied = {best}
        for m in methods:
            if m == best:
                continue
            p = pvals[(best, m)] if (best, m) in pvals else pvals[(m, best)]
            if p > P_THRESHOLD:
                tied.add(m)
        flags = {}
        for m in methods:
            if m == best and len(tied) == 1:
                flags[m] = "winner"
            elif m in tied:
                flags[m] = "tie"
            else:
                flags[m] = ""
        winners[metric] = flags
    return CvReport(methods=methods, stats=stats, p_values=p_values,
                    winners=winners)


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
    results = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != RUN_CSV_HEADER:
            raise ValueError(f"unexpected run CSV header: {header!r}")
        for line in fh:
            parts = line.strip().split(",")
            if not parts or parts == [""]:
                continue
            results.append(RunResult(
                method=parts[0], repeat=int(parts[1]), fold=int(parts[2]),
                test_cm=CountCM(tn=int(parts[3]), fp=int(parts[4]),
                                fn=int(parts[5]), tp=int(parts[6])),
                g_mean=float(parts[7]), mcc=float(parts[8]),
                best_epoch=int(parts[9]), final_b=float(parts[10])))
    return results


def report_to_dict(report: CvReport) -> dict:
    return {
        "methods": list(report.methods),
        "stats": {
            m: {"g_mean": {"mean": s.mean_g_mean, "sd": s.sd_g_mean},
                "mcc": {"mean": s.mean_mcc, "sd": s.sd_mcc}}
            for m, s in report.stats.items()
        },
        "p_values": {
            metric: {f"{a}|{b}": p for (a, b), p in pvals.items()}
            for metric, pvals in report.p_values.items()
        },
        "winners": report.winners,
    }


def render_table(report: CvReport) -> str:
    """Aligned plain-text table: mean (sd) per cell, * winner, = tie."""
    marker = {"winner": "*", "tie": "=", "": " "}
    width = max(18, max(len(m) for m in report.methods) + 4)
    lines = ["".ljust(8) + "".join(m.ljust(width) for m in report.methods)]
    for metric, label in (("g_mean", "G-Mean"), ("mcc", "MCC")):
        cells = []
        for m in report.methods:
            s = report.stats[m]
            mean, sd = ((s.mean_g_mean, s.sd_g_mean) if metric == "g_mean"
                        else (s.mean_mcc, s.sd_mcc))
            cells.append(f"{mean:.3f} ({sd:.3f}){marker[report.winners[metric][m]]}"
                         .ljust(width))
        lines.append(label.ljust(8) + "".join(cells))
    lines.append("")
    lines.append("* winner (outperforms every competitor at p <= 0.05)")
    lines.append("= tie (not separable from the best at p <= 0.05)")
    return "\n".join(lines) + "\n"
