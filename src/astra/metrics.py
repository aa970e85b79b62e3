"""Confusion matrices (counting and approximated) and derived statistics.

The approximated matrix replaces indicator counts with probabilistic outputs,
so its entries are real-valued and its derived rates retain the "by how much"
that counting metrics lose.  It reduces exactly to the counting matrix on
binary predictions: counting_cm is the ACM of 0/1 labels, cast to int.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

E_RATIO_EPS = 1e-12


@dataclass(frozen=True)
class ConfusionMatrix:
    """The four cells of a confusion matrix: int counts (counting_cm) or
    real-valued sums of probabilistic outputs (approx_cm, the ACM).

    Row sums: tn + fp = m_0 and fn + tp = m_1, up to rounding in an ACM.
    """

    tn: float
    fp: float
    fn: float
    tp: float


@dataclass(frozen=True)
class Rates:
    tpr: float
    tnr: float
    fpr: float
    fnr: float

    @property
    def e_ratio(self) -> float:
        """FNR / FPR; > 1 means positives are harder than negatives.

        Zero FPR is guarded with a small epsilon so the ratio stays finite
        (it drives the slope learning-rate schedule every epoch).
        """
        return self.fnr / max(self.fpr, E_RATIO_EPS)


@dataclass(frozen=True)
class ClassSplit:
    """The classes of 0/1 targets, found once: the positives' indices and
    the class sizes.  Whatever takes targets `y` also takes their split and
    then reads only it; a training run builds one per train set."""

    pos: np.ndarray
    m0: int
    m1: int


def class_split(y) -> ClassSplit:
    """The split of 0/1 targets `y`, or `y` itself if it is one."""
    if isinstance(y, ClassSplit):
        return y
    t = np.asarray(y)
    pos = np.flatnonzero(t == 1)
    if np.count_nonzero(t == 0) + len(pos) != t.size:
        raise ValueError("targets must be 0 or 1")
    pos.flags.writeable = False
    return ClassSplit(pos=pos, m0=t.size - len(pos), m1=len(pos))


def positive_cells(z_pos: np.ndarray) -> tuple[float, float]:
    """(FN_apx, TP_apx) from the outputs of the positives alone."""
    return float(np.add.reduce(1.0 - z_pos)), float(np.add.reduce(z_pos))


def split_outputs(outputs, y) -> tuple[np.ndarray, ClassSplit]:
    """`outputs` as floats, and class_split(y) of their targets: one per
    output, and at least one."""
    split = class_split(y)
    if len(outputs) != split.m0 + split.m1 or not len(outputs):
        raise ValueError(f"{len(outputs)} outputs for {split.m0 + split.m1} targets")
    return np.asarray(outputs, dtype=float), split


def approx_cm(y_hat, y) -> ConfusionMatrix:
    """Approximated confusion matrix from probabilistic outputs and 0/1
    targets `y` or their ClassSplit.

    Per class: FN_apx and TP_apx sum over the positives, FP_apx = sum(y_hat)
    - TP_apx and TN_apx = m0 - FP_apx, exact on binary outputs; otherwise
    FP_apx errs by about eps * sum(y_hat) (README, "Epoch kernel").
    """
    yh, split = split_outputs(y_hat, y)
    fn, tp = positive_cells(yh[split.pos])
    fp = float(np.add.reduce(yh)) - tp
    return ConfusionMatrix(tn=split.m0 - fp, fp=fp, fn=fn, tp=tp)


def counting_cm(pred_labels, y) -> ConfusionMatrix:
    """The ACM of 0/1 predictions against 0/1 targets `y` or their ClassSplit,
    as int.  Other predictions raise: the ACM would count a 2 as two."""
    p = np.asarray(pred_labels)
    if not ((p == 0) | (p == 1)).all():
        raise ValueError("predictions must be 0 or 1")
    return ConfusionMatrix(*map(int, astuple(approx_cm(p, y))))


def mcc(cm: ConfusionMatrix) -> float:
    """Matthews correlation coefficient; 0 if any denominator factor is zero.
    Int cells are taken as floats, as an ACM's are: exact int products past
    2**53 would round differently."""
    tn, fp, fn, tp = float(cm.tn), float(cm.fp), float(cm.fn), float(cm.tp)
    num = tp * tn - fp * fn
    f1 = tp + fp
    f2 = tp + fn
    f3 = tn + fp
    f4 = tn + fn
    if f1 == 0 or f2 == 0 or f3 == 0 or f4 == 0:
        return 0.0
    return num / math.sqrt(f1 * f2 * f3 * f4)


def g_mean(cm: ConfusionMatrix) -> float:
    """Geometric mean of sensitivity and specificity."""
    r = rates(cm)
    return math.sqrt(r.tpr * r.tnr)


def rates(cm: ConfusionMatrix) -> Rates:
    """TPR/TNR/FPR/FNR (approximated variants for an ACM)."""
    tn, fp, fn, tp = float(cm.tn), float(cm.fp), float(cm.fn), float(cm.tp)
    m1 = tp + fn
    m0 = tn + fp
    if m1 <= 0 or m0 <= 0:
        raise ValueError("rates need at least one example of each class")
    return Rates(tpr=tp / m1, tnr=tn / m0, fpr=fp / m0, fnr=fn / m1)
