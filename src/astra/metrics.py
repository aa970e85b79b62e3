"""Confusion matrices (counting and approximated) and derived statistics.

The approximated matrix replaces indicator counts with probabilistic outputs,
so its entries are real-valued and its derived rates retain the "by how much"
that counting metrics lose.  It reduces exactly to the counting matrix on
binary predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .workspace import Workspace

E_RATIO_EPS = 1e-12


@dataclass(frozen=True)
class CountCM:
    """Integer counting confusion matrix."""

    tn: int
    fp: int
    fn: int
    tp: int


@dataclass(frozen=True)
class ApproxCM:
    """Real-valued approximated confusion matrix.

    Row sums are exact: tn_apx + fp_apx = m_0, fn_apx + tp_apx = m_1.
    """

    tn_apx: float
    fp_apx: float
    fn_apx: float
    tp_apx: float

    @property
    def m0(self) -> float:
        return self.tn_apx + self.fp_apx

    @property
    def m1(self) -> float:
        return self.fn_apx + self.tp_apx


@dataclass(frozen=True)
class Rates:
    tpr: float
    tnr: float
    fpr: float
    fnr: float


def _check_lengths(a, b) -> None:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise ValueError("empty input")


def counting_cm(pred_labels, y) -> CountCM:
    """Exact TP/TN/FP/FN counts from binary predictions and targets."""
    _check_lengths(pred_labels, y)
    p = np.asarray(pred_labels)
    t = np.asarray(y)
    tp = int(np.sum((p == 1) & (t == 1)))
    tn = int(np.sum((p == 0) & (t == 0)))
    fp = int(np.sum((p == 1) & (t == 0)))
    fn = int(np.sum((p == 0) & (t == 1)))
    return CountCM(tn=tn, fp=fp, fn=fn, tp=tp)


def approx_cm(y_hat, y, ws: Workspace | None = None) -> ApproxCM:
    """Approximated confusion matrix from probabilistic outputs.

    A training loop passes the same `ws` every epoch for the work arrays.
    """
    _check_lengths(y_hat, y)
    yh = np.asarray(y_hat, dtype=float)
    t = np.asarray(y, dtype=float)
    ws = Workspace() if ws is None else ws
    not_yh = np.subtract(1.0, yh, out=ws.get("acm.not_yh", yh.shape))
    not_t = np.subtract(1.0, t, out=ws.get("acm.not_t", t.shape))
    prod = ws.get("acm.prod", yh.shape)
    tp = float(np.sum(np.multiply(yh, t, out=prod)))
    fn = float(np.sum(np.multiply(not_yh, t, out=prod)))
    fp = float(np.sum(np.multiply(yh, not_t, out=prod)))
    tn = float(np.sum(np.multiply(not_yh, not_t, out=prod)))
    return ApproxCM(tn_apx=tn, fp_apx=fp, fn_apx=fn, tp_apx=tp)


def mcc(cm: CountCM | ApproxCM) -> float:
    """Matthews correlation coefficient; 0 if any denominator factor is zero."""
    tn, fp, fn, tp = _cells(cm)
    num = tp * tn - fp * fn
    f1 = tp + fp
    f2 = tp + fn
    f3 = tn + fp
    f4 = tn + fn
    if f1 == 0 or f2 == 0 or f3 == 0 or f4 == 0:
        return 0.0
    return num / math.sqrt(f1 * f2 * f3 * f4)


def g_mean(cm: CountCM | ApproxCM) -> float:
    """Geometric mean of sensitivity and specificity."""
    r = rates(cm)
    return math.sqrt(r.tpr * r.tnr)


def _cells(cm: CountCM | ApproxCM):
    if isinstance(cm, ApproxCM):
        return cm.tn_apx, cm.fp_apx, cm.fn_apx, cm.tp_apx
    return float(cm.tn), float(cm.fp), float(cm.fn), float(cm.tp)


def rates(cm: CountCM | ApproxCM) -> Rates:
    """TPR/TNR/FPR/FNR (approximated variants for an ApproxCM)."""
    tn, fp, fn, tp = _cells(cm)
    m1 = tp + fn
    m0 = tn + fp
    if m1 <= 0 or m0 <= 0:
        raise ValueError("rates need at least one example of each class")
    return Rates(tpr=tp / m1, tnr=tn / m0, fpr=fp / m0, fnr=fn / m1)


def e_ratio(acm: ApproxCM) -> float:
    """FNR_apx / FPR_apx; > 1 means positives are harder than negatives.

    Zero FPR_apx is guarded with a small epsilon so the ratio stays finite
    (it drives the slope learning-rate schedule every epoch).
    """
    r = rates(acm)
    return r.fnr / max(r.fpr, E_RATIO_EPS)
