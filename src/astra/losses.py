"""Training losses: mean-reduced BCE and the set-level approximated-G-Mean
loss, with gradients with respect to the network outputs.

Both losses consume the z-transformed outputs when the asymmetric activation
is active (the z-transform is required for any loss that pivots around 0.5,
which includes everything derived from the confusion matrix); at b = 1 the
z-transform is the identity and they see the raw outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activation import clamp_unit
from .metrics import ApproxCM, approx_cm
from .workspace import Workspace


@dataclass(frozen=True)
class LossKind:
    """One of the four training candidates: {BCE, GMN} x {ASTra on/off}."""

    variant: str          # "bce" or "gmn"
    use_astra: bool

    def __post_init__(self):
        if self.variant not in ("bce", "gmn"):
            raise ValueError(f"unknown loss variant {self.variant!r}")

    @property
    def name(self) -> str:
        return self.variant + ("-astra" if self.use_astra else "")


ALL_KINDS = (
    LossKind("bce", False),
    LossKind("gmn", False),
    LossKind("bce", True),
    LossKind("gmn", True),
)


def _check(z, y) -> np.ndarray:
    """positives(y), once `z` and `y` are checked to pair up."""
    if len(z) != len(y):
        raise ValueError(f"length mismatch: {len(z)} vs {len(y)}")
    if len(z) == 0:
        raise ValueError("empty input")
    return positives(y)


def positives(y) -> np.ndarray:
    """Indices of the positives of 0/1 targets `y`.

    Both losses are per-class: the gradient of a row depends on its class
    and its own output only, so they work from these indices.
    """
    t = np.asarray(y)
    pos = np.flatnonzero(t == 1)
    if np.count_nonzero(t == 0) + len(pos) != t.size:
        raise ValueError("targets must be 0 or 1")
    return pos


def _bce(z, y, ws: Workspace, grad: bool):
    """(mean BCE, d(mean BCE)/dz or None), with arrays in `ws`."""
    pos = _check(z, y)
    zc = clamp_unit(np.asarray(z, dtype=float), out=ws.get("loss.zc", np.shape(z)))
    zp = zc[pos]
    # -log(1 - z) on a negative, -log(z) on a positive; the mean of their
    # negation rounds to the negated mean.
    a = np.negative(zc, out=ws.get("loss.a", zc.shape))
    np.log1p(a, out=a)
    a[pos] = np.log(zp)
    value = -float(np.mean(a))
    if not grad:
        return value, None
    g = np.subtract(1.0, zc, out=ws.get("loss.grad", zc.shape))
    np.divide(1.0, g, out=g)                      # 1/(1 - z)
    g[pos] = -1.0 / zp                            # -1/z
    g /= len(zc)
    return value, g


def bce_loss(z, y) -> float:
    """Mean binary cross-entropy -y*log z - (1-y)*log(1-z)."""
    return _bce(z, y, Workspace(), grad=False)[0]


def bce_grad(z, y) -> np.ndarray:
    """Per-example d(mean BCE)/dz."""
    return _bce(z, y, Workspace(), grad=True)[1]


def _gmn(y_hat, y, m0: int, m1: int, acm: ApproxCM | None, ws: Workspace):
    """(loss, d loss/dy_hat) of the approximated-G-Mean loss, with arrays in
    `ws`; `acm`, if given, is approx_cm(y_hat, y)."""
    pos = _check(y_hat, y)
    if m0 < 1 or m1 < 1:
        raise ValueError("GMN needs at least one example of each class")
    # No clamp here: the loss has no logs, and unclamped inputs make the
    # reduction to the counting G-Mean exact on binary predictions.
    cm = approx_cm(y_hat, y, ws) if acm is None else acm
    g_apx = np.sqrt(cm.tn_apx * cm.tp_apx / (m0 * m1))
    # Network outputs are clamped to (0, 1) upstream, so the approximated
    # cells stay positive there; the floor only guards raw binary input.
    tp = max(cm.tp_apx, 1e-12)
    tn = max(cm.tn_apx, 1e-12)
    c = -0.5 * g_apx
    g = ws.get("loss.grad", np.shape(y_hat))
    g.fill((0.0 - 1.0 / tn) * c)                  # (y/TP - (1-y)/TN) * c
    g[pos] = (1.0 / tp) * c
    return 1.0 - g_apx, g


def gmn_loss(y_hat, y, m0: int, m1: int) -> float:
    """1 - sqrt(TN_apx * TP_apx / (m0 * m1)), the approximated-G-Mean loss.

    Set-level (not averaged); the product form aggressively penalizes false
    negatives.
    """
    return _gmn(y_hat, y, m0, m1, None, Workspace())[0]


def gmn_grad(y_hat, y, m0: int, m1: int) -> np.ndarray:
    """dJ_GMN/dy_hat_i = -(G_apx/2) * (y_i/TP_apx - (1-y_i)/TN_apx).

    Negative on positive-class examples, positive on negative-class ones;
    examples couple only through the set-level sums TP_apx and TN_apx.
    """
    return _gmn(y_hat, y, m0, m1, None, Workspace())[1]


def loss_and_grad(kind: LossKind, z, y, m0: int, m1: int,
                  acm: ApproxCM | None = None, ws: Workspace | None = None):
    """Loss value and gradient with respect to the (z-transformed) outputs.

    `acm`, if given, is approx_cm(z, y), which the GMN loss then does not
    rebuild.  A training loop passes the same `ws` every epoch; the gradient
    lives there.
    """
    ws = Workspace() if ws is None else ws
    if kind.variant == "bce":
        return _bce(z, y, ws, grad=True)
    return _gmn(z, y, m0, m1, acm, ws)
