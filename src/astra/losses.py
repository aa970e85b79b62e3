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
from .metrics import ClassSplit, ConfusionMatrix, approx_cm, split_outputs


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


def _bce(z: np.ndarray, split: ClassSplit, g: np.ndarray):
    """(mean BCE, d(mean BCE)/dz), the gradient in `g`; `z` is clamped."""
    pos = split.pos
    zp = z[pos]
    # -log(1 - z) on a negative, -log(z) on a positive; the mean of their
    # negation rounds to the negated mean.  They are summed before the
    # gradient overwrites them.
    a = np.negative(z, out=g)
    np.log1p(a, out=a)
    a[pos] = np.log(zp)
    value = -float(np.add.reduce(a) / len(a))     # np.mean(a), bit for bit
    np.subtract(1.0, z, out=g)
    np.divide(1.0, g, out=g)                      # 1/(1 - z)
    g[pos] = -1.0 / zp                            # -1/z
    g /= len(z)
    return value, g


def bce_loss(z, y) -> float:
    """Mean binary cross-entropy -y*log z - (1-y)*log(1-z), of `z` clamped
    into [EPS, 1 - EPS]."""
    zc = clamp_unit(np.asarray(z, dtype=float))
    return loss_and_grad(LossKind("bce", False), zc, y)[0]


def bce_grad(z, y) -> np.ndarray:
    """Per-example d(mean BCE)/dz, of `z` clamped into [EPS, 1 - EPS]."""
    zc = clamp_unit(np.asarray(z, dtype=float))
    return loss_and_grad(LossKind("bce", False), zc, y)[1]


def _gmn(z: np.ndarray, split: ClassSplit, acm: ConfusionMatrix | None, g: np.ndarray):
    """(loss, d loss/dz) of the approximated-G-Mean loss, the gradient in
    `g`; `acm`, if given, is approx_cm(z, split)."""
    if split.m0 < 1 or split.m1 < 1:
        raise ValueError("GMN needs at least one example of each class")
    # No clamp here: the loss has no logs, and unclamped inputs make the
    # reduction to the counting G-Mean exact on binary predictions.
    cm = approx_cm(z, split) if acm is None else acm
    g_apx = np.sqrt(cm.tn * cm.tp / (split.m0 * split.m1))
    # Network outputs are clamped to (0, 1) upstream, so the approximated
    # cells stay positive there; the floor only guards raw binary input.
    tp = max(cm.tp, 1e-12)
    tn = max(cm.tn, 1e-12)
    c = -0.5 * g_apx
    g.fill((0.0 - 1.0 / tn) * c)                  # (y/TP - (1-y)/TN) * c
    g[split.pos] = (1.0 / tp) * c
    return 1.0 - g_apx, g


def gmn_loss(y_hat, y) -> float:
    """1 - sqrt(TN_apx * TP_apx / (m0 * m1)), the approximated-G-Mean loss.

    Set-level (not averaged); the product form aggressively penalizes false
    negatives.
    """
    return loss_and_grad(LossKind("gmn", False), y_hat, y)[0]


def gmn_grad(y_hat, y) -> np.ndarray:
    """dJ_GMN/dy_hat_i = -(G_apx/2) * (y_i/TP_apx - (1-y_i)/TN_apx).

    Negative on positive-class examples, positive on negative-class ones;
    examples couple only through the set-level sums TP_apx and TN_apx.
    """
    return loss_and_grad(LossKind("gmn", False), y_hat, y)[1]


def loss_and_grad(kind: LossKind, z, y, acm: ConfusionMatrix | None = None,
                  out: np.ndarray | None = None):
    """Loss value and gradient with respect to the (z-transformed) outputs
    `z`, for 0/1 targets `y` or their ClassSplit.

    `z` is taken as given: BCE needs it clamped into [EPS, 1 - EPS], as
    network.forward returns it (bce_loss and bce_grad clamp).  `acm`, if
    given, is approx_cm(z, y), which the GMN loss then does not rebuild.  The
    gradient is written into `out`, a fresh array without it.
    """
    z, split = split_outputs(z, y)
    out = np.empty(z.shape) if out is None else out
    if kind.variant == "bce":
        return _bce(z, split, out)
    return _gmn(z, split, acm, out)
