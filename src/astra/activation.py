"""Asymmetric sigmoid output activation with a learnable decision threshold.

The activation maps a preactivation x to (0, 1) with a slope parameter b >= 1
controlling asymmetry.  At b = 1 it reduces to the standard logistic.  The
output value at x = 0 defines the decision threshold tau(b) <= 0.5.  A
monotone output remapping (the z-transform) moves the crossing point of the
target-0 / target-1 cross-entropy curves from 0.5 to tau, which is required
for BCE and any confusion-matrix-derived loss when b > 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .workspace import Workspace

# Hard floor / soft ceiling for the slope.  b = 60 corresponds to a threshold
# of roughly 0.05, the lowest value that is numerically workable.
B_MIN = 1.0
B_MAX = 60.0

# Outputs are clamped away from {0, 1} before any logarithm downstream.
EPS = 1e-7

# Above this value of b*x the exact log1p(b*exp(b*x)) is replaced by its
# asymptote log(b) + b*x; the difference is below double precision.
_LOG_SWITCH = 35.0


def _check_slope(b: float) -> None:
    if not np.isfinite(b) or b < B_MIN:
        raise ValueError(f"slope must be a finite value >= 1, got {b}")


def _check_tau(tau: float) -> None:
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")


def _astra_terms(x: np.ndarray, b: float, ws: Workspace):
    """(b*x, u, -u/b) with u = log(1 + b*exp(b*x)), evaluated without
    overflow: above _LOG_SWITCH, u is replaced by its asymptote log(b) + b*x."""
    bx = np.multiply(b, x, out=ws.get("bx", x.shape))
    u = np.minimum(bx, _LOG_SWITCH, out=ws.get("u", x.shape))
    np.exp(u, out=u)
    u *= b
    np.log1p(u, out=u)
    big = np.greater(bx, _LOG_SWITCH, out=ws.get("big", x.shape, bool))
    if big.any():
        u[big] = math.log(b) + bx[big]
    neg_u_b = np.negative(u, out=ws.get("neg_u_b", x.shape))
    neg_u_b /= b
    return bx, u, neg_u_b


def _astra_grads(bx, u, neg_u_b, b: float, slope: bool, ws: Workspace):
    """(dy/dx, dy/db) from _astra_terms; dy/db is None unless `slope`."""
    r = np.add(math.log(b), bx, out=ws.get("r", bx.shape))
    r -= u
    np.exp(r, out=r)                     # s / (1 + s), s = b*exp(b*x)
    one_my = np.exp(neg_u_b, out=ws.get("exp_neg_u_b", bx.shape))   # 1 - y
    dy_dx = np.multiply(r, one_my, out=ws.get("dy_dx", bx.shape))
    if not slope:
        return dy_dx, None
    # one_my / (b*b) * (r*(1 + bx) - u)
    dy_db = np.add(1.0, bx, out=ws.get("dy_db", bx.shape))
    dy_db *= r
    dy_db -= u
    one_my /= b * b
    dy_db *= one_my
    return dy_dx, dy_db


def _z_terms(y, tau: float, ws: Workspace):
    """(1 - y, denominator, z) of the z-transform of clamped outputs y."""
    one_my = np.subtract(1.0, y, out=ws.get("one_my", y.shape))
    num = np.multiply(y, 1.0 - tau, out=ws.get("z", y.shape))
    den = np.multiply(one_my, tau, out=ws.get("den", y.shape))
    den += num
    return one_my, den, np.divide(num, den, out=num)


def _z_grads(y, one_my, den, tau: float, slope: bool, ws: Workspace):
    """(dz/dy, dz/dtau) from _z_terms; dz/dtau is None unless `slope`."""
    den2 = np.multiply(den, den, out=ws.get("den2", y.shape))
    dz_dy = np.divide(tau * (1.0 - tau), den2, out=ws.get("dz_dy", y.shape))
    if not slope:
        return dz_dy, None
    dz_dtau = np.negative(y, out=ws.get("dz_dtau", y.shape))
    dz_dtau *= one_my
    dz_dtau /= den2
    return dz_dy, dz_dtau


def _preactivation(x, b: float) -> np.ndarray:
    _check_slope(b)
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)):
        raise ValueError("preactivation must be finite")
    return np.atleast_1d(xa)


def _unwrap(x, *arrays):
    """Scalars back out for scalar input, arrays otherwise."""
    if np.isscalar(x) or np.ndim(x) == 0:
        return tuple(float(a[0]) for a in arrays)
    return arrays


def astra_forward(x, b: float):
    """Evaluate 1 - (1 + b*exp(b*x))**(-1/b).

    Strictly increasing in x, stable for b*x up to +/-700 (saturates smoothly
    to 0 or 1).  Scalar or ndarray x; scalar b.
    """
    _, _, neg_u_b = _astra_terms(_preactivation(x, b), b, Workspace())
    (y,) = _unwrap(x, -np.expm1(neg_u_b))
    return y


def astra_threshold(b: float) -> float:
    """Decision threshold tau(b) = 1 - (1 + b)**(-1/b).

    Equals astra_forward(0, b); strictly decreasing in b, in (0, 0.5].
    """
    _check_slope(b)
    return -math.expm1(-math.log1p(b) / b)


def slope_from_beta(beta: float) -> float:
    """Map the unconstrained parameter beta to a slope b > 1.

    Linear branch 2 + beta for beta > 0, exponential branch 1 + exp(beta)
    otherwise; continuous at beta = 0 (both give 2).
    """
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    if beta > 0:
        return 2.0 + beta
    return 1.0 + math.exp(beta)


def slope_grad_beta(beta: float) -> float:
    """db/dbeta for slope_from_beta."""
    if beta > 0:
        return 1.0
    return math.exp(beta)


def beta_from_slope(b: float) -> float:
    """Inverse of slope_from_beta (b > 1)."""
    if b <= 1.0:
        raise ValueError(f"slope must be > 1, got {b}")
    if b > 2.0:
        return b - 2.0
    return math.log(b - 1.0)


def slope_from_tau(tau: float) -> float:
    """Solve astra_threshold(b) == tau for b by bisection.

    tau must lie in (astra_threshold(B_MAX), 0.5].
    """
    if not 0.0 < tau <= 0.5:
        raise ValueError(f"threshold must be in (0, 0.5], got {tau}")
    lo, hi = B_MIN, B_MAX
    if tau >= astra_threshold(lo):
        return lo
    if tau <= astra_threshold(hi):
        raise ValueError(f"threshold {tau} below the stable range (~0.05)")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if astra_threshold(mid) > tau:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def astra_backward(x, b: float):
    """Partial derivatives (dy/dx, dy/db) of astra_forward.

    dy/dx = s/(1+s) * (1+s)**(-1/b) with s = b*exp(b*x); it is positive
    everywhere and maximal at x = 0, the threshold point.
    """
    ws = Workspace()
    terms = _astra_terms(_preactivation(x, b), b, ws)
    return _unwrap(x, *_astra_grads(*terms, b, slope=True, ws=ws))


def threshold_grad_b(b: float) -> float:
    """d tau / d b for astra_threshold."""
    _check_slope(b)
    g = math.exp(-math.log1p(b) / b)   # (1+b)**(-1/b)
    return g * (1.0 / (b * (1.0 + b)) - math.log1p(b) / (b * b))


def clamp_unit(y, out=None):
    """Clamp activation outputs into [EPS, 1 - EPS] before logarithms."""
    return np.clip(y, EPS, 1.0 - EPS, out=out)


def z_transform(y_hat, tau: float):
    """Remap outputs so the loss crossing point moves from 0.5 to tau.

    z = y*(1-tau) / (y*(1-tau) + (1-y)*tau); strictly increasing in y and
    maps tau -> 0.5.
    """
    _check_tau(tau)
    y = clamp_unit(np.atleast_1d(np.asarray(y_hat, dtype=float)))
    (z,) = _unwrap(y_hat, _z_terms(y, tau, Workspace())[2])
    return z


def z_transform_backward(y_hat, tau: float):
    """Partial derivatives (dz/dy_hat, dz/dtau) of z_transform."""
    _check_tau(tau)
    y = clamp_unit(np.atleast_1d(np.asarray(y_hat, dtype=float)))
    ws = Workspace()
    one_my, den, _ = _z_terms(y, tau, ws)
    return _unwrap(y_hat, *_z_grads(y, one_my, den, tau, slope=True, ws=ws))


def misorder_band_upper(b: float) -> float:
    """Upper end of the preactivation band on which raw BCE mis-orders targets.

    For b > 1 the untransformed cross-entropy contributions of targets 0 and 1
    are wrongly ordered on (0, x_max) with x_max = log((2**b - 1)/b) / b.
    Tends to 0 as b -> 1.
    """
    if not np.isfinite(b) or b <= 1.0:
        raise ValueError(f"slope must be > 1, got {b}")
    log2 = math.log(2.0)
    # log(2**b - 1) = b*log(2) + log1p(-2**-b)
    return (b * log2 + math.log1p(-math.exp(-b * log2)) - math.log(b)) / b


class OutputTerms(NamedTuple):
    """The activation and z-transform of an array of preactivations, with
    the intermediates their derivatives reuse."""

    bx: np.ndarray          # b*x
    u: np.ndarray           # log(1 + b*exp(b*x))
    neg_u_b: np.ndarray     # -u/b; 1 - y = exp(-u/b) before clamping
    y_hat: np.ndarray       # clamped activation output
    one_my: np.ndarray      # 1 - y_hat
    den: np.ndarray         # z-transform denominator
    z: np.ndarray           # clamped z-transform output


def output_forward(x: np.ndarray, b: float, tau: float,
                   ws: Workspace) -> OutputTerms:
    """clamp_unit(z_transform(clamp_unit(astra_forward(x, b)), tau)), bit for
    bit, keeping what output_backward needs.  The arrays live in `ws`."""
    x = _preactivation(x, b)
    _check_tau(tau)
    bx, u, neg_u_b = _astra_terms(x, b, ws)
    y = np.expm1(neg_u_b, out=ws.get("y_hat", x.shape))
    clamp_unit(np.negative(y, out=y), out=y)
    one_my, den, z = _z_terms(y, tau, ws)
    clamp_unit(z, out=z)
    return OutputTerms(bx, u, neg_u_b, y, one_my, den, z)


def output_backward(terms: OutputTerms, b: float, tau: float, slope: bool,
                    ws: Workspace):
    """(dy/dx, dz/dy, dy/db, dz/dtau) as astra_backward and
    z_transform_backward give them; the slope terms are None unless `slope`."""
    dy_dx, dy_db = _astra_grads(terms.bx, terms.u, terms.neg_u_b, b, slope, ws)
    dz_dy, dz_dtau = _z_grads(terms.y_hat, terms.one_my, terms.den, tau, slope, ws)
    return dy_dx, dz_dy, dy_db, dz_dtau


@dataclass
class AstraParams:
    """Learnable slope state: beta and the derived slope b and threshold tau.

    When ``trainable`` is False the slope is frozen at b = 1 (standard
    logistic) and beta is ignored.
    """

    beta: float
    b: float
    tau: float
    trainable: bool = True

    @classmethod
    def from_tau_init(cls, tau_init: float, trainable: bool = True) -> "AstraParams":
        b = slope_from_tau(tau_init)
        return cls(beta=beta_from_slope(b), b=b, tau=astra_threshold(b),
                   trainable=trainable)

    @classmethod
    def frozen(cls) -> "AstraParams":
        """Slope fixed at 1: plain logistic output, threshold 0.5."""
        return cls(beta=0.0, b=1.0, tau=0.5, trainable=False)

    def step_beta(self, grad_beta: float, eta_b: float) -> None:
        """One gradient step on beta, clamping b into [B_MIN, B_MAX]."""
        if not self.trainable:
            return
        self.beta -= eta_b * grad_beta
        b = slope_from_beta(self.beta)
        if b > B_MAX:
            b = B_MAX
            self.beta = beta_from_slope(B_MAX)
        self.b = b
        self.tau = astra_threshold(b)
