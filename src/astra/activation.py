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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# Floor and cap of the slope (AstraParams.set_beta).  b = 60 corresponds to a
# threshold of about 0.066, the lowest value that is numerically workable.
B_MIN = 1.0
B_MAX = 60.0

# Outputs are clamped away from {0, 1} before any logarithm downstream.
EPS = 1e-7

# Above this value of b*x the exact log1p(b*exp(b*x)) is replaced by its
# asymptote log(b) + b*x; the difference is below double precision.
_LOG_SWITCH = 35.0


class NonFiniteError(ValueError):
    """A preactivation, gradient, parameter or beta went non-finite: in
    training, the run has diverged."""


def _check_slope(b: float) -> None:
    if not math.isfinite(b) or b < B_MIN:
        raise ValueError(f"slope must be a finite value >= 1, got {b}")


def _check_tau(tau: float) -> None:
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")


def empty_terms(terms, shape):
    """A `terms` NamedTuple of fresh float arrays of `shape`."""
    return terms._make(np.empty(shape) for _ in terms._fields)


def _astra_terms(x: np.ndarray, b: float, t):
    """(b*x, s, u, -u/b) with s = b*exp(min(b*x, _LOG_SWITCH)) and
    u = log(1 + b*exp(b*x)), written into the arrays of OutputTerms `t`
    without overflow: above _LOG_SWITCH, u is replaced by its asymptote
    log(b) + b*x."""
    bx = np.multiply(b, x, out=t.bx)
    s = np.minimum(bx, _LOG_SWITCH, out=t.s)
    np.exp(s, out=s)
    s *= b
    u = np.log1p(s, out=t.u)
    if np.fmax.reduce(bx, axis=None, initial=-math.inf) > _LOG_SWITCH:
        big = bx > _LOG_SWITCH
        u[big] = math.log(b) + bx[big]
    return bx, s, u, np.divide(u, -b, out=t.neg_u_b)


def _z_terms(y, tau: float, t):
    """(1 - y, denominator, z) of the z-transform of clamped outputs y,
    written into the arrays of OutputTerms `t`."""
    one_my = np.subtract(1.0, y, out=t.one_my)
    num = np.multiply(y, 1.0 - tau, out=t.z)
    den = np.multiply(one_my, tau, out=t.den)
    den += num
    return one_my, den, np.divide(num, den, out=num)


def _preactivation(x, b: float) -> np.ndarray:
    _check_slope(b)
    xa = np.asarray(x, dtype=float)
    if not np.isfinite(xa).all():
        raise NonFiniteError("preactivation must be finite")
    return xa


def astra_forward(x, b: float):
    """Evaluate 1 - (1 + b*exp(b*x))**(-1/b).

    Strictly increasing in x, stable for b*x up to +/-700 (saturates smoothly
    to 0 or 1).  Scalar x gives an np.float64, ndarray x an array; scalar b.
    """
    xa = _preactivation(x, b)
    neg_u_b = _astra_terms(xa, b, empty_terms(OutputTerms, xa.shape))[3]
    return (-np.expm1(neg_u_b))[()]


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
    if not math.isfinite(beta):
        raise NonFiniteError("beta must be finite")
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
    if b > 2.0:
        return b - 2.0
    return math.log(b - 1.0)


def slope_from_tau(tau: float) -> float:
    """Solve astra_threshold(b) == tau for b by bisection, tau between
    astra_threshold(B_MAX) (about 0.066) and 0.5."""
    lo, hi = B_MIN, B_MAX
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if astra_threshold(mid) > tau:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def astra_backward(x, b: float):
    """Partial derivatives (dy/dx, dy/db) of astra_forward.

    dy/dx = r*e with r = s/(1+s), s = b*exp(b*x) and e = (1+s)**(-1/b); it
    is positive everywhere and maximal at x = 0, the threshold point.
    dy/db = ((b*x + 1)*r - u)*e/b**2 with u = log(1 + s).
    """
    xa = _preactivation(x, b)
    t = empty_terms(OutputTerms, xa.shape)
    bx, _, u, _ = _astra_terms(xa, b, t)
    r, e = _r_and_one_my(t, np.empty_like(xa))
    return (r * e)[()], (((bx + 1.0) * r - u) * (e / (b * b)))[()]


def threshold_grad_b(b: float) -> float:
    """d tau / d b for astra_threshold."""
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
    y = clamp_unit(np.asarray(y_hat, dtype=float))
    return _z_terms(y, tau, empty_terms(OutputTerms, y.shape))[2][()]


def z_transform_backward(y_hat, tau: float):
    """Partial derivatives (dz/dy_hat, dz/dtau) of z_transform."""
    _check_tau(tau)
    y = clamp_unit(np.asarray(y_hat, dtype=float))
    one_my, den, _ = _z_terms(y, tau, empty_terms(OutputTerms, y.shape))
    den *= den
    return (tau * (1.0 - tau) / den)[()], (-y * one_my / den)[()]


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
    s: np.ndarray           # b*exp(min(b*x, _LOG_SWITCH))
    u: np.ndarray           # log(1 + b*exp(b*x))
    neg_u_b: np.ndarray     # -u/b; 1 - y = exp(-u/b) before clamping
    y_hat: np.ndarray       # clamped activation output
    one_my: np.ndarray      # 1 - y_hat
    den: np.ndarray         # z-transform denominator
    z: np.ndarray           # clamped z-transform output


def output_forward(x: np.ndarray, b: float, tau: float,
                   t: OutputTerms | None = None) -> OutputTerms:
    """clamp_unit(z_transform(clamp_unit(astra_forward(x, b)), tau)), bit for
    bit, keeping what the backward needs, in the arrays of `t` (fresh
    ones without it).  The kernel of network.forward, which checks
    that x is finite; b and tau are a slope's own, which AstraParams keeps
    valid."""
    t = empty_terms(OutputTerms, x.shape) if t is None else t
    _astra_terms(x, b, t)
    y = np.expm1(t.neg_u_b, out=t.y_hat)
    clamp_unit(np.negative(y, out=y), out=y)
    _z_terms(y, tau, t)
    clamp_unit(t.z, out=t.z)
    return t


def _r_and_one_my(terms: OutputTerms, r: np.ndarray):
    """(r, 1 - y before the clamp): r = s/(1 + s) into `r` and exp(-u/b)
    over neg_u_b."""
    # Above _LOG_SWITCH, s is capped and r is 1 within 1e-15.
    np.add(1.0, terms.s, out=r)
    np.divide(terms.s, r, out=r)
    # Not 1 + expm1(-u/b): that cancels as b -> 1 at large x.
    return r, np.exp(terms.neg_u_b, out=terms.neg_u_b)


def output_chain(terms, slope: AstraParams, dj_dz, dj_dx) -> float:
    """dj/dbeta through the `terms` of `slope.output`, spent as its path's
    backward says; dj/dx = dj_dz * dz/dy * dy/dx goes into `dj_dx`.  A frozen
    slope's logistic has dz/dy = 1 and dj/dbeta = 0.

    The ASTra chain is in closed form, with g = dj/dz / den^2 and
    e = exp(-u/b), the unclamped 1 - y:
    dj/dx = tau(1 - tau) g e r, and dj/db = tau(1 - tau)/b^2 *
    sum(g e (r(1 + bx) - u)) - tau'(b) * sum(g y_hat (1 - y_hat)), the
    z-transform's term over the clamped y_hat as its dz/dtau."""
    if not slope.trainable:
        np.multiply(dj_dz, logistic_backward(terms), out=dj_dx)
        return 0.0
    b, tau, t = slope.b, slope.tau, terms
    g = np.multiply(t.den, t.den, out=t.den)
    np.divide(dj_dz, g, out=g)
    tau_term = np.multiply(t.y_hat, t.one_my, out=t.y_hat)
    tau_term *= g
    r, ge = _r_and_one_my(t, dj_dx)
    ge *= g
    b_term = np.add(t.bx, 1.0, out=t.bx)
    b_term *= r
    b_term -= t.u
    b_term *= ge
    ge *= tau * (1.0 - tau)
    dj_dx *= ge                     # r last: it underflows first
    dj_db = (tau * (1.0 - tau) / (b * b) * float(np.add.reduce(b_term))
             - threshold_grad_b(b) * float(np.add.reduce(tau_term)))
    return dj_db * slope_grad_beta(slope.beta)


# exp(700) is finite, and below x = -700 the logistic is under 1e-304, which
# the clamp raises to EPS anyway.
_LOGISTIC_FLOOR = -700.0


class LogisticTerms(NamedTuple):
    """The output of a frozen slope (b = 1, tau = 0.5): the plain logistic,
    where the z-transform is the identity, with what its derivative reuses."""

    e: np.ndarray           # exp(-max(x, _LOGISTIC_FLOOR))
    y: np.ndarray           # 1/(1 + e), before clamping
    z: np.ndarray           # clamp_unit(y), also the activation output

    @property
    def y_hat(self) -> np.ndarray:
        return self.z


def logistic_forward(x: np.ndarray,
                     t: LogisticTerms | None = None) -> LogisticTerms:
    """clamp_unit(1/(1 + exp(-x))): output_forward(x, 1.0, 0.5).z within
    rounding (4.4e-16 relative), in fewer passes, in the arrays of `t`
    (fresh ones without it).  x is finite, as network.forward checks."""
    t = empty_terms(LogisticTerms, x.shape) if t is None else t
    e = np.maximum(x, _LOGISTIC_FLOOR, out=t.e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    y = np.add(1.0, e, out=t.y)
    np.divide(1.0, y, out=y)
    clamp_unit(y, out=t.z)
    return t


def logistic_backward(terms: LogisticTerms):
    """dy/dx = e*y*y of logistic_forward, written over e; dz/dy is 1.

    Equal to y*(1 - y), which cancels at the positive tail: its relative
    error reaches 100% from x = 37 on.
    """
    dy_dx = np.multiply(terms.e, terms.y, out=terms.e)
    dy_dx *= terms.y
    return dy_dx


@dataclass
class AstraParams:
    """Learnable slope state: beta and trainable, from which set_beta derives
    the slope b in [B_MIN, B_MAX] and the threshold tau in (0, 0.5].

    When ``trainable`` is False the slope is frozen at b = 1 (standard
    logistic, threshold 0.5) whatever beta is; `terms`, `output` and
    output_chain then take the logistic path.
    """

    beta: float
    b: float = field(init=False)
    tau: float = field(init=False)
    trainable: bool = True

    def __post_init__(self):
        if type(self.trainable) is not bool:
            raise ValueError(f"trainable must be a bool, got {self.trainable!r}")
        self.set_beta(self.beta)

    def set_beta(self, beta: float) -> None:
        """The one writer of beta, b and tau: b = slope_from_beta(beta), 1 if
        frozen, capped at B_MAX (where beta becomes beta_from_slope(B_MAX)),
        and tau = astra_threshold(b).  A non-finite beta raises NonFiniteError."""
        b = slope_from_beta(beta)
        if not self.trainable:
            b = B_MIN
        elif b > B_MAX:
            b, beta = B_MAX, beta_from_slope(B_MAX)
        self.beta, self.b, self.tau = beta, b, astra_threshold(b)

    def terms(self, x: np.ndarray):
        """Fresh terms of this slope's output path over preactivations x."""
        if self.trainable:
            return empty_terms(OutputTerms, x.shape)
        return empty_terms(LogisticTerms, x.shape)

    def output(self, x: np.ndarray, t):
        """This slope's output over finite x, into its terms `t`."""
        if self.trainable:
            return output_forward(x, self.b, self.tau, t)
        return logistic_forward(x, t)     # b = 1, tau = 0.5: no z-transform

    @classmethod
    def frozen(cls) -> "AstraParams":
        """Slope fixed at 1: plain logistic output, threshold 0.5."""
        return cls(0.0, trainable=False)

    def step_beta(self, grad_beta: float, eta_b: float) -> None:
        """One gradient step on beta; a frozen slope does not move."""
        if self.trainable:
            self.set_beta(self.beta - eta_b * grad_beta)
