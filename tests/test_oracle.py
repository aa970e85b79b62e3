"""The output path's forward and backward against a 60-digit decimal
reference.

The reference evaluates the true functions at the same float inputs (x, b
and tau taken exactly), clamping as the kernel does, so each error below is
the kernel's own rounding, in ulp of the true value.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from astra.activation import (
    _LOG_SWITCH,
    EPS,
    astra_threshold,
    logistic_backward,
    logistic_forward,
    output_backward,
    output_forward,
)

# b near 1, the bulk, and the slope cap B_MAX.
SLOPES = [1 + 1e-7, 1.5, 4.0, 30.0, 60.0]
LO, HI = Decimal(EPS), Decimal(1.0 - EPS)

# Worst errors measured on these grids before any kernel change (numpy 2.4.6,
# x86-64): y_hat 8.42 ulp (b = 1.5) and z 8.63 ulp (b = 60), where b*x is
# rounded near the lower clamp (b*x about -16); the logistic's z 1.38 ulp.
MAX_ULP_ASTRA = 9.0
MAX_ULP_LOGISTIC = 2.0

# The backward's worst errors on the same grids, measured the same way, in
# the bulk (b*x <= _LOG_SWITCH) and the tail (b*x above it), over true
# values of at least TINY_VALUE:
# - dy/dx 48.7 ulp in the bulk (b = 1 + 1e-7, x = 34.77), where -u/b
#   carries u's rounding into exp, and 79.7 in the tail (b = 30);
# - dy/db 94.3 in the bulk and 1,273 in the tail (b = 4, x = 100), where
#   r*(1 + b*x) - u cancels;
# - dz/dy 4.6 and dz/dtau 5.2 (b = 1.5), the logistic's dy/dx 2.7.
# Every smaller true value was within 4.2e-217 absolute.
MAX_ULP_BACKWARD = {  # name: (bulk, tail)
    "dy_dx": (50.0, 85.0),
    "dz_dy": (6.0, 6.0),
    "dy_db": (100.0, 1300.0),
    "dz_dtau": (6.0, 6.0),
}
MAX_ULP_LOGISTIC_BACKWARD = 3.0
TINY_VALUE, MAX_ABS_TINY = Decimal("1e-200"), Decimal("1e-216")


def clamp(v: Decimal) -> Decimal:
    return min(max(v, LO), HI)


def reference_output(x: float, b: float, tau: float):
    """(y_hat, z) of output_forward at 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        X, B, T = Decimal(x), Decimal(b), Decimal(tau)
        u = (1 + B * (B * X).exp()).ln()
        y = clamp(1 - (-u / B).exp())
        num = y * (1 - T)
        return y, clamp(num / (num + (1 - y) * T))


def reference_output_backward(x: float, b: float, tau: float, y_hat: float):
    """(dy/dx, dz/dy, dy/db, dz/dtau) of output_backward at 60 digits, the
    z-transform's at the kernel's own clamped y_hat."""
    with localcontext() as ctx:
        ctx.prec = 60
        X, B, T, Y = Decimal(x), Decimal(b), Decimal(tau), Decimal(y_hat)
        bx = B * X
        s = B * bx.exp()
        # Below 1e-60, 1 + s rounds to 1 at 60 digits: take log1p's series.
        u = s - s * s / 2 + s ** 3 / 3 if s < Decimal("1e-20") else (1 + s).ln()
        r = s / (1 + s)
        one_my = (-u / B).exp()
        den2 = (Y * (1 - T) + (1 - Y) * T) ** 2
        return (r * one_my, T * (1 - T) / den2,
                one_my * (r * (1 + bx) - u) / (B * B), -Y * (1 - Y) / den2)


def reference_logistic(x: float) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        return clamp(1 / (1 + (-Decimal(x)).exp()))


def ulps(got: float, ref: Decimal) -> float:
    return float(abs(Decimal(float(got)) - ref) / Decimal(math.ulp(float(ref))))


def within(got: float, ref: Decimal, max_ulp: float) -> bool:
    """`got` within max_ulp of `ref`, or within MAX_ABS_TINY of a true value
    below TINY_VALUE, which float64 holds with few or no significant bits."""
    if abs(ref) < TINY_VALUE:
        return abs(Decimal(float(got)) - ref) <= MAX_ABS_TINY
    return ulps(got, ref) <= max_ulp


def grid(b: float) -> np.ndarray:
    """Preactivations covering the bulk, both clamps (b*x about -16 and x
    about 16), the cap b*x > _LOG_SWITCH and far tails."""
    rng = np.random.default_rng(0)
    bx = np.concatenate([np.linspace(-40, 45, 171), rng.uniform(-20, 40, 100)])
    x = np.concatenate([bx / b, np.linspace(-30, 30, 121), rng.uniform(14, 18, 40),
                        [-800.0, -700.0, -100.0, 100.0, 700.0, 800.0]])
    return np.unique(x)


@pytest.mark.parametrize("b", SLOPES)
def test_output_forward_within_ulp_of_reference(b):
    tau = astra_threshold(b)
    x = grid(b)
    assert (b * x > _LOG_SWITCH).sum() >= 10
    t = output_forward(x.copy(), b, tau)
    worst_y = worst_z = 0.0
    for xi, y_hat, z in zip(x, t.y_hat, t.z):
        ref_y, ref_z = reference_output(float(xi), b, tau)
        worst_y = max(worst_y, ulps(y_hat, ref_y))
        worst_z = max(worst_z, ulps(z, ref_z))
    assert worst_y <= MAX_ULP_ASTRA
    assert worst_z <= MAX_ULP_ASTRA
    # Both clamps are reached.
    assert t.y_hat.min() == EPS and t.y_hat.max() == 1.0 - EPS


def test_logistic_forward_within_ulp_of_reference():
    x = np.unique(np.concatenate([grid(1.0), np.linspace(-750, 750, 301)]))
    t = logistic_forward(x.copy())
    worst = max(ulps(z, reference_logistic(float(xi))) for xi, z in zip(x, t.z))
    assert worst <= MAX_ULP_LOGISTIC
    assert t.z.min() == EPS and t.z.max() == 1.0 - EPS


@pytest.mark.parametrize("b", SLOPES)
def test_output_backward_within_ulp_of_reference(b):
    tau = astra_threshold(b)
    x = grid(b)
    t = output_forward(x.copy(), b, tau)
    y_hat = t.y_hat.copy()     # output_backward writes dz/dtau over it
    got = output_backward(t, b, tau, np.empty(len(x)))
    for i, xi in enumerate(x):
        refs = reference_output_backward(float(xi), b, tau, float(y_hat[i]))
        tail = int(b * xi > _LOG_SWITCH)
        for (name, bounds), g, ref in zip(MAX_ULP_BACKWARD.items(), got, refs):
            assert within(g[i], ref, bounds[tail]), (name, float(xi))


def test_logistic_backward_within_ulp_of_reference():
    x = np.unique(np.concatenate([grid(1.0), np.linspace(-750, 750, 301)]))
    dy_dx = logistic_backward(logistic_forward(x.copy()))
    with localcontext() as ctx:
        ctx.prec = 60
        e = [(-Decimal(float(xi))).exp() for xi in x]
        refs = [ei / (1 + ei) ** 2 for ei in e]
    for xi, g, ref in zip(x, dy_dx, refs):
        assert within(g, ref, MAX_ULP_LOGISTIC_BACKWARD), float(xi)
