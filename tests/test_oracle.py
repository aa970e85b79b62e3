"""The output path's forward against a 60-digit decimal reference.

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
    logistic_forward,
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


def reference_logistic(x: float) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        return clamp(1 / (1 + (-Decimal(x)).exp()))


def ulps(got: float, ref: Decimal) -> float:
    return float(abs(Decimal(float(got)) - ref) / Decimal(math.ulp(float(ref))))


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
