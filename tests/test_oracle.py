"""The output path's forward and backward, the ACM, both losses and the
backward's chain to dj/dx and dj/db against a 60-digit decimal reference.

The reference evaluates the true functions at the same float inputs (x, b
and tau taken exactly), clamping as the kernel does, so each error below is
the kernel's own rounding, in ulp of the true value.
"""

import dataclasses
import math
from decimal import Decimal, localcontext
from functools import cache

import numpy as np
import pytest

from astra.activation import (
    _LOG_SWITCH,
    EPS,
    AstraParams,
    astra_threshold,
    beta_from_slope,
    logistic_backward,
    logistic_forward,
    output_backward,
    output_forward,
)
from astra.losses import LossKind, loss_and_grad
from astra.metrics import approx_cm
from astra.network import LEAKY_SLOPE, AdamState, backward_and_step, forward, init_mlp

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


# ---------------------------------------------------------------------------
# The ACM and both losses, over M0 negatives and m1 = 1 or 5 positives: IR
# 20,000 and 4,000, the paper's worst.

M0 = 20_000
REGIONS = ["bulk", "floor", "ceiling", "clamps"]
EPS64 = Decimal(2) ** -52

# Worst errors measured on these cases before any kernel change (numpy
# 2.4.6, x86-64):
# - TP_apx 0.72 ulp and FN_apx 0.75 ulp;
# - FP_apx 2.16 eps*sum(z) (every negative at the floor, m1 = 5), where
#   FP_apx = sum(z) - TP_apx cancels, and TN_apx 0.32 eps*sum(z) beyond the
#   half ulp of its own rounding;
# - BCE: value 2.69 ulp (floor, m1 = 1), gradient 1.83 (bulk);
# - GMN: value 1.88 ulp (ceiling, m1 = 1), gradient 1.19 (floor, m1 = 1).
MAX_ULP_CELL = 1.0
MAX_EPS_SUM_CELL = 3
MAX_ULP_LOSS = {"bce": (3.0, 2.0), "gmn": (2.5, 1.5)}  # variant: (value, gradient)


def scored_outputs(region: str, m1: int):
    """Clamped outputs z and 0/1 targets of M0 negatives and m1 positives,
    shuffled: every z uniform in [EPS, 1 - EPS] ("bulk"), every negative at
    the lower clamp ("floor"), every positive at the upper clamp
    ("ceiling"), or each z at one clamp or the other ("clamps")."""
    rng = np.random.default_rng([REGIONS.index(region), m1])
    y = rng.permutation(np.r_[np.zeros(M0, int), np.ones(m1, int)])
    z = rng.uniform(EPS, 1.0 - EPS, len(y))
    if region == "floor":
        z[y == 0] = EPS
    elif region == "ceiling":
        z[y == 1] = 1.0 - EPS
    elif region == "clamps":
        z = np.where(rng.random(len(y)) < 0.5, EPS, 1.0 - EPS)
    return z, y


@cache
def reference_scores(region: str, m1: int) -> dict:
    """The true ACM cells, sum(z), BCE value and GMN value of a case at 60
    digits.  The BCE sums its logs as the log of one product, which keeps
    60 digits over 20,000 factors and takes one ln."""
    z, y = scored_outputs(region, m1)
    with localcontext() as ctx:
        ctx.prec = 60
        zd = [Decimal(v) for v in z.tolist()]
        tp = sum(v for v, t in zip(zd, y) if t)
        fp = sum(v for v, t in zip(zd, y) if not t)
        likelihood = Decimal(1)
        for v, t in zip(zd, y):
            likelihood *= v if t else 1 - v
        g = (((M0 - fp) * tp) / (M0 * m1)).sqrt()
        return {"tn": M0 - fp, "fp": fp, "fn": m1 - tp, "tp": tp, "sum": tp + fp,
                "bce": -likelihood.ln() / len(z), "gmn": 1 - g, "g": g}


def ulps_each(got: np.ndarray, refs: list) -> np.ndarray:
    """ulps(got[i], refs[i]) for every i at once: each reference splits into
    its float and the float of the remainder, and (got - float) - remainder
    keeps the error to a few ulp of itself."""
    head = np.array([float(r) for r in refs])
    tail = np.array([float(r - Decimal(h)) for r, h in zip(refs, head.tolist())])
    return np.abs((got - head) - tail) / np.spacing(np.abs(head))


@pytest.mark.parametrize("m1", [1, 5])
@pytest.mark.parametrize("region", REGIONS)
def test_acm_within_reference(region, m1):
    z, y = scored_outputs(region, m1)
    ref = reference_scores(region, m1)
    cm = approx_cm(z, y)
    assert ulps(cm.tp, ref["tp"]) <= MAX_ULP_CELL
    assert ulps(cm.fn, ref["fn"]) <= MAX_ULP_CELL
    # FP_apx carries the rounding of sum(z), and TN_apx = m0 - FP_apx
    # carries it too, with half an ulp of its own rounding.
    bound = MAX_EPS_SUM_CELL * EPS64 * ref["sum"]
    assert abs(Decimal(cm.fp) - ref["fp"]) <= bound
    assert abs(Decimal(cm.tn) - ref["tn"]) <= bound + Decimal(math.ulp(cm.tn)) / 2


@pytest.mark.parametrize("variant", ["bce", "gmn"])
@pytest.mark.parametrize("m1", [1, 5])
@pytest.mark.parametrize("region", REGIONS)
def test_loss_within_ulp_of_reference(region, m1, variant):
    z, y = scored_outputs(region, m1)
    ref = reference_scores(region, m1)
    value, grad = loss_and_grad(LossKind(variant, False), z, y)
    max_value, max_grad = MAX_ULP_LOSS[variant]
    assert ulps(value, ref[variant]) <= max_value
    with localcontext() as ctx:
        ctx.prec = 60
        if variant == "bce":    # -1/(n z) on a positive, 1/(n (1 - z)) on a negative
            n = len(z)
            refs = [-1 / (n * Decimal(v)) if t else 1 / (n * (1 - Decimal(v)))
                    for v, t in zip(z.tolist(), y.tolist())]
        else:                   # -G/(2 TP) on a positive, G/(2 TN) on a negative
            pos, neg = -ref["g"] / 2 / ref["tp"], ref["g"] / 2 / ref["tn"]
            refs = [pos if t else neg for t in y.tolist()]
    assert ulps_each(grad, refs).max() <= max_grad


# ---------------------------------------------------------------------------
# The backward's chain from dj/dz to dj/dx and dj/db, over CHAIN_ROWS rows
# of which 10 are positive, with dj/dz from each loss.

CHAIN_ROWS = 2_010

# Worst errors measured on these rows before any kernel change, the same
# way: dj/dx 59.6 ulp in the bulk (b = 1 + 1e-7) and 93.5 in the tail
# (b = 30), as its partials' dy/dx; dj/db 3.11 eps * sum |term| (b = 4,
# BCE), which sums terms of both signs; the logistic's dj/dx 3.96 ulp.
MAX_ULP_DJ_DX = (65.0, 100.0)    # (bulk, tail)
MAX_EPS_SUM_DJ_DB = 4
MAX_ULP_LOGISTIC_DJ_DX = 5.0


def reference_tau_grad(b: float) -> Decimal:
    """dtau/db of tau(b) = 1 - (1 + b)**(-1/b), at 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        B = Decimal(b)
        log1p_b = (1 + B).ln()
        return (-log1p_b / B).exp() * (1 / (B * (1 + B)) - log1p_b / (B * B))


def chain_step(b: float, variant: str):
    """One backward_and_step of `variant` on CHAIN_ROWS rows whose output
    preactivations are grid(b) and uniform b*x in [-20, 40] (b = 1: the
    frozen logistic), through a 1-1-1 model whose Leaky ReLU the input
    undoes.  Returns (x, y_hat, the slope before the step, dj/dz, dj/dx,
    grad_beta), x and y_hat copied before the backward writes over them."""
    rng = np.random.default_rng(1)
    x = grid(b)
    x = np.concatenate([x, rng.uniform(-20, 40, CHAIN_ROWS - len(x)) / b])
    y = np.zeros(CHAIN_ROWS, int)
    y[rng.choice(CHAIN_ROWS, 10, replace=False)] = 1
    astra = AstraParams.frozen() if b == 1 else AstraParams(beta_from_slope(b))
    model = init_mlp(1, 1, 0, astra)
    model.w1, model.w2 = np.ones((1, 1)), np.ones(1)
    inputs = np.where(x < 0, x / LEAKY_SLOPE, x)[:, None]
    trace = forward(model, np.asfortranarray(inputs))
    x, y_hat, slope = trace.out_pre.copy(), trace.y_hat.copy(), dataclasses.replace(astra)
    _, grad_beta = backward_and_step(model, AdamState(model), trace, y,
                                     LossKind(variant, astra.trainable), 1e-3, 1e-2)
    return x, y_hat, slope, trace.dj_dz, trace.dj_dx, grad_beta


@cache
def reference_partials(b: float) -> tuple:
    """reference_output_backward of every chain row at slope b; the rows
    and their y_hat are the same for both losses."""
    x, y_hat, slope, *_ = chain_step(b, "bce")
    return tuple(reference_output_backward(float(xi), slope.b, slope.tau, float(yi))
                 for xi, yi in zip(x, y_hat))


@pytest.mark.parametrize("variant", ["bce", "gmn"])
@pytest.mark.parametrize("b", SLOPES)
def test_chain_within_reference(b, variant):
    x, _, slope, dj_dz, dj_dx, grad_beta = chain_step(b, variant)
    with localcontext() as ctx:
        ctx.prec = 60
        tau_grad = reference_tau_grad(slope.b)
        terms = []     # of dj/db: dj/dz * (dz/dy * dy/db + dz/dtau * dtau/db)
        for xi, g, got, (dy_dx, dz_dy, dy_db, dz_dtau) in zip(
                x, dj_dz.tolist(), dj_dx, reference_partials(b)):
            g = Decimal(g)
            tail = int(slope.b * xi > _LOG_SWITCH)
            assert within(got, g * dz_dy * dy_dx, MAX_ULP_DJ_DX[tail]), float(xi)
            terms.append(g * (dz_dy * dy_db + dz_dtau * tau_grad))
        beta = Decimal(slope.beta)
        db_dbeta = Decimal(1) if beta > 0 else beta.exp()
        scale = EPS64 * sum(map(abs, terms)) * db_dbeta
        assert abs(Decimal(grad_beta) - sum(terms) * db_dbeta) <= MAX_EPS_SUM_DJ_DB * scale


@pytest.mark.parametrize("variant", ["bce", "gmn"])
def test_logistic_chain_within_ulp_of_reference(variant):
    x, _, _, dj_dz, dj_dx, grad_beta = chain_step(1.0, variant)
    assert grad_beta == 0.0
    with localcontext() as ctx:
        ctx.prec = 60
        for xi, g, got in zip(x.tolist(), dj_dz.tolist(), dj_dx):
            e = (-Decimal(xi)).exp()     # dj/dx = dj/dz * e/(1 + e)**2
            assert within(got, Decimal(g) * e / (1 + e) ** 2, MAX_ULP_LOGISTIC_DJ_DX), xi
