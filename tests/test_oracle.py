"""The output path's forward and backward, the ACM, both losses and the
backward's chain to dj/dx and dj/db against a 60-digit decimal reference,
and whole training steps against the same steps in np.longdouble.

The reference evaluates the true functions at the same float inputs (x, b
and tau taken exactly), clamping as the kernel does, so each error below is
the kernel's own rounding, in ulp of the true value unless stated.
"""

import dataclasses
import math
from decimal import Decimal, localcontext
from functools import cache

import numpy as np
import pytest

from astra.activation import (
    _LOG_SWITCH,
    B_MAX,
    EPS,
    AstraParams,
    astra_backward,
    astra_threshold,
    beta_from_slope,
    logistic_backward,
    logistic_forward,
    output_forward,
    z_transform_backward,
)
from astra.losses import LossKind, loss_and_grad
from astra.metrics import approx_cm, class_split
from astra.network import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    LEAKY_SLOPE,
    ROW_BLOCK_BYTES,
    AdamState,
    backward_and_step,
    forward,
    hidden_width,
    init_mlp,
    param_views,
)
from astra.trainer import BETA_INIT

# b near 1, the bulk, and the slope cap B_MAX.
SLOPES = [1 + 1e-7, 1.5, 4.0, 30.0, 60.0]
LO, HI = Decimal(EPS), Decimal(1.0 - EPS)

# Worst errors measured on these grids before any kernel change (numpy 2.4.6,
# x86-64): y_hat 8.42 ulp (b = 1.5) and z 8.63 ulp (b = 60), where b*x is
# rounded near the lower clamp (b*x about -16); the logistic's z 1.38 ulp.
MAX_ULP_ASTRA = 9.0
MAX_ULP_LOGISTIC = 2.0

# The backward's partials on the grids above and on chain_step's rows,
# measured the same way, each against the rounding it carries.  The
# rounding of -u/b goes into exp(-u/b) and that of b*x into s, a relative
# error of up to about (u/b + |b*x|/(1 + s)) eps: call that sum the growth.
# - dy/dx 1.61 ulp * (1 + growth) (b = 1.5, x = 24.7); in plain ulp it
#   read 55.2 (b = 1 + 1e-7, x = 34.07) and 36.7 (b = 1.5, x = -100).
# - dy/db = exp(-u/b) * (r*(1 + b*x) - u) / b^2 changes sign where
#   r*(1 + b*x) = u, so no ulp bound holds near that root (it read 195.8
#   ulp at b = 1.5, x = 0.708, and 1,273 at b = 4, x = 100).  Its error
#   read 0.66 eps * (1 + growth) (b = 60, x = -0.0069) times
#   exp(-u/b) * (r*(1 + |b*x|) + u) / b^2, the size of the terms it
#   cancels; with 1 + b*x in place of 1 + |b*x| that size cancels too, near
#   b*x = -2, and the error read 410.6 times it.
# - dz/dy 4.60 ulp and dz/dtau 5.97 (b = 1.5), the logistic's dy/dx 2.7.
# Every smaller true value was within 4.2e-217 absolute.
MAX_ULP_DY_DX = 2.0               # times (1 + growth)
MAX_EPS_DY_DB = 1                 # times (1 + growth) and the terms' size
MAX_ULP_DZ_DY, MAX_ULP_DZ_DTAU = 6.0, 7.0
MAX_ULP_LOGISTIC_BACKWARD = 3.0
TINY_VALUE, MAX_ABS_TINY = Decimal("1e-200"), Decimal("1e-216")
EPS64 = Decimal(2) ** -52


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
    """(dy/dx, dz/dy, dy/db, dz/dtau) of astra_backward and
    z_transform_backward at 60 digits, the z-transform's at the kernel's own
    clamped y_hat, then the growth and the size of dy/db's terms that
    MAX_ULP_DY_DX and MAX_EPS_DY_DB scale."""
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
                one_my * (r * (1 + bx) - u) / (B * B), -Y * (1 - Y) / den2,
                u / B + abs(bx) / (1 + s), one_my * (r * (1 + abs(bx)) + u) / (B * B))


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
    # dy/db is bounded against its terms' size, not in ulp.
    for rows in ("grid", "chain"):
        x, slope, tau, refs = backward_rows(b, rows)
        dy_dx, dy_db = astra_backward(x, slope)
        dz_dy, dz_dtau = z_transform_backward(output_forward(x, slope, tau).y_hat, tau)
        for xi, dy_dx, dz_dy, dy_db, dz_dtau, ref in zip(
                x.tolist(), dy_dx, dz_dy, dy_db, dz_dtau, refs):
            k = 1 + ref[4]      # 1 + growth
            assert within(dy_dx, ref[0], MAX_ULP_DY_DX * float(k)), (rows, "dy_dx", xi)
            assert within(dz_dy, ref[1], MAX_ULP_DZ_DY), (rows, "dz_dy", xi)
            assert within(dz_dtau, ref[3], MAX_ULP_DZ_DTAU), (rows, "dz_dtau", xi)
            bound = (MAX_ABS_TINY if ref[5] < TINY_VALUE
                     else MAX_EPS_DY_DB * EPS64 * k * ref[5])
            assert abs(Decimal(float(dy_db)) - ref[2]) <= bound, (rows, "dy_db", xi)


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
def backward_rows(b: float, rows: str) -> tuple:
    """(x, slope, tau, reference_output_backward of each row) of the rows
    grid(b) at slope b, or of chain_step's rows at its slope; chain_step's
    rows and their y_hat are the same for both losses."""
    if rows == "grid":
        x, slope, tau = grid(b), b, astra_threshold(b)
        y_hat = output_forward(x.copy(), b, tau).y_hat
    else:
        x, y_hat, astra, *_ = chain_step(b, "bce")
        slope, tau = astra.b, astra.tau
    return x, slope, tau, tuple(reference_output_backward(xi, slope, tau, yi)
                                for xi, yi in zip(x.tolist(), y_hat.tolist()))


@pytest.mark.parametrize("variant", ["bce", "gmn"])
@pytest.mark.parametrize("b", SLOPES)
def test_chain_within_reference(b, variant):
    x, _, slope, dj_dz, dj_dx, grad_beta = chain_step(b, variant)
    with localcontext() as ctx:
        ctx.prec = 60
        tau_grad = reference_tau_grad(slope.b)
        terms = []     # of dj/db: dj/dz * (dz/dy * dy/db + dz/dtau * dtau/db)
        for xi, g, got, (dy_dx, dz_dy, dy_db, dz_dtau, *_) in zip(
                x, dj_dz.tolist(), dj_dx, backward_rows(b, "chain")[3]):
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


# ---------------------------------------------------------------------------
# End to end: STEPS training steps of forward, approx_cm and
# backward_and_step against the same steps in np.longdouble, written out
# below, on a 400 x 3 batch with 12 positives at n_h = 2, and on a 22-feature
# batch at n_h = 12 whose weight gradient sums 3 full row blocks and a
# ragged one.

LD = np.longdouble
STEPS, ETA, ETA_B = 20, 0.01, 0.1
BLOCK_ROWS = ROW_BLOCK_BYTES // (8 * 22)
BATCHES = {"": (400, 3, 12), "-blocks": (3 * BLOCK_ROWS + BLOCK_ROWS // 3, 22, 36)}


def step_batch(n, n_x, m1):
    """The batch shape of test_kernel.py: n - m1 negatives, m1 positives
    shifted by 1.5, X feature-major."""
    rng = np.random.default_rng([0, n_x, 5])
    X = np.vstack([rng.normal(0.0, 1.0, (n - m1, n_x)),
                   rng.normal(1.5, 0.8, (m1, n_x))])
    return np.asfortranarray(X), np.r_[np.zeros(n - m1, int), np.ones(m1, int)]


def ld_slope(beta):
    """(beta, b, tau, db/dbeta, dtau/db) of AstraParams.set_beta's rule."""
    b = 2 + beta if beta > 0 else 1 + np.exp(beta)
    if b > B_MAX:
        b, beta = LD(B_MAX), LD(beta_from_slope(B_MAX))
    g = np.exp(-np.log1p(b) / b)                     # (1 + b)**(-1/b)
    return (beta, b, 1 - g, LD(1) if beta > 0 else np.exp(beta),
            g * (1 / (b * (1 + b)) - np.log1p(b) / (b * b)))


def longdouble_steps(kind: LossKind, X, y, theta, beta):
    """theta and beta after each of STEPS steps from the given ones, every
    value held in np.longdouble: the kernel's formulas, clamps included,
    without its float64 shortcuts (the cap of s, the logistic's floor)."""
    X, theta, beta = X.astype(LD), theta.astype(LD), LD(beta)
    n_h = (len(theta) - 1) // (X.shape[1] + 2)
    lo, hi = LD(EPS), 1 - LD(EPS)
    pos, m1 = y == 1, int(y.sum())
    m0, n = len(y) - m1, len(y)
    m, v, out = np.zeros_like(theta), np.zeros_like(theta), []
    for t in range(1, STEPS + 1):
        w1, b1, w2, b2 = param_views(theta, n_h, X.shape[1])
        beta, b, tau, db_dbeta, dtau_db = ld_slope(beta)
        # Hidden layer and Leaky ReLU, then the output preactivation.
        h = X @ w1.T + b1
        leak = np.where(h > 0, LD(1), LD(LEAKY_SLOPE))
        act = h * leak
        pre = act @ w2 + b2
        if kind.use_astra:      # the asymmetric sigmoid and the z-transform
            s = b * np.exp(b * pre)
            u = np.log1p(s)
            y_hat = np.clip(1 - np.exp(-u / b), lo, hi)
            den = y_hat * (1 - tau) + (1 - y_hat) * tau
            z = np.clip(y_hat * (1 - tau) / den, lo, hi)
        else:                   # the logistic
            y_raw = 1 / (1 + np.exp(-pre))
            z = np.clip(y_raw, lo, hi)
        # The ACM's TP and TN, and each loss's gradient wrt z.
        tp, tn = z[pos].sum(), m0 - z[~pos].sum()
        if kind.variant == "bce":
            dj_dz = np.where(pos, -1 / (n * z), 1 / (n * (1 - z)))
        else:
            g_apx = np.sqrt(tn * tp / (m0 * m1))
            dj_dz = np.where(pos, -g_apx / (2 * tp), g_apx / (2 * tn))
        # The chain to dj/dx and, for a trainable slope, dj/db.
        if kind.use_astra:
            r, one_my = s / (1 + s), np.exp(-u / b)
            den2 = den * den
            dz_dy = tau * (1 - tau) / den2
            dy_db = one_my * (r * (1 + b * pre) - u) / (b * b)
            dz_dtau = -y_hat * (1 - y_hat) / den2
            dj_dx = dj_dz * dz_dy * r * one_my
            grad_beta = (dj_dz * (dz_dy * dy_db + dz_dtau * dtau_db)).sum() * db_dbeta
        else:
            dj_dx = dj_dz * y_raw * (1 - y_raw)
            grad_beta = LD(0)
        # The hidden backward, in theta's layout.
        d_hidden = np.outer(dj_dx, w2) * leak
        grad = np.concatenate([(d_hidden.T @ X).ravel(), d_hidden.sum(axis=0),
                               act.T @ dj_dx, [dj_dx.sum()]])
        # Adam on theta, a plain step on beta.
        m = ADAM_BETA1 * m + (1 - LD(ADAM_BETA1)) * grad
        v = ADAM_BETA2 * v + (1 - LD(ADAM_BETA2)) * grad * grad
        m_hat, v_hat = m / (1 - LD(ADAM_BETA1) ** t), v / (1 - LD(ADAM_BETA2) ** t)
        theta = theta - ETA * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if kind.use_astra:
            beta = ld_slope(beta - ETA_B * grad_beta)[0]
        out.append((theta, beta))
    return out


# Worst error over the 20 steps, relative to theta's largest element and
# to |beta|, measured on x86-64 (80-bit np.longdouble, numpy 2.4.6) at one
# and two BLAS threads: theta 5.33e-16 (bce-astra), 4.63e-16 (gmn-astra)
# and 4.94e-16 (gmn); beta 2.8e-16 (bce-astra).  Element by element theta
# read up to 3.97e-13, where one element crossed zero (2.2e-4 at step 4).
# On the blocked batch theta read 1.59e-15 (bce-astra), 7.98e-16
# (gmn-astra) and 5.67e-16 (gmn), and beta 3.78e-16 (gmn-astra); one product
# over all rows and the chain through the partials gave 1.45e-15, 7.12e-16
# and 5.67e-16 there.
MAX_REL_STEP = 2e-15


@pytest.mark.skipif(np.finfo(LD).eps == np.finfo(float).eps,
                    reason="np.longdouble is float64 here: no wider reference")
@pytest.mark.parametrize("kind, batch", [
    pytest.param(kind, batch, id=kind.name + suffix)
    for suffix, batch in BATCHES.items()
    for kind in (LossKind("bce", True), LossKind("gmn", True), LossKind("gmn", False))])
def test_steps_within_longdouble_reference(kind, batch):
    X, y = step_batch(*batch)
    astra = AstraParams(BETA_INIT) if kind.use_astra else AstraParams.frozen()
    model = init_mlp(X.shape[1], hidden_width(X.shape[1]), 0, astra)
    want = longdouble_steps(kind, X, y, model.theta, astra.beta)
    adam, split, trace = AdamState(model), class_split(y), None
    for step, (theta, beta) in enumerate(want, 1):
        trace = forward(model, X, trace)
        backward_and_step(model, adam, trace, split, kind, ETA, ETA_B,
                          approx_cm(trace.z, split))
        err = np.abs(model.theta - theta).max() / np.abs(theta).max()
        assert err <= MAX_REL_STEP, (step, float(err))
        assert abs(model.astra.beta - beta) <= MAX_REL_STEP * abs(beta), step
