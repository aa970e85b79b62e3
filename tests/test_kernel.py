"""The fused epoch kernel against a reference built from the public helpers.

The reference is the straightforward composition the kernel replaces:
separate activation and z-transform calls, np.where for the Leaky ReLU,
np.outer for the hidden gradient, an axis-0 sum for its bias, and Adam as
written in the paper.  Every comparison is bit for bit, signs of zero
included.
"""

import numpy as np
import pytest

from astra.activation import (
    AstraParams,
    astra_backward,
    astra_forward,
    clamp_unit,
    slope_grad_beta,
    threshold_grad_b,
    z_transform,
    z_transform_backward,
)
from astra.losses import ALL_KINDS, loss_and_grad
from astra.metrics import approx_cm
from astra.network import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    LEAKY_SLOPE,
    NARROW_MAX,
    AdamState,
    backward_and_step,
    forward,
    init_mlp,
)
from astra.workspace import Workspace

# Even and odd widths on both sides of NARROW_MAX, and the widths of the
# two benchmark shapes.
WIDTHS = (2, 3, 4, NARROW_MAX, NARROW_MAX + 1, 12)
SEEDS = (0, 1, 2)
STEPS = 3


def same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def batch(seed, n_x, n=400, m1=12):
    rng = np.random.default_rng([seed, n_x, 5])
    X = np.vstack([rng.normal(0.0, 1.0, (n - m1, n_x)),
                   rng.normal(1.5, 0.8, (m1, n_x))])
    y = np.array([0.0] * (n - m1) + [1.0] * m1)
    return X, y, n - m1, m1


def make_model(kind, n_x, n_h, seed):
    ap = (AstraParams.from_tau_init(0.25) if kind.use_astra
          else AstraParams.frozen())
    return init_mlp(n_x, n_h, seed, astra=ap)


def fresh_adam(model):
    return AdamState.for_shapes(model.params())


def reference_forward(model, X):
    hidden_pre = X @ model.w1.T + model.b1
    hidden_act = np.where(hidden_pre > 0, hidden_pre, LEAKY_SLOPE * hidden_pre)
    out_pre = hidden_act @ model.w2 + model.b2
    y_hat = clamp_unit(astra_forward(out_pre, model.astra.b))
    z = clamp_unit(z_transform(y_hat, model.astra.tau))
    return hidden_pre, hidden_act, out_pre, y_hat, z


def reference_step(model, st, X, y, kind, eta, eta_b, m0, m1):
    """One training step as the unfused code took it; returns the loss."""
    ap = model.astra
    hidden_pre, hidden_act, out_pre, y_hat, z = reference_forward(model, X)
    loss_value, dj_dz = loss_and_grad(kind, z, y, m0, m1)
    dz_dy, dz_dtau = z_transform_backward(y_hat, ap.tau)
    dy_dx, dy_db = astra_backward(out_pre, ap.b)
    dj_dx = dj_dz * dz_dy * dy_dx
    dhidden = np.outer(dj_dx, model.w2)
    dhidden *= np.where(hidden_pre > 0, 1.0, LEAKY_SLOPE)
    grads = {"w1": dhidden.T @ X, "b1": dhidden.sum(axis=0),
             "w2": hidden_act.T @ dj_dx, "b2": np.array([float(np.sum(dj_dx))])}
    if ap.trainable:
        dj_db = float(np.sum(dj_dz * (dz_dy * dy_db
                                      + dz_dtau * threshold_grad_b(ap.b))))
        grad_beta = dj_db * slope_grad_beta(ap.beta)
    else:
        grad_beta = 0.0

    st.t += 1
    params = model.params()
    for k, g in grads.items():
        st.m[k] = ADAM_BETA1 * st.m[k] + (1 - ADAM_BETA1) * g
        st.v[k] = ADAM_BETA2 * st.v[k] + (1 - ADAM_BETA2) * g * g
        m_hat = st.m[k] / (1 - ADAM_BETA1 ** st.t)
        v_hat = st.v[k] / (1 - ADAM_BETA2 ** st.t)
        params[k] -= eta * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    model.b2 = float(params["b2"][0])
    ap.step_beta(grad_beta, eta_b)
    return float(loss_value), grad_beta


def assert_same_state(fused, ref, fused_adam, ref_adam):
    for name in ("w1", "b1", "w2"):
        assert same_bits(getattr(fused, name), getattr(ref, name)), name
    assert same_bits(fused.b2, ref.b2)
    for name in ("beta", "b", "tau"):
        assert same_bits(getattr(fused.astra, name), getattr(ref.astra, name)), name
    assert fused_adam.t == ref_adam.t
    assert fused_adam.m.keys() == ref_adam.m.keys() == ref_adam.v.keys()
    for k in ref_adam.m:
        assert same_bits(fused_adam.m[k], ref_adam.m[k]), f"m[{k}]"
        assert same_bits(fused_adam.v[k], ref_adam.v[k]), f"v[{k}]"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n_h", WIDTHS)
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
def test_step_matches_reference(kind, n_h, seed):
    n_x = 3 if n_h <= NARROW_MAX else 22
    X, y, m0, m1 = batch(seed, n_x)
    fused = make_model(kind, n_x, n_h, seed)
    ref = fused.copy()
    fused_adam, ref_adam = fresh_adam(fused), fresh_adam(ref)
    ws = Workspace()
    for _ in range(STEPS):
        trace = forward(fused, X, ws)
        acm = approx_cm(trace.z, y, ws)
        got = backward_and_step(fused, fused_adam, trace, y, kind, 0.01, 0.05,
                                m0, m1, acm)
        want = reference_step(ref, ref_adam, X, y, kind, 0.01, 0.05, m0, m1)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        assert_same_state(fused, ref, fused_adam, ref_adam)


@pytest.mark.parametrize("n_h", WIDTHS)
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
def test_forward_matches_reference(kind, n_h):
    n_x = 3 if n_h <= NARROW_MAX else 22
    X, _, _, _ = batch(7, n_x)
    model = make_model(kind, n_x, n_h, 7)
    trace = forward(model, X)
    hidden_pre, hidden_act, out_pre, y_hat, z = reference_forward(model, X)
    assert same_bits(trace.hidden_pre, hidden_pre)
    assert same_bits(trace.hidden_act, hidden_act)
    assert same_bits(trace.out_pre, out_pre)
    assert same_bits(trace.y_hat, y_hat)
    assert same_bits(trace.z, z)
    assert set(np.unique(trace.leak)) <= {1.0, LEAKY_SLOPE}


def test_step_without_acm_or_workspace_matches():
    # A fresh trace and no ACM take the same arithmetic as the training loop.
    X, y, m0, m1 = batch(3, 3)
    kind = ALL_KINDS[3]
    a = make_model(kind, 3, 2, 3)
    b = a.copy()
    adam_a, adam_b = fresh_adam(a), fresh_adam(b)
    backward_and_step(a, adam_a, forward(a, X), y, kind, 0.01, 0.05)
    trace = forward(b, X, Workspace())
    backward_and_step(b, adam_b, trace, y, kind, 0.01, 0.05, m0, m1,
                      approx_cm(trace.z, y))
    assert_same_state(a, b, adam_a, adam_b)


def test_workspace_reuses_arrays():
    X, _, _, _ = batch(4, 3)
    model = make_model(ALL_KINDS[3], 3, 2, 4)
    ws = Workspace()
    first = forward(model, X, ws)
    second = forward(model, X, ws)
    assert first.z is second.z and first.hidden_act is second.hidden_act
    assert forward(model, X).z is not second.z
