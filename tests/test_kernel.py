"""The fused epoch kernel against a reference built from the public helpers.

The reference is the straightforward composition the kernel replaces:
separate activation and z-transform calls, np.where for the Leaky ReLU,
np.outer for the hidden gradient, an axis-0 sum for its bias, and Adam as
written in the paper, one parameter at a time.  A frozen slope (b = 1,
tau = 0.5) has its own reference, the logistic written out, and so has the
ASTra chain from dj/dz to dj/dx and dj/db, in closed form.  The reference
holds its (n, n_h) hidden arrays column-major, as the kernel does, and then
every comparison is bit for bit, signs of zero included.  Held row-major,
with the ASTra chain taken through the public partials, the same
composition rounds the hidden-layer products, the bias sum and the chain
differently; a second comparison bounds that difference.  A third bounds
the logistic path against the general path at b = 1.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from astra.activation import (
    AstraParams,
    LogisticTerms,
    NonFiniteError,
    astra_backward,
    astra_forward,
    clamp_unit,
    logistic_backward,
    logistic_forward,
    output_forward,
    slope_grad_beta,
    threshold_grad_b,
    z_transform,
    z_transform_backward,
)
from astra.losses import ALL_KINDS, loss_and_grad
from astra.metrics import approx_cm, class_split, positive_cells
from astra.network import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    LEAKY_SLOPE,
    PARAM_NAMES,
    ROW_BLOCK_BYTES,
    AdamState,
    ForwardTrace,
    backward_and_step,
    forward,
    hidden_width,
    init_mlp,
    param_views,
)
from astra.trainer import BETA_INIT, _val_fnr_apx

# Even and odd widths from 1 up, and the widths of the two benchmark shapes.
WIDTHS = (1, 2, 3, 4, 5, 6, 12)
SEEDS = (0, 1, 2)
STEPS = 3


def same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def batch(seed, n_x, n=400, m1=12):
    """X feature-major, as the trainer passes it, and 0/1 targets."""
    rng = np.random.default_rng([seed, n_x, 5])
    X = np.vstack([rng.normal(0.0, 1.0, (n - m1, n_x)),
                   rng.normal(1.5, 0.8, (m1, n_x))])
    y = np.array([0.0] * (n - m1) + [1.0] * m1)
    return np.asfortranarray(X), y


def make_model(kind, n_x, n_h, seed):
    ap = (AstraParams(BETA_INIT) if kind.use_astra
          else AstraParams.frozen())
    return init_mlp(n_x, n_h, seed, astra=ap)


@dataclass
class ReferenceAdam:
    """Adam's moments per parameter, as the paper writes them."""

    m: dict
    v: dict
    t: int = 0


def fresh_adam(model):
    return AdamState(model)


def named_params(model) -> dict:
    """The model's parameter views, by name."""
    return dict(zip(PARAM_NAMES, param_views(model.theta, model.n_h, model.n_x)))


def reference_adam(model):
    params = named_params(model)
    return ReferenceAdam(m={k: np.zeros_like(p) for k, p in params.items()},
                         v={k: np.zeros_like(p) for k, p in params.items()})


def n_inputs(n_h):
    """The skin shape's 3 inputs, or the wide shape's 22 from width 6 on."""
    return 3 if n_h <= 5 else 22


def reference_logistic(x):
    """(e, y) of the frozen slope's output y = 1/(1 + e), e = exp(-x) with
    x floored at -700."""
    e = np.exp(-np.maximum(x, -700.0))
    return e, 1.0 / (1.0 + e)


def reference_forward(model, X, hold=np.asfortranarray):
    """`hold` sets the memory order of the hidden arrays before each BLAS
    product: np.asfortranarray as the kernel, np.ascontiguousarray as the
    row-major composition."""
    hidden_pre = hold(X @ model.w1.T) + model.b1
    hidden_act = np.where(hidden_pre > 0, hidden_pre, LEAKY_SLOPE * hidden_pre)
    out_pre = hold(hidden_act) @ model.w2 + model.b2
    if model.astra.trainable:
        y_hat = clamp_unit(astra_forward(out_pre, model.astra.b))
        z = clamp_unit(z_transform(y_hat, model.astra.tau))
    else:
        y_hat = z = clamp_unit(reference_logistic(out_pre)[1])
    return hidden_pre, hidden_act, out_pre, y_hat, z


def closed_form_chain(ap, out_pre, y_hat, dj_dz):
    """(dj/dx, dj/db) of the ASTra output, the chain of its partials in
    closed form, written out: g = dj/dz / den^2, e = exp(-u/b) and
    r = s/(1 + s) with s = b*exp(b*x), capped as the kernel caps it."""
    b, tau = ap.b, ap.tau
    bx = b * out_pre
    s = b * np.exp(np.minimum(bx, 35.0))
    u = np.where(bx > 35.0, np.log(b) + bx, np.log1p(s))
    e, r = np.exp(u / -b), s / (1.0 + s)
    g = dj_dz / ((1.0 - y_hat) * tau + y_hat * (1.0 - tau)) ** 2
    dj_dx = r * (g * e * (tau * (1.0 - tau)))
    dj_db = (tau * (1.0 - tau) / (b * b) * float(np.sum(((1.0 + bx) * r - u) * (g * e)))
             - threshold_grad_b(b) * float(np.sum(y_hat * (1.0 - y_hat) * g)))
    return dj_dx, dj_db


def partials_chain(ap, out_pre, y_hat, dj_dz):
    """(dj/dx, dj/db) of the ASTra output as the chain of the public
    partials, product by product."""
    dz_dy, dz_dtau = z_transform_backward(y_hat, ap.tau)
    dy_dx, dy_db = astra_backward(out_pre, ap.b)
    return (dj_dz * dz_dy * dy_dx,
            float(np.sum(dj_dz * (dz_dy * dy_db + dz_dtau * threshold_grad_b(ap.b)))))


def reference_step(model, st, X, y, kind, eta, eta_b, hold=np.asfortranarray,
                   chain=closed_form_chain):
    """One training step as the unfused code took it; returns the loss."""
    ap = model.astra
    hidden_pre, hidden_act, out_pre, y_hat, z = reference_forward(model, X, hold)
    loss_value, dj_dz = loss_and_grad(kind, z, y)
    if ap.trainable:
        dj_dx, dj_db = chain(ap, out_pre, y_hat, dj_dz)
    else:
        e, y_out = reference_logistic(out_pre)
        dj_dx = dj_dz * (e * y_out * y_out)
    dhidden = hold(np.outer(dj_dx, model.w2))
    dhidden *= np.where(hidden_pre > 0, 1.0, LEAKY_SLOPE)
    grads = {"w1": dhidden.T @ X, "b1": dhidden.sum(axis=0),
             "w2": hold(hidden_act).T @ dj_dx,
             "b2": np.array([float(np.sum(dj_dx))])}
    grad_beta = dj_db * slope_grad_beta(ap.beta) if ap.trainable else 0.0

    st.t += 1
    params = named_params(model)
    for k, g in grads.items():
        st.m[k] = ADAM_BETA1 * st.m[k] + (1 - ADAM_BETA1) * g
        st.v[k] = ADAM_BETA2 * st.v[k] + (1 - ADAM_BETA2) * g * g
        m_hat = st.m[k] / (1 - ADAM_BETA1 ** st.t)
        v_hat = st.v[k] / (1 - ADAM_BETA2 ** st.t)
        params[k] -= eta * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    model.b2 = float(params["b2"][0])
    ap.step_beta(grad_beta, eta_b)
    return float(loss_value), grad_beta


def assert_same_model(a, b):
    """The weights and the slope parameters, bit for bit."""
    for name in ("w1", "b1", "w2"):
        assert same_bits(getattr(a, name), getattr(b, name)), name
    assert same_bits(a.b2, b.b2)
    for name in ("beta", "b", "tau"):
        assert same_bits(getattr(a.astra, name), getattr(b.astra, name)), name


def assert_same_state(fused, ref, fused_adam, ref_adam):
    assert_same_model(fused, ref)
    assert fused_adam.t == ref_adam.t
    # The flat moments hold w1 row by row, then b1, w2 and b2.
    assert tuple(ref_adam.m) == tuple(ref_adam.v) == PARAM_NAMES
    i = 0
    for k in PARAM_NAMES:
        n = ref_adam.m[k].size
        assert same_bits(fused_adam.m[i:i + n], ref_adam.m[k].ravel()), f"m[{k}]"
        assert same_bits(fused_adam.v[i:i + n], ref_adam.v[k].ravel()), f"v[{k}]"
        i += n
    assert i == fused_adam.m.size == fused_adam.v.size


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n_h", WIDTHS)
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
def test_step_matches_reference(kind, n_h, seed):
    n_x = n_inputs(n_h)
    X, y = batch(seed, n_x)
    split = class_split(y)
    fused = make_model(kind, n_x, n_h, seed)
    ref = fused.copy()
    fused_adam, ref_adam = fresh_adam(fused), reference_adam(ref)
    ws = ForwardTrace(X, fused)
    for _ in range(STEPS):
        trace = forward(fused, X, ws)
        acm = approx_cm(trace.z, split)
        got = backward_and_step(fused, fused_adam, trace, split, kind, 0.01,
                                0.05, acm)
        want = reference_step(ref, ref_adam, X, y, kind, 0.01, 0.05)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        assert_same_state(fused, ref, fused_adam, ref_adam)


@pytest.mark.parametrize("n_h", WIDTHS)
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
def test_forward_matches_reference(kind, n_h):
    n_x = n_inputs(n_h)
    X, _ = batch(7, n_x)
    model = make_model(kind, n_x, n_h, 7)
    trace = forward(model, X)
    hidden_pre, hidden_act, out_pre, y_hat, z = reference_forward(model, X)
    assert same_bits(trace.leak, np.where(hidden_pre > 0, 1.0, LEAKY_SLOPE))
    assert same_bits(trace.hidden_act, hidden_act)
    assert same_bits(trace.out_pre, out_pre)
    assert same_bits(trace.y_hat, y_hat)
    assert same_bits(trace.z, z)
    assert set(np.unique(trace.leak)) <= {1.0, LEAKY_SLOPE}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n_h", WIDTHS)
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
def test_steps_near_row_major_reference(kind, n_h, seed):
    # The size of the rounding change from the row-major hidden layer and
    # from the ASTra chain taken product by product.
    n_x = n_inputs(n_h)
    X, y = batch(seed, n_x)
    fused = make_model(kind, n_x, n_h, seed)
    ref = fused.copy()
    fused_adam, ref_adam = fresh_adam(fused), reference_adam(ref)
    ws = ForwardTrace(X, fused)
    for _ in range(STEPS):
        trace = forward(fused, X, ws)
        backward_and_step(fused, fused_adam, trace, y, kind, 0.01, 0.05,
                          approx_cm(trace.z, y))
        reference_step(ref, ref_adam, X, y, kind, 0.01, 0.05,
                       hold=np.ascontiguousarray, chain=partials_chain)
    for name in ("w1", "b1", "w2", "b2"):
        np.testing.assert_allclose(getattr(fused, name), getattr(ref, name),
                                   rtol=1e-12, atol=1e-15, err_msg=name)
    for name in ("beta", "b", "tau"):
        np.testing.assert_allclose(getattr(fused.astra, name),
                                   getattr(ref.astra, name),
                                   rtol=1e-12, atol=1e-15, err_msg=name)


def test_step_without_acm_or_workspace_matches():
    # A fresh trace, the targets and no ACM take the same arithmetic as the
    # training loop, which passes a class split and its ACM, on both output
    # paths.
    X, y = batch(3, 3)
    split = class_split(y)
    for kind in ALL_KINDS:
        a = make_model(kind, 3, 2, 3)
        b = a.copy()
        adam_a, adam_b = fresh_adam(a), fresh_adam(b)
        backward_and_step(a, adam_a, forward(a, X), y, kind, 0.01, 0.05)
        trace = forward(b, X, ForwardTrace(X, b))
        backward_and_step(b, adam_b, trace, split, kind, 0.01, 0.05,
                          approx_cm(trace.z, split))
        assert_same_model(a, b)
        assert adam_a.t == adam_b.t == 1
        assert same_bits(adam_a.m, adam_b.m) and same_bits(adam_a.v, adam_b.v)


def test_workspace_reuses_arrays():
    X, _ = batch(4, 3)
    model = make_model(ALL_KINDS[3], 3, 2, 4)
    ws = ForwardTrace(X, model)
    first = forward(model, X, ws)
    second = forward(model, X, ws)
    assert np.shares_memory(first.z, second.z)
    assert np.shares_memory(first.hidden_act, second.hidden_act)
    assert not np.shares_memory(forward(model, X).z, second.z)


def test_backward_writes_over_the_terms_it_replaces():
    # dy/dx takes the buffer of the term it replaces: a trace holds no row
    # buffer for it.
    x = np.linspace(-40.0, 40.0, 801)
    logistic = logistic_forward(x)
    assert np.shares_memory(logistic_backward(logistic), logistic.e)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
def test_trace_and_adam_hold_every_array_a_step_writes(kind):
    X, y = batch(4, 3)
    model = make_model(kind, 3, 2, 4)
    trace, adam = ForwardTrace(X, model, X[:5]), AdamState(model)
    assert trace.dj_dz.shape == trace.dj_dx.shape == (len(X),)
    for flat in (adam.m, adam.v, adam.grad, adam.tmp, adam.den):
        assert flat.shape == model.theta.shape
    for view in (adam.grad_w1, adam.grad_b1, adam.grad_w2, adam.grad_b2):
        assert view.base is adam.grad
    assert adam.block.shape == (model.n_x, model.n_h)
    held = (trace.dj_dz, trace.dj_dx, adam.grad, adam.tmp, adam.den, adam.block)
    backward_and_step(model, adam, forward(model, X, trace), y, kind, 0.01, 0.05)
    now = (trace.dj_dz, trace.dj_dx, adam.grad, adam.tmp, adam.den, adam.block)
    assert all(a is b for a, b in zip(now, held))


BLOCK_ROWS = ROW_BLOCK_BYTES // (8 * 22)


# X of exactly one block at 22 features, of 3 full blocks and a ragged one,
# and the skin fold's 12,020 x 3, which stays one block.
@pytest.mark.parametrize("n, n_x, n_blocks", [
    (BLOCK_ROWS, 22, 1), (3 * BLOCK_ROWS + BLOCK_ROWS // 3, 22, 4), (12020, 3, 1)],
    ids=lambda v: str(v))
@pytest.mark.parametrize("kind", ALL_KINDS[1::2], ids=lambda k: k.name)
def test_weight_gradient_sums_row_blocks_in_order(kind, n, n_x, n_blocks):
    X, y = batch(8, n_x, n=n, m1=36)
    model = make_model(kind, n_x, hidden_width(n_x), 8)
    adam, trace = AdamState(model), forward(model, X)
    backward_and_step(model, adam, trace, y, kind, 0.01, 0.05)
    dhidden, rows = trace.hidden_act, ROW_BLOCK_BYTES // (8 * n_x)

    def product(a, b):       # into an (n_x, n_h) array laid out as grad_w1.T
        return np.matmul(a, b, out=np.empty((model.n_h, n_x)).T)

    blocks = [product(X[i:i + rows].T, dhidden[i:i + rows]) for i in range(0, n, rows)]
    assert len(blocks) == n_blocks
    want = blocks[0]
    for block in blocks[1:]:
        want += block
    assert same_bits(adam.grad_w1.T, want)
    np.testing.assert_allclose(adam.grad_w1.T, product(X.T, dhidden),
                               rtol=1e-12, atol=1e-15)


# A skin-shaped batch at n_h = 2, small and at paper scale, and the wide
# shape at n_h = 12; 7 validation positives as in a skin-cv fold, and 36.
@pytest.mark.parametrize("n, n_x, n_h", [(150, 3, 2), (147033, 3, 2),
                                         (7200, 22, 12)],
                         ids=lambda v: str(v))
@pytest.mark.parametrize("m", [7, 36])
@pytest.mark.parametrize("kind", ALL_KINDS[1::2], ids=lambda k: k.name)
def test_validation_rows_ride_in_the_forward(kind, n, n_x, n_h, m):
    # A run's one forward over its train rows and validation positives
    # gives the bits of a train forward and a separate validation forward.
    rng = np.random.default_rng([n, n_x, m])
    X = np.asfortranarray(rng.normal(0.0, 1.0, (n, n_x)))
    X_val = np.asfortranarray(rng.normal(1.5, 0.8, (m, n_x)))
    model = make_model(kind, n_x, n_h, 9)
    model.b1 = rng.normal(0.0, 0.5, n_h)
    model.b2 = float(rng.normal())
    both = forward(model, X, ForwardTrace(X, model, X_val))
    train_only, val_only = forward(model, X), forward(model, X_val)
    for name in ("leak", "hidden_act", "out_pre", "y_hat", "z"):
        assert same_bits(getattr(both, name), getattr(train_only, name)), name
    assert same_bits(both.val_z, val_only.z)
    fn, tp = positive_cells(val_only.z)
    assert same_bits(_val_fnr_apx(both), fn / (fn + tp))


# Over [-700, 700] both paths' outputs and slopes stay normal numbers.
TAIL_X = np.concatenate([np.linspace(-700.0, 700.0, 20001),
                         np.random.default_rng(11).uniform(-40.0, 40.0, 20000)])


def test_logistic_path_near_general_path():
    frozen = logistic_forward(TAIL_X)
    general = output_forward(TAIL_X, 1.0, 0.5)
    np.testing.assert_allclose(frozen.z, general.z, rtol=1e-15, atol=0)
    assert frozen.y_hat is frozen.z
    dy_dx, _ = astra_backward(TAIL_X, 1.0)
    np.testing.assert_allclose(logistic_backward(frozen), dy_dx,
                               rtol=1e-14, atol=0)


def test_general_path_has_unit_z_slope_at_b_one():
    # Why the logistic path drops dz/dy: at b = 1 and tau = 0.5 the general
    # path's dz/dy is exactly 1.0.
    x = np.linspace(-800.0, 800.0, 16001)
    dz_dy, _ = z_transform_backward(output_forward(x, 1.0, 0.5).y_hat, 0.5)
    assert np.all(dz_dy == 1.0)


def test_logistic_path_tails_are_finite_and_warning_free():
    x = np.array([-800.0, -700.0, -40.0, 0.0, 40.0, 700.0, 800.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        terms = logistic_forward(x)
        dy_dx = logistic_backward(terms)
    assert np.all(np.isfinite(terms.e)) and np.all(np.isfinite(dy_dx))
    assert np.all(dy_dx >= 0)
    assert terms.z[0] == 1e-7 and terms.z[-1] == 1.0 - 1e-7


def test_frozen_model_takes_logistic_path():
    X, _ = batch(5, 3)
    trace = forward(make_model(ALL_KINDS[0], 3, 2, 5), X)
    assert isinstance(trace.out, LogisticTerms)
    trace = forward(make_model(ALL_KINDS[2], 3, 2, 5), X)
    assert not isinstance(trace.out, LogisticTerms)


def test_non_finite_gradient_and_parameter_name_their_block():
    X, y = batch(6, 3)
    for kind in ALL_KINDS:
        model = make_model(kind, 3, 2, 6)
        trace = forward(model, X)
        trace.hidden_act[0, 1] = np.inf        # reaches only w2's gradient
        with pytest.raises(NonFiniteError,
                           match="non-finite gradient in w2$"):
            backward_and_step(model, fresh_adam(model), trace, y, kind,
                              0.01, 0.05)
        model = make_model(kind, 3, 2, 6)
        trace = forward(model, X)
        model.b1[1] = np.nan                   # the step keeps it
        with pytest.raises(NonFiniteError,
                           match="non-finite parameter b1 after update$"):
            backward_and_step(model, fresh_adam(model), trace, y, kind,
                              0.01, 0.05)
