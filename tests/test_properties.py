"""Property tests of the math identities the activation, the z-transform,
the approximated confusion matrix and the validation criterion rest on."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from astra.activation import (  # noqa: E402
    B_MAX,
    AstraParams,
    B_MIN,
    EPS,
    OutputTerms,
    _astra_terms,
    astra_backward,
    astra_forward,
    astra_threshold,
    beta_from_slope,
    empty_terms,
    logistic_backward,
    logistic_forward,
    output_chain,
    output_forward,
    slope_from_beta,
    slope_from_tau,
    slope_grad_beta,
    threshold_grad_b,
    z_transform,
    z_transform_backward,
)
from astra.losses import LossKind, loss_and_grad  # noqa: E402
from astra.metrics import approx_cm, counting_cm, rates  # noqa: E402
from astra.network import (  # noqa: E402
    ForwardTrace,
    forward,
    from_checkpoint,
    init_mlp,
    to_checkpoint,
)
from astra.trainer import _val_fnr_apx  # noqa: E402
from test_oracle import MAX_EPS_SUM_DJ_DB, MAX_ULP_DJ_DX  # noqa: E402

# 200 examples per property keep the file at a few seconds.
CHECK = settings(max_examples=200, deadline=None)

slopes = st.floats(B_MIN, B_MAX)
# Outside [EPS, 1 - EPS] the z-transform clamps its input.
unit = st.floats(EPS, 1.0 - EPS)


def labelled_outputs(values):
    """Equal-length (outputs, 0/1 targets) lists of 1 to 60 elements."""
    return st.integers(1, 60).flatmap(lambda n: st.tuples(
        st.lists(values, min_size=n, max_size=n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n)))


# The two sides use math's and numpy's log1p/expm1, which may round the last
# bit differently.
@CHECK
@given(slopes)
def test_threshold_is_output_at_zero(b):
    assert astra_threshold(b) == pytest.approx(astra_forward(0.0, b), rel=1e-15)


# The ASTra backward takes r = s/(1 + s) from the forward's s = b*exp(b*x),
# not exp(log(b) + b*x - u).  The exp form rounds its argument to the ulp of
# b*x, and so errs by more than 1e-14 relative beyond |b*x| = 64; on this
# range it errs by up to about 7.5e-15.
@CHECK
@given(slopes, st.floats(-64.0, 64.0))
def test_r_from_s_is_exp_form(b, bx):
    _, s, u, _ = _astra_terms(np.array([bx / b]), b, empty_terms(OutputTerms, 1))
    bx = b * (bx / b)
    want = np.exp(np.log(b) + bx - u[0])
    assert s[0] / (1.0 + s[0]) == pytest.approx(want, rel=1e-14, abs=0.0)


@CHECK
@given(unit)
def test_z_transform_maps_threshold_to_half(tau):
    assert z_transform(tau, tau) == 0.5


@CHECK
@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40), unit)
def test_z_transform_is_monotone(ys, tau):
    ys = np.sort(ys)
    z = z_transform(ys, tau)
    assert np.all(np.diff(z) >= 0.0)


@CHECK
@given(labelled_outputs(st.floats(0.0, 1.0)))
def test_acm_row_sums_are_class_counts(case):
    y_hat, y = case
    cm = approx_cm(y_hat, y)
    m1 = sum(y)
    # Each cell sums len(y) products; the row sums agree up to that rounding.
    assert cm.tn + cm.fp == pytest.approx(len(y) - m1, rel=1e-12, abs=1e-12)
    assert cm.fn + cm.tp == pytest.approx(m1, rel=1e-12, abs=1e-12)


@CHECK
@given(labelled_outputs(st.integers(0, 1)))
def test_acm_on_labels_is_counting_matrix(case):
    labels, y = case
    acm = approx_cm(labels, y)
    cm = counting_cm(labels, y)
    assert (acm.tn, acm.fp, acm.fn, acm.tp) == \
        (cm.tn, cm.fp, cm.fn, cm.tp)


# Below beta = -10, 1 + exp(beta) keeps too few bits of exp(beta) for the
# round trip to hold to 1e-9; above B_MAX - 2 the slope leaves its range.
@CHECK
@given(st.floats(-10.0, B_MAX - 2.0))
def test_beta_slope_round_trip(beta):
    assert beta_from_slope(slope_from_beta(beta)) == pytest.approx(beta, abs=1e-9)


def assert_slope_state(p):
    """b and tau follow from beta as AstraParams.set_beta states."""
    if not p.trainable:
        assert (p.b, p.tau) == (1.0, 0.5)
    elif p.b < B_MAX:
        assert p.b == slope_from_beta(p.beta)
    else:
        assert (p.b, p.beta) == (B_MAX, beta_from_slope(B_MAX))
    assert B_MIN <= p.b <= B_MAX
    assert p.tau == astra_threshold(p.b)


# Any finite beta, then steps no larger than 1e6 (eta_b is at most 0.5 in
# training), so beta stays finite.
@CHECK
@given(st.floats(allow_nan=False, allow_infinity=False), st.booleans(),
       st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(0.0, 1.0)), max_size=20))
def test_slope_state_follows_beta(beta, trainable, steps):
    p = AstraParams(beta, trainable=trainable)
    assert_slope_state(p)
    for grad_beta, eta_b in steps:
        before = p.beta
        p.step_beta(grad_beta, eta_b)
        assert_slope_state(p)
        assert trainable or p.beta == before
    model = init_mlp(1, 1, 0, astra=p)
    assert from_checkpoint(to_checkpoint(model)).astra == model.astra


@CHECK
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 12),
       st.integers(2, 60), st.one_of(st.none(), st.floats(0.1, 0.45)))
def test_val_fnr_apx_from_positives_is_full_set_fnr(seed, n_x, n_h, n, tau):
    # Random weights and biases; tau None is the frozen logistic output.
    # rates needs both classes in the full set.
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 2.0, (n, n_x))
    y = rng.permutation(np.r_[0, 1, rng.integers(0, 2, n - 2)])
    astra = AstraParams.frozen() if tau is None else AstraParams(beta_from_slope(slope_from_tau(tau)))
    model = init_mlp(n_x, n_h, seed, astra=astra)
    model.b1 = rng.normal(0.0, 1.0, n_h)
    model.b2 = float(rng.normal())
    want = rates(approx_cm(forward(model, X).z, y)).fnr
    # The positives ride after the rows of a run's train forward.
    trace = forward(model, X, ForwardTrace(X, model, X[y == 1]))
    assert _val_fnr_apx(trace) == pytest.approx(want, rel=1e-12, abs=0.0)


# Features and biases among signed zeros, subnormals and +-1e300, weights
# small enough that no product or sum overflows.  The BLAS sum starts at
# +0.0, so a sum of -0.0 terms and a bias of -0.0 give +0.0: the hidden
# preactivation is never -0.0, and the slope rule np.greater(h, 0.0) treats
# both zeros alike.
special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                           1e300, -1e300, 1.0, -1.0, 0.5])
weights = st.sampled_from([0.0, -0.0, 5e-324, 1.0, -1.0, 0.5])


def arrays_of(data, values, shape):
    size = int(np.prod(shape))
    return np.array(data.draw(st.lists(values, min_size=size,
                                       max_size=size))).reshape(shape)


@CHECK
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 30), st.data())
def test_leaky_relu_is_the_where_form(n_x, n_h, n, data):
    model = init_mlp(n_x, n_h, 0)
    model.w1 = arrays_of(data, weights, (n_h, n_x))
    model.b1 = arrays_of(data, special, (n_h,))
    X = np.asfortranarray(arrays_of(data, special, (n, n_x)))
    trace = forward(model, X)
    h = (model.w1 @ X.T).T + model.b1       # the kernel's hidden product
    assert trace.leak.tobytes() == np.where(h > 0, 1.0, 0.3).tobytes()
    assert trace.hidden_act.tobytes() == np.where(h > 0, h, 0.3 * h).tobytes()


@CHECK
@given(st.integers(1, 4), st.integers(1, 30), st.data())
def test_nan_feature_raises(n_x, n, data):
    X = np.random.default_rng(n).normal(size=(n, n_x))
    X[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n_x - 1))] = np.nan
    with pytest.raises(ValueError, match="preactivation must be finite"):
        forward(init_mlp(n_x, 3, n), np.asfortranarray(X))


# output_chain takes the chain rule over the public partials in closed form,
# on rows that include the asymptote tail (b*x > 35) and at the cap B_MAX.
# Both forms read the same terms, so each stays within the oracle's chain
# bound of the other, twice over: dj/dx within twice its tail bound in ulp,
# and dj/dbeta within twice its bound times the size of the terms that the
# closed form's two sums add, plus as many subnormal steps per row: a
# product below the normal range rounds on the subnormal grid, an absolute
# error no relative bound covers.  |dj/dz| up to 1e300 keeps every product
# finite: dz/dy <= (1 - tau)/tau, about 14 at B_MAX.
def check_output_chain(b, bxs, tail, dj_dz):
    slope = AstraParams(beta_from_slope(b))
    b, tau = slope.b, slope.tau
    x = np.array([*bxs, tail]) / b
    dj_dx = np.empty_like(x)
    got = output_chain(output_forward(x, b, tau), slope, dj_dz, dj_dx)
    dy_dx, dy_db = astra_backward(x, b)
    dz_dy, dz_dtau = z_transform_backward(astra_forward(x, b), tau)
    want = dj_dz * dz_dy * dy_dx
    assert (np.abs(dj_dx - want) <= 2 * MAX_ULP_DJ_DX[1] * np.spacing(np.abs(want))).all()
    b_terms, tau_terms = dj_dz * dz_dy * dy_db, dj_dz * dz_dtau * threshold_grad_b(b)
    db_dbeta = slope_grad_beta(slope.beta)
    size = (math.fsum(np.abs(b_terms)) + math.fsum(np.abs(tau_terms))) * db_dbeta
    want = float(np.add.reduce(b_terms + tau_terms)) * db_dbeta
    assert abs(got - want) <= 2 * MAX_EPS_SUM_DJ_DB * (
        np.finfo(float).eps * size + np.finfo(float).smallest_subnormal * len(x))


@CHECK
@given(st.floats(1.0 + 1e-7, B_MAX),
       st.lists(st.floats(-700.0, 700.0), min_size=1, max_size=30),
       st.floats(36.0, 700.0), st.data())
def test_output_chain_is_the_chain_of_the_partials(b, bxs, tail, data):
    dj_dz = arrays_of(data, st.floats(-1e300, 1e300), (len(bxs) + 1,))
    check_output_chain(b, bxs, tail, dj_dz)


def test_output_chain_of_subnormal_products():
    # A Hypothesis draw whose two dj/dbeta sums came one subnormal apart.
    tiny = np.finfo(float).tiny
    check_output_chain(4.0, [1.0, 0.0], 36.0, np.array([tiny, 0.0, tiny]))


# A frozen slope's chain is the logistic's: dz/dy = 1, and beta does not move.
@CHECK
@given(st.lists(st.floats(-700.0, 700.0), min_size=1, max_size=30), st.data())
def test_output_chain_of_a_frozen_slope_is_the_logistic(xs, data):
    slope, x = AstraParams.frozen(), np.array(xs)
    dj_dz = arrays_of(data, st.floats(-1e300, 1e300), x.shape)
    dj_dx = np.empty_like(x)
    assert output_chain(logistic_forward(x), slope, dj_dz, dj_dx) == 0.0
    assert dj_dx.tobytes() == (dj_dz * logistic_backward(logistic_forward(x))).tobytes()


# A slope's terms and output take its own path, into the terms it made.
@CHECK
@given(st.booleans(), st.floats(-30.0, 58.0),
       st.lists(st.floats(-700.0, 700.0), min_size=1, max_size=30))
def test_a_slope_takes_its_output_path(trainable, beta, xs):
    slope, x = AstraParams(beta, trainable=trainable), np.array(xs)
    terms = slope.terms(x)
    want = output_forward(x, slope.b, slope.tau) if trainable else logistic_forward(x)
    assert slope.output(x, terms) is terms and type(terms) is type(want)
    assert [a.tobytes() for a in terms] == [a.tobytes() for a in want]


# The forward rejects a non-finite preactivation and both output paths clamp
# z into [EPS, 1 - EPS], so BCE's logs and GMN's square root stay finite:
# backward_and_step does not check the loss.  b None is the logistic path.
@CHECK
@given(st.integers(1, 20).flatmap(lambda m1: st.tuples(st.just(m1), st.lists(
           st.floats(-1.7e308, 1.7e308), min_size=m1 + 1, max_size=60))),
       st.one_of(st.none(), slopes), st.sampled_from(["bce", "gmn"]))
def test_loss_of_finite_preactivations_is_finite(positives, b, variant):
    m1, x = positives
    x = np.array(x)
    y = np.r_[np.ones(m1, int), np.zeros(len(x) - m1, int)]
    with np.errstate(over="ignore", invalid="ignore"):
        z = (logistic_forward(x) if b is None
             else output_forward(x, b, astra_threshold(b))).z
    assert math.isfinite(loss_and_grad(LossKind(variant, b is not None), z, y)[0])
