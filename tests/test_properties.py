"""Property tests of the math identities the activation, the z-transform,
the approximated confusion matrix and the validation criterion rest on."""

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
    astra_forward,
    astra_threshold,
    beta_from_slope,
    empty_terms,
    slope_from_beta,
    z_transform,
)
from astra.metrics import approx_cm, counting_cm, rates  # noqa: E402
from astra.network import ForwardTrace, forward, init_mlp  # noqa: E402
from astra.trainer import _val_fnr_apx  # noqa: E402

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


@CHECK
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 12),
       st.integers(2, 60), st.one_of(st.none(), st.floats(0.1, 0.45)))
def test_val_fnr_apx_from_positives_is_full_set_fnr(seed, n_x, n_h, n, tau):
    # Random weights and biases; tau None is the frozen logistic output.
    # rates needs both classes in the full set.
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 2.0, (n, n_x))
    y = rng.permutation(np.r_[0, 1, rng.integers(0, 2, n - 2)])
    astra = AstraParams.frozen() if tau is None else AstraParams.from_tau_init(tau)
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
