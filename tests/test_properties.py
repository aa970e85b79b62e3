"""Property tests of the math identities the activation, the z-transform and
the approximated confusion matrix rest on."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from astra.activation import (  # noqa: E402
    B_MAX,
    B_MIN,
    EPS,
    astra_forward,
    astra_threshold,
    beta_from_slope,
    slope_from_beta,
    z_transform,
)
from astra.metrics import approx_cm, counting_cm  # noqa: E402

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
    assert cm.m0 == pytest.approx(len(y) - m1, rel=1e-12, abs=1e-12)
    assert cm.m1 == pytest.approx(m1, rel=1e-12, abs=1e-12)


@CHECK
@given(labelled_outputs(st.integers(0, 1)))
def test_acm_on_labels_is_counting_matrix(case):
    labels, y = case
    acm = approx_cm(labels, y)
    cm = counting_cm(labels, y)
    assert (acm.tn_apx, acm.fp_apx, acm.fn_apx, acm.tp_apx) == \
        (cm.tn, cm.fp, cm.fn, cm.tp)


# Below beta = -10, 1 + exp(beta) keeps too few bits of exp(beta) for the
# round trip to hold to 1e-9; above B_MAX - 2 the slope leaves its range.
@CHECK
@given(st.floats(-10.0, B_MAX - 2.0))
def test_beta_slope_round_trip(beta):
    assert beta_from_slope(slope_from_beta(beta)) == pytest.approx(beta, abs=1e-9)
