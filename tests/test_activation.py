import math

import numpy as np
import pytest

from astra.activation import (
    AstraParams,
    NonFiniteError,
    astra_backward,
    astra_forward,
    astra_threshold,
    beta_from_slope,
    misorder_band_upper,
    slope_from_beta,
    slope_from_tau,
    slope_grad_beta,
    threshold_grad_b,
    z_transform,
    z_transform_backward,
)
from astra.trainer import BETA_INIT, TAU_INIT


def logistic(x):
    return 1.0 / (1.0 + np.exp(-x))


def bce_single(y_hat, target):
    return -target * math.log(y_hat) - (1 - target) * math.log(1 - y_hat)


class TestForward:
    def test_midpoint_at_b1(self):
        assert astra_forward(0.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_recovers_logistic_at_b1(self):
        x = np.linspace(-10, 10, 401)
        assert np.max(np.abs(astra_forward(x, 1.0) - logistic(x))) < 1e-12

    def test_quarter_threshold_slope(self):
        assert astra_forward(0.0, 7.396) == pytest.approx(0.25, abs=5e-4)

    def test_saturation(self):
        assert astra_forward(40.0, 7.396) == pytest.approx(1.0, abs=1e-12)
        lo = astra_forward(-40.0, 7.396)
        assert 0.0 < lo < 1e-12

    def test_monotone_in_x(self):
        for b in (1.0, 2.0, 7.396, 30.0, 60.0):
            y = astra_forward(np.linspace(-8, 8, 500), b)
            assert np.all(np.diff(y) > 0)

    def test_stability_extreme_inputs(self):
        for b in (1.0, 7.396, 60.0):
            y = astra_forward(np.array([-1e4, -500.0, 0.0, 500.0, 1e4]), b)
            assert np.all(np.isfinite(y))
            assert np.all((y >= 0.0) & (y <= 1.0))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            astra_forward(0.0, 0.5)
        with pytest.raises(ValueError):
            astra_forward(float("nan"), 2.0)


class TestThreshold:
    def test_half_at_b1(self):
        assert astra_threshold(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_paper_operating_point(self):
        assert astra_threshold(7.396) == pytest.approx(0.25, abs=5e-4)

    def test_closed_form_b2(self):
        assert astra_threshold(2.0) == pytest.approx(1 - 3 ** -0.5, abs=1e-12)

    def test_equals_forward_at_zero(self):
        for b in np.linspace(1, 60, 60):
            assert abs(astra_forward(0.0, b) - astra_threshold(b)) < 1e-12

    def test_strictly_decreasing(self):
        taus = [astra_threshold(b) for b in np.linspace(1, 60, 200)]
        assert all(a > b for a, b in zip(taus, taus[1:]))

    def test_slope_from_tau_inverts(self):
        for tau in (0.4, 0.25, 0.1, 0.07):
            assert astra_threshold(slope_from_tau(tau)) == pytest.approx(tau, abs=1e-10)


class TestSlopeFromBeta:
    def test_continuous_at_zero(self):
        assert slope_from_beta(0.0) == 2.0
        assert slope_from_beta(1e-12) == pytest.approx(2.0, abs=1e-9)

    def test_linear_branch(self):
        assert slope_from_beta(5.396) == pytest.approx(7.396, abs=1e-12)

    def test_asymptote(self):
        assert slope_from_beta(-20.0) == pytest.approx(1.0 + math.exp(-20), rel=1e-12)

    def test_always_above_one(self):
        # 1 + exp(beta) underflows to exactly 1.0 for very negative beta
        for beta in (-50.0, -1.0, 0.0, 3.0, 100.0):
            assert slope_from_beta(beta) >= 1.0
        for beta in (-20.0, -1.0, 0.0, 3.0, 100.0):
            assert slope_from_beta(beta) > 1.0

    def test_roundtrip(self):
        for b in (1.2, 1.9, 2.5, 7.396, 59.0):
            assert slope_from_beta(beta_from_slope(b)) == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_is_a_divergence(self, beta):
        # The error a training run stops on, not a plain ValueError.
        with pytest.raises(NonFiniteError, match="beta must be finite"):
            slope_from_beta(beta)


class TestBackward:
    def test_logistic_derivative_at_zero(self):
        dy_dx, _ = astra_backward(0.0, 1.0)
        assert dy_dx == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("x,b", [(0.7, 7.396), (0.0, 2.0), (-1.3, 30.0)])
    def test_matches_finite_differences(self, x, b):
        h = 1e-6
        dy_dx, dy_db = astra_backward(x, b)
        fd_x = (astra_forward(x + h, b) - astra_forward(x - h, b)) / (2 * h)
        fd_b = (astra_forward(x, b + h) - astra_forward(x, b - h)) / (2 * h)
        assert dy_dx == pytest.approx(fd_x, rel=1e-6)
        assert dy_db == pytest.approx(fd_b, rel=1e-6)

    def test_randomized_grid(self):
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(50):
            x = float(rng.uniform(-5, 5))
            b = float(rng.uniform(1.0, 60.0))
            dy_dx, dy_db = astra_backward(x, b)
            fd_x = (astra_forward(x + h, b) - astra_forward(x - h, b)) / (2 * h)
            fd_b = (astra_forward(x, b + h) - astra_forward(x, b - h)) / (2 * h)
            if abs(fd_x) > 1e-9:
                assert dy_dx == pytest.approx(fd_x, rel=1e-6)
            if abs(fd_b) > 1e-9:
                assert dy_db == pytest.approx(fd_b, rel=1e-6)

    def test_gradient_positive_and_peaked_at_zero(self):
        for b in (1.0, 7.396, 30.0):
            x = np.linspace(-4, 4, 201)
            dy_dx, _ = astra_backward(x, b)
            assert np.all(dy_dx > 0)
            assert np.argmax(dy_dx) == 100  # x = 0

    def test_threshold_grad(self):
        h = 1e-6
        for b in (1.5, 7.396, 40.0):
            fd = (astra_threshold(b + h) - astra_threshold(b - h)) / (2 * h)
            assert threshold_grad_b(b) == pytest.approx(fd, rel=1e-5)

    def test_slope_grad_beta(self):
        assert slope_grad_beta(3.0) == 1.0
        assert slope_grad_beta(-2.0) == pytest.approx(math.exp(-2.0))


class TestZTransform:
    def test_identity_at_half(self):
        assert z_transform(0.3, 0.5) == pytest.approx(0.3, abs=1e-12)

    def test_crossing(self):
        assert z_transform(0.25, 0.25) == pytest.approx(0.5, abs=1e-12)
        for b in np.linspace(1, 60, 25):
            tau = astra_threshold(b)
            assert abs(z_transform(tau, tau) - 0.5) < 1e-12

    def test_direct_value(self):
        assert z_transform(0.5, 0.25) == pytest.approx(0.75, abs=1e-12)

    def test_monotone(self):
        z = z_transform(np.linspace(0.01, 0.99, 99), 0.2)
        assert np.all(np.diff(z) > 0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            z_transform(0.3, 0.0)
        with pytest.raises(ValueError):
            z_transform(0.3, 1.0)

    def test_backward_identity_at_half(self):
        dz_dy, _ = z_transform_backward(0.3, 0.5)
        assert dz_dy == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("y,tau", [(0.25, 0.25), (0.9, 0.05), (0.5, 0.4)])
    def test_backward_finite_differences(self, y, tau):
        h = 1e-6
        dz_dy, dz_dtau = z_transform_backward(y, tau)
        fd_y = (z_transform(y + h, tau) - z_transform(y - h, tau)) / (2 * h)
        fd_t = (z_transform(y, tau + h) - z_transform(y, tau - h)) / (2 * h)
        assert dz_dy == pytest.approx(fd_y, rel=1e-6)
        assert dz_dtau == pytest.approx(fd_t, rel=1e-6)


class TestMisorderBand:
    def test_vanishes_at_b1(self):
        assert misorder_band_upper(1.0 + 1e-12) == pytest.approx(0.0, abs=1e-9)

    def test_closed_form_b2(self):
        assert misorder_band_upper(2.0) == pytest.approx(math.log(1.5) / 2, abs=1e-12)

    @pytest.mark.parametrize("b", [2.0, 7.396, 20.0])
    def test_matches_bisection_oracle(self, b):
        # Oracle: solve J_BCE(yhat, 0) == J_BCE(yhat, 1), i.e. yhat == 0.5,
        # for the preactivation x by bisection on the raw activation.
        lo, hi = 0.0, 50.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            y = astra_forward(mid, b)
            if bce_single(y, 0) < bce_single(y, 1):
                lo = mid
            else:
                hi = mid
        assert misorder_band_upper(b) == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_ordering_inside_and_outside_band(self):
        b = 7.396
        x_max = misorder_band_upper(b)
        xs = np.linspace(1e-4, x_max - 1e-4, 500)
        for x in xs:
            y = astra_forward(x, b)
            assert bce_single(y, 0) < bce_single(y, 1)
        for x in np.linspace(x_max + 1e-3, 5, 200):
            y = astra_forward(x, b)
            assert bce_single(y, 0) > bce_single(y, 1)

    def test_z_transform_flips_at_zero(self):
        b = 7.396
        tau = astra_threshold(b)
        for x in np.linspace(1e-3, 5, 300):
            z = z_transform(astra_forward(x, b), tau)
            assert bce_single(z, 0) > bce_single(z, 1)
        for x in np.linspace(-5, -1e-3, 300):
            z = z_transform(astra_forward(x, b), tau)
            assert bce_single(z, 0) < bce_single(z, 1)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            misorder_band_upper(1.0)


class TestAstraParams:
    def test_from_tau_init(self):
        p = AstraParams(BETA_INIT)
        assert p.b == pytest.approx(7.396, abs=1e-3)
        assert p.beta == pytest.approx(5.396, abs=1e-3)
        assert p.tau == pytest.approx(0.25, abs=1e-12)

    def test_frozen_is_logistic(self):
        p = AstraParams.frozen()
        assert p.b == 1.0 and p.tau == 0.5 and not p.trainable
        p.step_beta(10.0, 0.5)
        assert p.b == 1.0

    def test_slope_is_derived_not_given(self):
        # b and tau follow from beta and trainable: no other state is built.
        with pytest.raises(TypeError):
            AstraParams(beta=1.0, b=-3.0, tau=2.0)
        with pytest.raises(TypeError):
            AstraParams(0.0, 2.0, astra_threshold(2.0), False)
        p = AstraParams(5.0, trainable=False)
        assert (p.beta, p.b, p.tau) == (5.0, 1.0, 0.5)

    def test_tau_init_slope_is_slope_from_tau(self):
        # BETA_INIT is beta_from_slope(slope_from_tau(TAU_INIT)): the round
        # trip moves no bit of slope_from_tau's b, at TAU_INIT or elsewhere.
        assert AstraParams(BETA_INIT).b == slope_from_tau(TAU_INIT)
        assert BETA_INIT.hex() == "0x1.595dc730f3f88p+2"
        lo = astra_threshold(60.0)
        grid = np.concatenate([np.linspace(lo, 0.5, 2002)[1:-1],
                               0.5 - np.logspace(-16, -4, 50)])
        for t in map(float, grid):
            assert AstraParams(beta_from_slope(slope_from_tau(t))).b == slope_from_tau(t)

    def test_step_clamps_ceiling(self):
        p = AstraParams(BETA_INIT)
        p.step_beta(-1e6, 1.0)
        assert p.b == 60.0
        assert p.tau == pytest.approx(astra_threshold(60.0))

    def test_b_cached_consistently(self):
        p = AstraParams(beta_from_slope(slope_from_tau(0.3)))
        p.step_beta(0.37, 0.1)
        assert p.b == pytest.approx(slope_from_beta(p.beta), rel=1e-15)
        assert p.tau == pytest.approx(astra_threshold(p.b), rel=1e-15)


class TestScalarContract:
    """Scalar in, scalar out: numpy's 0-d path runs the helpers, and [()]
    returns an np.float64 (a float) with the bits of a (1,)-array input."""

    HELPERS = {
        "astra_forward": lambda v: astra_forward(v, 7.396),
        "astra_backward": lambda v: astra_backward(v, 7.396),
        "z_transform": lambda v: z_transform(v, 0.25),
        "z_transform_backward": lambda v: z_transform_backward(v, 0.25),
    }

    @staticmethod
    def results(r):
        return r if isinstance(r, tuple) else (r,)

    @pytest.mark.parametrize("name", HELPERS)
    @pytest.mark.parametrize("kind", [float, np.float64, np.array])
    # 40 takes the b*x > 35 branch of the activation; 1e-9 and 1 - 1e-9 are
    # clamped by the z-transform.
    @pytest.mark.parametrize("value", [-3.0, 0.0, 1e-9, 0.3, 1.0 - 1e-9, 40.0])
    def test_scalar_input_gives_scalar(self, name, kind, value):
        helper = self.HELPERS[name]
        got = self.results(helper(kind(value)))
        want = self.results(helper(np.array([value])))
        for r, w in zip(got, want, strict=True):
            assert isinstance(r, float) and np.ndim(r) == 0
            assert np.float64(r).tobytes() == w.tobytes()

    @pytest.mark.parametrize("name", HELPERS)
    @pytest.mark.parametrize("shape", [(5,), (2, 3)])
    def test_array_input_keeps_its_shape(self, name, shape):
        x = np.linspace(0.1, 0.9, math.prod(shape)).reshape(shape)
        for r in self.results(self.HELPERS[name](x)):
            assert isinstance(r, np.ndarray) and r.shape == shape
