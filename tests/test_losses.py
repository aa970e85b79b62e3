import math

import numpy as np
import pytest

from astra.activation import astra_forward, astra_threshold, clamp_unit, z_transform
from astra.losses import (
    ALL_KINDS,
    LossKind,
    bce_grad,
    bce_loss,
    gmn_grad,
    gmn_loss,
    loss_and_grad,
)
from astra.metrics import ConfusionMatrix, approx_cm, class_split, g_mean


def reference_bce(z, y):
    """(mean BCE, gradient) per row, -y*log z - (1-y)*log(1-z), in the
    order of operations the per-class losses replaced."""
    t = np.asarray(y, dtype=float)
    zc = clamp_unit(np.asarray(z, dtype=float))
    value = float(np.mean(-t * np.log(zc) - np.log1p(-zc) * (1.0 - t)))
    return value, (-t / zc + (1.0 - t) / (1.0 - zc)) / len(zc)


def reference_gmn(y_hat, y):
    """(loss, gradient) per row, -(G_apx/2) * (y/TP_apx - (1-y)/TN_apx)."""
    t = np.asarray(y, dtype=float)
    m1 = int(np.sum(t))
    m0 = len(t) - m1
    cm = approx_cm(np.asarray(y_hat, dtype=float), t)
    g_apx = np.sqrt(cm.tn * cm.tp / (m0 * m1))
    tp = max(cm.tp, 1e-12)
    tn = max(cm.tn, 1e-12)
    return 1.0 - g_apx, (t / tp - (1.0 - t) / tn) * (-0.5 * g_apx)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPerClassMatchesPerRow:
    def test_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        # Outputs anywhere in [0, 1], ends, subnormals and the clamp band
        # included; targets of both classes.
        cases = st.integers(2, 80).flatmap(lambda n: st.tuples(
            st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
            st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(
                lambda y: 0 in y and 1 in y)))

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(cases)
        def check(case):
            z, y = case
            # loss_and_grad takes z as given, clamped for BCE as the network
            # returns it; bce_loss and bce_grad clamp.
            zc = clamp_unit(np.asarray(z, dtype=float))
            bce, gmn = reference_bce(z, y), reference_gmn(z, y)
            for variant, z_in, reference in (("bce", zc, bce), ("gmn", z, gmn)):
                value, grad = loss_and_grad(LossKind(variant, False), z_in, y)
                assert same_bits(value, reference[0]), variant
                assert same_bits(grad, reference[1]), variant
            assert same_bits(bce_loss(z, y), bce[0])
            assert same_bits(bce_grad(z, y), bce[1])

        check()

    def test_positives(self):
        split = class_split([0, 1, 1, 0, 1])
        assert (split.pos.tolist(), split.m0, split.m1) == ([1, 2, 4], 2, 3)
        assert class_split(np.array([0.0, 0.0])).pos.tolist() == []
        assert class_split(split) is split
        with pytest.raises(ValueError):
            class_split([0, 1, 0.5])
        with pytest.raises(ValueError):
            bce_loss([0.5, 0.5], [0, 2])


class TestLossKind:
    def test_four_candidates(self):
        assert {k.name for k in ALL_KINDS} == {"bce", "gmn", "bce-astra", "gmn-astra"}

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            LossKind("mse", False)


class TestBce:
    def test_log2_at_half(self):
        assert bce_loss([0.5], [1]) == pytest.approx(math.log(2), abs=1e-12)

    def test_near_perfect(self):
        assert bce_loss([1 - 1e-7], [1]) == pytest.approx(1e-7, rel=1e-3)

    def test_two_example_mean(self):
        assert bce_loss([0.75, 0.25], [1, 0]) == pytest.approx(-math.log(0.75), rel=1e-12)

    def test_grad_signs(self):
        assert bce_grad([0.5], [1]) == pytest.approx([-2.0])
        assert bce_grad([0.5], [0]) == pytest.approx([2.0])

    def test_grad_finite_differences(self):
        rng = np.random.default_rng(3)
        z = rng.uniform(0.05, 0.95, 12)
        y = rng.integers(0, 2, 12)
        g = bce_grad(z, y)
        h = 1e-7
        for i in range(len(z)):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            fd = (bce_loss(zp, y) - bce_loss(zm, y)) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=1e-6)

    def test_errors(self):
        with pytest.raises(ValueError):
            bce_loss([0.5], [1, 0])
        with pytest.raises(ValueError):
            bce_loss([], [])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        z = rng.uniform(0.1, 0.9, 20)
        y = rng.integers(0, 2, 20)
        perm = rng.permutation(20)
        assert bce_loss(z, y) == pytest.approx(bce_loss(z[perm], y[perm]), rel=1e-12)


class TestGmn:
    def test_perfect_binary(self):
        assert gmn_loss([1 - 1e-7] * 2 + [1e-7] * 3, [1, 1, 0, 0, 0]) == \
            pytest.approx(0.0, abs=1e-6)

    def test_all_half(self):
        assert gmn_loss([0.5] * 4, [1, 1, 0, 0]) == pytest.approx(0.5, abs=1e-12)

    def test_direct_value(self):
        assert gmn_loss([0.9, 0.2], [1, 0]) == \
            pytest.approx(1 - math.sqrt(0.8 * 0.9), abs=1e-12)

    def test_grad_signs(self):
        rng = np.random.default_rng(5)
        y_hat = rng.uniform(0.1, 0.9, 10)
        y = np.array([1, 0, 1, 0, 0, 0, 1, 0, 0, 1])
        g = gmn_grad(y_hat, y)
        assert np.all(g[y == 1] < 0)
        assert np.all(g[y == 0] > 0)

    def test_grad_finite_differences(self):
        rng = np.random.default_rng(6)
        y_hat = rng.uniform(0.1, 0.9, 10)
        y = rng.integers(0, 2, 10)
        y[:2] = [1, 0]
        g = gmn_grad(y_hat, y)
        h = 1e-7
        for i in range(len(y_hat)):
            yp, ym = y_hat.copy(), y_hat.copy()
            yp[i] += h
            ym[i] -= h
            fd = (gmn_loss(yp, y) - gmn_loss(ym, y)) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=1e-6)

    def test_uniform_half_closed_form(self):
        # All outputs 0.5 with balanced classes: per-example gradient is
        # -/+ 0.5/m_class (verified against the closed form by hand).
        n = 8
        y = np.array([1] * 4 + [0] * 4)
        g = gmn_grad([0.5] * n, y)
        assert g[:4] == pytest.approx([-0.5 / 4] * 4, rel=1e-12)
        assert g[4:] == pytest.approx([0.5 / 4] * 4, rel=1e-12)

    def test_class_coupling_only_through_sums(self):
        # Equal outputs in the same class get identical gradients.
        y_hat = np.array([0.7, 0.7, 0.3, 0.2, 0.3])
        y = np.array([1, 1, 0, 0, 0])
        g = gmn_grad(y_hat, y)
        assert g[0] == g[1]
        assert g[2] == g[4]

    def test_reduces_to_counting_g_mean(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(4, 30))
            y = rng.integers(0, 2, n)
            y[0], y[1] = 0, 1
            preds = rng.integers(0, 2, n)
            # keep TP and TN nonzero so the output clamp to [1e-7, 1 - 1e-7]
            # stays a negligible perturbation under the square root
            preds[0], preds[1] = 0, 1
            cm = ConfusionMatrix(
                tn=int(np.sum((preds == 0) & (y == 0))),
                fp=int(np.sum((preds == 1) & (y == 0))),
                fn=int(np.sum((preds == 0) & (y == 1))),
                tp=int(np.sum((preds == 1) & (y == 1))),
            )
            loss = gmn_loss(preds.astype(float), y)
            assert loss == pytest.approx(1 - g_mean(cm), abs=1e-6)

    def test_degenerate_class_error(self):
        with pytest.raises(ValueError):
            gmn_loss([0.5, 0.5], [1, 1])


class TestThresholdConsistentOrdering:
    def test_z_bce_ordering_matches_threshold(self):
        # After the z-transform, the per-example loss against the nearer-side
        # target is strictly smaller for every x != 0.
        def j(p, t):
            return -t * math.log(p) - (1 - t) * math.log(1 - p)

        for b in (1.5, 7.396, 40.0):
            tau = astra_threshold(b)
            for x in np.linspace(0.01, 4, 50):
                z = z_transform(astra_forward(x, b), tau)
                assert j(z, 1) < j(z, 0)
                z = z_transform(astra_forward(-x, b), tau)
                assert j(z, 0) < j(z, 1)
