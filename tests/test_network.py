import math

import numpy as np
import pytest

from astra.activation import (
    AstraParams,
    astra_forward,
    astra_threshold,
    slope_from_beta,
)
from astra.losses import ALL_KINDS, LossKind, loss_and_grad
from astra.network import (
    AdamState,
    backward_and_step,
    forward,
    from_checkpoint,
    hidden_width,
    init_mlp,
    predict_labels,
    to_checkpoint,
)


def fresh_adam(model):
    return AdamState.for_shapes(model.params())


def end_to_end_loss(model, X, y, kind, m0, m1):
    trace = forward(model, X)
    value, _ = loss_and_grad(kind, trace.z, y, m0, m1)
    return value


@pytest.fixture
def toy_batch():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(6, 3))
    y = np.array([1, 0, 0, 1, 0, 0], dtype=float)
    return X, y, 4, 2


class TestInit:
    def test_architecture_rule(self):
        assert hidden_width(3) == 2
        assert hidden_width(8) == 5
        assert hidden_width(22) == 12

    def test_deterministic(self):
        a = init_mlp(3, 2, seed=9)
        b = init_mlp(3, 2, seed=9)
        assert np.array_equal(a.w1, b.w1)
        assert np.array_equal(a.w2, b.w2)

    def test_he_std(self):
        model = init_mlp(3, 40000, seed=0)
        assert model.w1.std() == pytest.approx(math.sqrt(2 / 3), rel=0.02)

    def test_glorot_support(self):
        model = init_mlp(5, 4, seed=0)
        limit = math.sqrt(6 / 5)
        assert np.all(np.abs(model.w2) <= limit)

    def test_zero_biases(self):
        model = init_mlp(4, 3, seed=1)
        assert np.all(model.b1 == 0) and model.b2 == 0.0

    def test_size_errors(self):
        with pytest.raises(ValueError):
            init_mlp(0, 2, seed=0)


class TestForward:
    def test_zero_weights_b1(self):
        model = init_mlp(2, 2, seed=0)
        model.w1[:] = 0
        model.w2[:] = 0
        trace = forward(model, np.zeros((3, 2)))
        assert trace.y_hat == pytest.approx([0.5] * 3)

    def test_zero_weights_astra(self):
        ap = AstraParams.from_tau_init(0.25)
        model = init_mlp(2, 2, seed=0, astra=ap)
        model.w1[:] = 0
        model.w2[:] = 0
        trace = forward(model, np.zeros((1, 2)))
        assert trace.y_hat[0] == pytest.approx(ap.tau, abs=1e-12)
        assert trace.z[0] == pytest.approx(0.5, abs=1e-12)

    def test_hand_computation_1x1(self):
        model = init_mlp(1, 1, seed=0)
        model.w1[:] = 2.0
        model.b1[:] = 0.5
        model.w2[:] = -1.5
        model.b2 = 0.25
        trace = forward(model, np.array([[2.0], [-1.0]]))
        # x=2: pre=4.5, act=4.5, out=-6.5; x=-1: pre=-1.5, act=-0.45, out=0.925
        assert trace.hidden_pre[:, 0] == pytest.approx([4.5, -1.5])
        assert trace.hidden_act[:, 0] == pytest.approx([4.5, -0.45])
        assert trace.out_pre == pytest.approx([-6.5, 0.925])
        assert trace.y_hat == pytest.approx(
            [1 / (1 + math.exp(6.5)), 1 / (1 + math.exp(-0.925))])

    def test_shape_error(self):
        model = init_mlp(3, 2, seed=0)
        with pytest.raises(ValueError):
            forward(model, np.zeros((4, 2)))


class TestBackward:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
    def test_full_gradient_finite_differences(self, kind, toy_batch):
        X, y, m0, m1 = toy_batch
        if kind.use_astra:
            ap = AstraParams.from_tau_init(0.25)
        else:
            ap = AstraParams.frozen()
        model = init_mlp(3, 2, seed=7, astra=ap)
        trace = forward(model, X)

        # Analytic gradients recovered from the effect of a single Adam step
        # would be entangled with the optimizer; recompute them directly.
        from astra.activation import astra_backward, threshold_grad_b, z_transform_backward
        _, dj_dz = loss_and_grad(kind, trace.z, y, m0, m1)
        dz_dy, dz_dtau = z_transform_backward(trace.y_hat, ap.tau)
        dy_dx, dy_db = astra_backward(trace.out_pre, ap.b)
        dj_dx = dj_dz * dz_dy * dy_dx
        grads = {
            "w2": trace.hidden_act.T @ dj_dx,
            "b2": np.array([np.sum(dj_dx)]),
        }
        dh = np.outer(dj_dx, model.w2) * np.where(trace.hidden_pre > 0, 1.0, 0.3)
        grads["w1"] = dh.T @ X
        grads["b1"] = dh.sum(axis=0)

        h = 1e-6
        arrays = {"w1": model.w1, "b1": model.b1, "w2": model.w2}
        for name, arr in arrays.items():
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                old = arr[i]
                arr[i] = old + h
                lp = end_to_end_loss(model, X, y, kind, m0, m1)
                arr[i] = old - h
                lm = end_to_end_loss(model, X, y, kind, m0, m1)
                arr[i] = old
                fd = (lp - lm) / (2 * h)
                assert grads[name][i] == pytest.approx(fd, rel=1e-5, abs=1e-10)
        old = model.b2
        model.b2 = old + h
        lp = end_to_end_loss(model, X, y, kind, m0, m1)
        model.b2 = old - h
        lm = end_to_end_loss(model, X, y, kind, m0, m1)
        model.b2 = old
        assert grads["b2"][0] == pytest.approx((lp - lm) / (2 * h), rel=1e-5)

        if kind.use_astra:
            dj_db = float(np.sum(dj_dz * (dz_dy * dy_db + dz_dtau * threshold_grad_b(ap.b))))
            grad_beta = dj_db  # linear branch: db/dbeta = 1

            def set_beta(beta):
                ap.beta = beta
                ap.b = slope_from_beta(beta)
                ap.tau = astra_threshold(ap.b)

            old = ap.beta
            set_beta(old + h)
            lp = end_to_end_loss(model, X, y, kind, m0, m1)
            set_beta(old - h)
            lm = end_to_end_loss(model, X, y, kind, m0, m1)
            set_beta(old)
            assert grad_beta == pytest.approx((lp - lm) / (2 * h), rel=1e-5)

    def test_zero_rates_leave_parameters(self, toy_batch):
        X, y, m0, m1 = toy_batch
        model = init_mlp(3, 2, seed=7,
                         astra=AstraParams.from_tau_init(0.25))
        before = to_checkpoint(model)
        trace = forward(model, X)
        backward_and_step(model, fresh_adam(model), trace, y,
                          LossKind("gmn", True), 0.0, 0.0, m0, m1)
        after = to_checkpoint(model)
        assert before["w1"] == after["w1"]
        assert before["b2"] == after["b2"]
        assert before["astra"]["beta"] == after["astra"]["beta"]

    def test_frozen_slope_reports_zero_beta_grad(self, toy_batch):
        X, y, m0, m1 = toy_batch
        model = init_mlp(3, 2, seed=7)
        trace = forward(model, X)
        beta_before = model.astra.beta
        _, grad_beta = backward_and_step(model, fresh_adam(model), trace, y,
                                         LossKind("bce", False), 0.001, 0.01,
                                         m0, m1)
        assert grad_beta == 0.0
        assert model.astra.beta == beta_before
        assert model.astra.b == 1.0

    def test_step_is_reproducible(self, toy_batch):
        X, y, m0, m1 = toy_batch

        def one_step():
            model = init_mlp(3, 2, seed=7)
            trace = forward(model, X)
            backward_and_step(model, fresh_adam(model), trace, y,
                              LossKind("bce", False), 0.001, 0.01, m0, m1)
            return to_checkpoint(model)

        assert one_step() == one_step()


class TestPredictLabels:
    def test_boundary_maps_to_positive(self):
        ap = AstraParams.from_tau_init(0.25)
        model = init_mlp(2, 2, seed=0, astra=ap)
        model.w1[:] = 0
        model.w2[:] = 0
        # zero weights give out_pre = 0, y_hat = tau exactly
        assert predict_labels(model, np.zeros((1, 2)))[0] == 1

    def test_b1_is_plain_half_threshold(self):
        model = init_mlp(2, 2, seed=3)
        X = np.random.default_rng(0).normal(size=(50, 2))
        trace = forward(model, X)
        assert np.array_equal(predict_labels(model, X), (trace.y_hat >= 0.5).astype(int))

    def test_three_formulations_agree(self):
        ap = AstraParams.from_tau_init(0.25)
        model = init_mlp(3, 2, seed=5, astra=ap)
        X = np.random.default_rng(1).normal(size=(200, 3))
        trace = forward(model, X)
        labels = predict_labels(model, X)
        assert np.array_equal(labels, (trace.out_pre >= 0).astype(int))
        assert np.array_equal(labels, (trace.y_hat >= ap.tau).astype(int))
        assert np.array_equal(labels, (trace.z >= 0.5).astype(int))


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path, toy_batch):
        X, y, m0, m1 = toy_batch
        model = init_mlp(3, 2, seed=11,
                         astra=AstraParams.from_tau_init(0.25))
        adam = fresh_adam(model)
        for _ in range(3):
            trace = forward(model, X)
            backward_and_step(model, adam, trace, y, LossKind("gmn", True),
                              0.001, 0.01, m0, m1)
        import json
        path = tmp_path / "model.json"
        with open(path, "w") as fh:
            json.dump(to_checkpoint(model), fh)
        with open(path) as fh:
            payload = json.load(fh)
        restored = from_checkpoint(payload)
        assert np.array_equal(restored.w1, model.w1)
        assert np.array_equal(restored.w2, model.w2)
        assert restored.b2 == model.b2
        assert restored.astra == model.astra
        # parameters only: no optimizer state, no slope learning rate
        assert set(payload) == {"n_x", "n_h", "seed", "w1", "b1", "w2", "b2",
                                "astra"}
        assert set(payload["astra"]) == {"beta", "b", "tau", "trainable"}
