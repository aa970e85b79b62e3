import math

import numpy as np
import pytest

from astra.activation import B_MAX, AstraParams, NonFiniteError, beta_from_slope
from astra.losses import ALL_KINDS, LossKind, loss_and_grad
from astra.network import (
    LEAKY_SLOPE,
    AdamState,
    backward_and_step,
    forward,
    from_checkpoint,
    hidden_width,
    init_mlp,
    predict_labels,
    to_checkpoint,
)
from astra.trainer import BETA_INIT


def fresh_adam(model):
    return AdamState(model)


def end_to_end_loss(model, X, y, kind):
    trace = forward(model, X)
    value, _ = loss_and_grad(kind, trace.z, y)
    return value


@pytest.fixture
def toy_batch():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(6, 3))
    y = np.array([1, 0, 0, 1, 0, 0], dtype=float)
    return X, y


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

    @pytest.mark.parametrize("name, value", [("w1", 0.5), ("b1", np.zeros(3)),
                                             ("w2", np.zeros((2, 1)))],
                             ids=["scalar-w1", "long-b1", "column-w2"])
    def test_parameters_keep_their_shape(self, name, value):
        # Each is a view of theta: another shape would broadcast into it.
        model = init_mlp(3, 2, seed=0)
        theta = model.theta.copy()
        with pytest.raises(ValueError, match=f"{name} has shape"):
            setattr(model, name, value)
        assert np.array_equal(model.theta, theta)


class TestForward:
    def test_zero_weights_b1(self):
        model = init_mlp(2, 2, seed=0)
        model.w1[:] = 0
        model.w2[:] = 0
        trace = forward(model, np.zeros((3, 2)))
        assert trace.y_hat == pytest.approx([0.5] * 3)

    def test_zero_weights_astra(self):
        ap = AstraParams(BETA_INIT)
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
        assert list(trace.leak[:, 0]) == [1.0, 0.3]
        assert trace.hidden_act[:, 0] / trace.leak[:, 0] == pytest.approx([4.5, -1.5])
        assert trace.hidden_act[:, 0] == pytest.approx([4.5, -0.45])
        assert trace.out_pre == pytest.approx([-6.5, 0.925])
        assert trace.y_hat == pytest.approx(
            [1 / (1 + math.exp(6.5)), 1 / (1 + math.exp(-0.925))])

    def test_shape_error(self):
        model = init_mlp(3, 2, seed=0)
        with pytest.raises(ValueError):
            forward(model, np.zeros((4, 2)))

    # X None is the trace's own X; a trace holds that array and no other,
    # a same-shape copy included.
    @pytest.mark.parametrize("X, model", [
        (np.zeros((5, 3)), init_mlp(3, 2, seed=0)),
        (None, init_mlp(3, 3, seed=0)),
        (None, init_mlp(3, 2, seed=0, astra=AstraParams(BETA_INIT))),
        (np.zeros((4, 3)), init_mlp(3, 2, seed=0)),
    ], ids=["rows", "n_h", "trainable", "copy"])
    def test_trace_made_for_something_else(self, X, model):
        own = np.zeros((4, 3))
        trace = forward(init_mlp(3, 2, seed=0), own)
        assert forward(init_mlp(3, 2, seed=1), own, trace) is trace
        with pytest.raises(ValueError, match="a trace made for"):
            forward(model, own if X is None else X, trace)


class TestBackward:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
    def test_full_gradient_finite_differences(self, kind, toy_batch):
        X, y = toy_batch
        if kind.use_astra:
            ap = AstraParams(BETA_INIT)
        else:
            ap = AstraParams.frozen()
        model = init_mlp(3, 2, seed=7, astra=ap)
        trace = forward(model, X)

        # Analytic gradients recovered from the effect of a single Adam step
        # would be entangled with the optimizer; recompute them directly.
        from astra.activation import astra_backward, threshold_grad_b, z_transform_backward
        _, dj_dz = loss_and_grad(kind, trace.z, y)
        dz_dy, dz_dtau = z_transform_backward(trace.y_hat, ap.tau)
        dy_dx, dy_db = astra_backward(trace.out_pre, ap.b)
        dj_dx = dj_dz * dz_dy * dy_dx
        grads = {
            "w2": trace.hidden_act.T @ dj_dx,
            "b2": np.array([np.sum(dj_dx)]),
        }
        dh = np.outer(dj_dx, model.w2) * trace.leak
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
                lp = end_to_end_loss(model, X, y, kind)
                arr[i] = old - h
                lm = end_to_end_loss(model, X, y, kind)
                arr[i] = old
                fd = (lp - lm) / (2 * h)
                assert grads[name][i] == pytest.approx(fd, rel=1e-5, abs=1e-10)
        old = model.b2
        model.b2 = old + h
        lp = end_to_end_loss(model, X, y, kind)
        model.b2 = old - h
        lm = end_to_end_loss(model, X, y, kind)
        model.b2 = old
        assert grads["b2"][0] == pytest.approx((lp - lm) / (2 * h), rel=1e-5)

        if kind.use_astra:
            dj_db = float(np.sum(dj_dz * (dz_dy * dy_db + dz_dtau * threshold_grad_b(ap.b))))
            grad_beta = dj_db  # linear branch: db/dbeta = 1

            old = ap.beta
            ap.set_beta(old + h)
            lp = end_to_end_loss(model, X, y, kind)
            ap.set_beta(old - h)
            lm = end_to_end_loss(model, X, y, kind)
            ap.set_beta(old)
            assert grad_beta == pytest.approx((lp - lm) / (2 * h), rel=1e-5)

    def test_zero_rates_leave_parameters(self, toy_batch):
        X, y = toy_batch
        model = init_mlp(3, 2, seed=7,
                         astra=AstraParams(BETA_INIT))
        before = to_checkpoint(model)
        trace = forward(model, X)
        backward_and_step(model, fresh_adam(model), trace, y,
                          LossKind("gmn", True), 0.0, 0.0)
        after = to_checkpoint(model)
        assert before["w1"] == after["w1"]
        assert before["b2"] == after["b2"]
        assert before["astra"]["beta"] == after["astra"]["beta"]

    def test_frozen_slope_reports_zero_beta_grad(self, toy_batch):
        X, y = toy_batch
        model = init_mlp(3, 2, seed=7)
        trace = forward(model, X)
        beta_before = model.astra.beta
        _, grad_beta = backward_and_step(model, fresh_adam(model), trace, y,
                                         LossKind("bce", False), 0.001, 0.01)
        assert grad_beta == 0.0
        assert model.astra.beta == beta_before
        assert model.astra.b == 1.0

    def test_step_is_reproducible(self, toy_batch):
        X, y = toy_batch

        def one_step():
            model = init_mlp(3, 2, seed=7)
            trace = forward(model, X)
            backward_and_step(model, fresh_adam(model), trace, y,
                              LossKind("bce", False), 0.001, 0.01)
            return to_checkpoint(model)

        assert one_step() == one_step()


    @pytest.mark.parametrize("kind", [LossKind("bce", True), LossKind("gmn", True)],
                             ids=lambda k: k.name)
    def test_slope_gradient_overflow_raises_non_finite(self, kind):
        # At b = 60, b*x overflows for a finite preactivation x above about
        # 1.8e308 / 60, and dj/db comes out NaN: the step raises the error a
        # run stops on, and leaves the model as it was.
        x = np.r_[np.linspace(-3.0, 3.0, 38), 1e307, -1e307]
        y = np.zeros(len(x), int)
        y[::8] = 1
        model = init_mlp(1, 1, 0, astra=AstraParams(beta_from_slope(B_MAX)))
        model.w1, model.w2 = np.ones((1, 1)), np.ones(1)
        X = np.asfortranarray(np.where(x < 0, x / LEAKY_SLOPE, x)[:, None])
        with np.errstate(over="ignore", invalid="ignore"):
            trace = forward(model, X)
            assert trace.out_pre[-2:] == pytest.approx([1e307, -1e307])
            theta, beta = model.theta.copy(), model.astra.beta
            with pytest.raises(NonFiniteError, match="beta"):
                backward_and_step(model, fresh_adam(model), trace, y, kind, 1e-3, 1e-2)
        assert model.theta.tolist() == theta.tolist() and model.astra.beta == beta


class TestPredictLabels:
    def test_boundary_maps_to_positive(self):
        ap = AstraParams(BETA_INIT)
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
        ap = AstraParams(BETA_INIT)
        model = init_mlp(3, 2, seed=5, astra=ap)
        X = np.random.default_rng(1).normal(size=(200, 3))
        trace = forward(model, X)
        labels = predict_labels(model, X)
        assert np.array_equal(labels, (trace.out_pre >= 0).astype(int))
        assert np.array_equal(labels, (trace.y_hat >= ap.tau).astype(int))
        assert np.array_equal(labels, (trace.z >= 0.5).astype(int))


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path, toy_batch):
        X, y = toy_batch
        model = init_mlp(3, 2, seed=11,
                         astra=AstraParams(BETA_INIT))
        adam = fresh_adam(model)
        for _ in range(3):
            trace = forward(model, X)
            backward_and_step(model, adam, trace, y, LossKind("gmn", True),
                              0.001, 0.01)
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

    @pytest.mark.parametrize("edit", [{"b": 100.0, "tau": 0.9},
                                      {"beta": math.nan},
                                      {"beta": 70.0},
                                      {"trainable": False},
                                      {"trainable": "yes"},
                                      {"trainable": 1}],
                             ids=["b-and-tau", "nan-beta", "beta-past-cap",
                                  "frozen", "trainable-a-string",
                                  "trainable-an-int"])
    def test_slope_must_follow_from_beta(self, edit):
        # b and tau are written for readers; beta and trainable are the
        # state, so a file where they disagree is rejected.
        payload = to_checkpoint(init_mlp(3, 2, seed=0,
                                         astra=AstraParams(BETA_INIT)))
        payload["astra"].update(edit)
        with pytest.raises(ValueError):
            from_checkpoint(payload)

    @pytest.mark.parametrize("edit", [{"n_x": 3.0}, {"n_h": 2.0}, {"n_x": "3"},
                                      {"n_h": True}],
                             ids=["float-n-x", "float-n-h", "string-n-x",
                                  "bool-n-h"])
    def test_sizes_must_be_ints(self, edit):
        # JSON gives 3.0 and "3" as readily as 3; a bool is no size.
        payload = to_checkpoint(init_mlp(3, 2, seed=0))
        payload.update(edit)
        with pytest.raises(ValueError, match="n_x and n_h must be ints"):
            from_checkpoint(payload)

    @pytest.mark.parametrize("edit, name", [
        (lambda p: p.update(b1=p["b1"] + [0.5], w2=p["w2"][:-1]), "b1"),
        (lambda p: p.update(w1=np.transpose(p["w1"]).tolist()), "w1"),
        (lambda p: p.update(n_x=2, n_h=3), "w1"),
    ], ids=["b1-takes-a-w2-entry", "transposed-w1", "sizes-disagree"])
    def test_arrays_must_fit_the_sizes(self, edit, name):
        # Each array is written through its own view of theta, so one entry
        # too many in b1 cannot shift into w2.
        payload = to_checkpoint(init_mlp(3, 2, seed=0))
        edit(payload)
        with pytest.raises(ValueError, match=f"{name} has shape"):
            from_checkpoint(payload)
