"""One-hidden-layer MLP with Leaky ReLU hidden units and the asymmetric
sigmoid output, trained full-batch with Adam on the weights and plain
gradient descent on the slope parameter beta.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict

import numpy as np

from .activation import AstraParams, NonFiniteError, output_chain
# Unused here: bench/spans.py trace points wrap them in astra.network.
from .activation import (  # noqa: F401
    astra_backward,
    astra_forward,
    z_transform,
    z_transform_backward,
)
from .losses import LossKind, loss_and_grad
from .metrics import ConfusionMatrix

LEAKY_SLOPE = 0.3

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Bytes of X per row block of the weight gradient's product, summed block by
# block in row order.  At 7,200 x 22 (n_h = 12) blocks of 1,536 to 3,500
# rows took 130-205 µs, one product 250-340 µs and blocks of 4,096 rows
# 250-275 µs (one and two BLAS threads, 2-vCPU Xeon).  X of 12,020 x 3 or
# 1,800 x 22 stays one block: at 12,020 x 3 blocks of 2,048 rows took
# 28-39 µs against 13-15 µs.
ROW_BLOCK_BYTES = 352 * 1024

def hidden_width(n_x: int) -> int:
    """Architecture rule: n_h = ceil((n_x + 1) / 2), for one output unit; at
    3 and 22 features, the paper's "from two to 12 hidden units"."""
    return math.ceil((n_x + 1) / 2)


PARAM_NAMES = ("w1", "b1", "w2", "b2")


def param_views(flat: np.ndarray, n_h: int, n_x: int) -> tuple:
    """Views of a flat parameter-sized vector shaped as each parameter, in
    the order of PARAM_NAMES; b2 is a 1-element array."""
    n_w1 = n_h * n_x
    return (flat[:n_w1].reshape(n_h, n_x), flat[n_w1:n_w1 + n_h],
            flat[n_w1 + n_h:-1], flat[-1:])


def _check_finite(model: "Mlp", flat: np.ndarray, message: str) -> None:
    """Raise NonFiniteError(message naming the first parameter whose block
    of the flat parameter-sized vector holds a non-finite value), if any."""
    if not np.isfinite(flat).all():
        views = param_views(flat, model.n_h, model.n_x)
        k = next(k for k, a in zip(PARAM_NAMES, views)
                 if not np.isfinite(a).all())
        raise NonFiniteError(message.format(k))


class AdamState:
    """Adam's moments `m` and `v`, its step count `t` and every array a step
    writes, flat in the layout of Mlp.theta: the gradient `grad`, written
    through its views `grad_w1` ... `grad_b2`, and two scratch vectors; and
    `block`, a row block's share of grad_w1.T."""

    def __init__(self, model: "Mlp"):
        size = model.theta.size
        self.m, self.v, self.t = np.zeros(size), np.zeros(size), 0
        self.grad = np.empty(size)
        (self.grad_w1, self.grad_b1, self.grad_w2,
         self.grad_b2) = param_views(self.grad, model.n_h, model.n_x)
        self.tmp, self.den = np.empty(size), np.empty(size)
        self.block = np.empty((model.n_h, model.n_x)).T


class Mlp:
    """The network's parameters, in one flat vector `theta`: w1 (row by
    row), b1, w2 and b2, the layout of the gradient and of Adam's moments,
    so one subtraction steps them all.  A model is built with every
    parameter 0.  w1, b1 and w2 are views of theta, and assigning one writes
    into it, refusing another shape; b2 reads and writes its last element.
    """

    def __init__(self, n_x: int, n_h: int, astra: AstraParams, seed):
        if type(n_x) is not int or type(n_h) is not int or n_x < 1 or n_h < 1:
            raise ValueError(f"n_x and n_h must be ints >= 1, got {n_x!r}, {n_h!r}")
        self.theta, self.n_x, self.n_h, self.astra = (
            np.zeros(n_h * n_x + 2 * n_h + 1), n_x, n_h, astra)
        self.w1, self.b1, self.w2, _ = param_views(self.theta, n_h, n_x)
        self.seed = seed

    def __setattr__(self, name, value):
        if name in PARAM_NAMES[:3] and name in self.__dict__:
            view = self.__dict__[name]
            if np.shape(value) != view.shape:
                raise ValueError(f"{name} has shape {np.shape(value)}, not {view.shape}")
            view[...] = value
        else:
            super().__setattr__(name, value)

    @property
    def b2(self) -> float:
        return float(self.theta[-1])

    @b2.setter
    def b2(self, value: float) -> None:
        self.theta[-1] = value

    def copy(self) -> "Mlp":
        ap = self.astra
        twin = Mlp(self.n_x, self.n_h, AstraParams(ap.beta, ap.trainable), self.seed)
        np.copyto(twin.theta, self.theta)
        return twin


def init_mlp(n_x: int, n_h: int, seed: int,
             astra: AstraParams | None = None) -> Mlp:
    """He-normal hidden weights, Glorot-uniform output weights, zero biases.

    Deterministic for a given seed.
    """
    model = Mlp(n_x, n_h, astra if astra is not None else AstraParams.frozen(),
                int(seed) if np.isscalar(seed) else list(seed))
    rng = np.random.default_rng(seed)
    model.w1 = rng.normal(0.0, math.sqrt(2.0 / n_x), size=(n_h, n_x))
    limit = math.sqrt(6.0 / (n_h + 1))
    model.w2 = rng.uniform(-limit, limit, size=n_h)
    return model


class ForwardTrace:
    """What forward computed and backward_and_step reads over a batch of n
    rows, and over a run's validation rows after them (`X_val`): a run
    makes one trace and every forward rewrites it.

    `hidden_act` and `leak` (each unit's Leaky ReLU slope, 1.0 or
    LEAKY_SLOPE) are column-major (n, n_h) views of (n_h, rows) C arrays;
    `out_pre`, `out`, `y_hat` and `z` hold the n rows, `val_z` the
    validation rows.  backward_and_step writes `dj_dz` and `dj_dx`, then
    over `out` (as the output path's backward says) and `hidden_act`.
    """

    def __init__(self, X: np.ndarray, model: Mlp, X_val: np.ndarray | None = None):
        if X.ndim != 2 or X.shape[1] != model.n_x:
            raise ValueError(f"expected shape (*, {model.n_x}), got {X.shape}")
        n = len(X)
        self.key = (model.n_x, model.n_h, model.astra.trainable)
        self.inputs = X
        self.val_inputs = np.empty((0, model.n_x)) if X_val is None else X_val
        rows = n + len(self.val_inputs)
        self.hidden_all, self.leak_all = (np.empty((model.n_h, rows)).T for _ in range(2))
        self.pre = np.empty(rows)
        self.out_all = model.astra.terms(self.pre)
        self.out = type(self.out_all)._make(a[:n] for a in self.out_all)
        self.hidden_act, self.leak, self.out_pre = (
            self.hidden_all[:n], self.leak_all[:n], self.pre[:n])
        self.y_hat, self.z, self.val_z = self.out.y_hat, self.out.z, self.out_all.z[n:]
        self.dj_dz, self.dj_dx = np.empty(n), np.empty(n)


def forward(model: Mlp, X: np.ndarray,
            trace: ForwardTrace | None = None) -> ForwardTrace:
    """Full-batch forward pass through hidden layer, activation and z-transform.

    Given a `trace` made for this model and for X itself, the pass
    rewrites it over X and its validation rows and returns it, as a training
    loop does every epoch; without one the trace gets fresh arrays.  X is
    fastest feature-major (Fortran-ordered), as data.standardize writes it.
    """
    ap = model.astra
    if trace is None:
        trace = ForwardTrace(np.asarray(X, dtype=float), model)
    elif X is not trace.inputs or trace.key != (model.n_x, model.n_h, ap.trainable):
        raise ValueError(f"a trace made for {trace.key} and its own X cannot "
                         f"hold {(model.n_x, model.n_h, ap.trainable)} and this X")
    X = trace.inputs
    n, hidden, leak = len(X), trace.hidden_all, trace.leak_all
    # Column-major hidden arrays: each per-unit pass runs over a contiguous
    # column of all rows, not over rows of only n_h elements.  With X
    # feature-major too, w1 @ X.T reads and writes C arrays.
    np.matmul(model.w1, X.T, out=hidden[:n].T)
    np.matmul(model.w1, trace.val_inputs.T, out=hidden[n:].T)
    hidden += model.b1
    # Branch-free Leaky ReLU over the preactivation, the bits of
    # np.where(h > 0, h, slope*h): the slope is (h > 0) raised to LEAKY_SLOPE,
    # exactly 1.0 or LEAKY_SLOPE, both zeros included.  A NaN h also gets
    # LEAKY_SLOPE; its NaN output then fails the finiteness check.
    np.greater(hidden, 0.0, out=leak)
    np.maximum(leak, LEAKY_SLOPE, out=leak)
    np.multiply(hidden, leak, out=hidden)
    # Two products, train rows then validation rows: OpenBLAS's gemv rounds
    # a row by its position in the product, and one product over all rows
    # moved validation rows' last bits against a product over them alone.
    np.matmul(hidden[:n], model.w2, out=trace.out_pre)
    np.matmul(hidden[n:], model.w2, out=trace.pre[n:])
    trace.pre += model.b2
    if not np.isfinite(trace.pre).all():
        raise NonFiniteError("preactivation must be finite")
    ap.output(trace.pre, trace.out_all)
    return trace


def _adam_step(theta: np.ndarray, st: AdamState, eta: float) -> None:
    """Adam on the flat gradient st.grad, in one pass over all parameters."""
    grad, tmp, den = st.grad, st.tmp, st.den
    st.t += 1
    np.multiply(1 - ADAM_BETA1, grad, out=tmp)
    st.m *= ADAM_BETA1
    st.m += tmp
    np.multiply(1 - ADAM_BETA2, grad, out=tmp)
    tmp *= grad
    st.v *= ADAM_BETA2
    st.v += tmp
    np.divide(st.v, 1 - ADAM_BETA2 ** st.t, out=den)
    np.sqrt(den, out=den)
    den += ADAM_EPS                                   # sqrt(v_hat) + eps
    step = np.divide(st.m, 1 - ADAM_BETA1 ** st.t, out=tmp)
    step *= eta
    step /= den                                       # eta*m_hat / den
    theta -= step


def backward_and_step(model: Mlp, adam: AdamState, trace: ForwardTrace, y,
                      kind: LossKind, eta: float, eta_b: float,
                      acm: ConfusionMatrix | None = None):
    """One full-batch training step, for 0/1 targets `y` or their ClassSplit.

    Backpropagates the chosen loss through the z-transform and the output
    activation (through the logistic alone for a frozen slope), applies an
    Adam step to the weights (updating `adam` in place) and (when the slope
    is trainable) a plain gradient step to beta, then re-derives b and tau.
    `acm`, if given, is approx_cm(trace.z, y), reused by the GMN loss.
    Returns (pre-step loss value, grad wrt beta).
    """
    ap = model.astra
    loss_value, dj_dz = loss_and_grad(kind, trace.z, y, acm, trace.dj_dz)
    dj_dx = trace.dj_dx
    grad_beta = output_chain(trace.out, ap, dj_dz, dj_dx)

    # The gradient of every parameter, written through views into one flat
    # vector.  dhidden is written over hidden_act once w2's gradient is in.
    np.matmul(trace.hidden_act.T, dj_dx, out=adam.grad_w2)
    adam.grad_b2[0] = np.add.reduce(dj_dx)
    dhidden = trace.hidden_act                            # column-major
    np.multiply(dj_dx[:, None], model.w2, out=dhidden)    # np.outer(dj_dx, w2)
    dhidden *= trace.leak
    # (dhidden.T @ X).T, over row blocks of at most ROW_BLOCK_BYTES of X.
    X, grad_w1_t = trace.inputs, adam.grad_w1.T
    rows = max(ROW_BLOCK_BYTES // (8 * model.n_x), 1)
    np.matmul(X[:rows].T, dhidden[:rows], out=grad_w1_t)
    for i in range(rows, len(X), rows):
        np.matmul(X[i:i + rows].T, dhidden[i:i + rows], out=adam.block)
        grad_w1_t += adam.block
    np.add.reduce(dhidden, axis=0, out=adam.grad_b1)

    _check_finite(model, adam.grad, "non-finite gradient in {}")
    ap.step_beta(grad_beta, eta_b)      # NonFiniteError on a non-finite beta
    _adam_step(model.theta, adam, eta)
    _check_finite(model, model.theta, "non-finite parameter {} after update")
    return float(loss_value), grad_beta


def predict_labels(model: Mlp, X: np.ndarray) -> np.ndarray:
    """Binary labels: 1 iff the preactivation is >= 0.

    Equivalent to y_hat >= tau(b) and to z >= 0.5 (boundary maps to class 1).
    """
    trace = forward(model, X)
    return (trace.out_pre >= 0.0).astype(int)


def to_checkpoint(model: Mlp) -> dict:
    """Self-describing, bit-exact checkpoint payload: the parameters only,
    no optimizer state."""
    return {
        "n_x": model.n_x,
        "n_h": model.n_h,
        "seed": model.seed,
        **{k: getattr(model, k).tolist() for k in PARAM_NAMES[:3]},
        "b2": model.b2,
        "astra": asdict(model.astra),
    }


def from_checkpoint(payload: dict) -> Mlp:
    """The model of a to_checkpoint payload, sized by its `n_x` and `n_h`,
    its slope rebuilt from `beta` and `trainable`: ValueError unless the
    saved slope is the rebuilt one and each array has its parameter's shape."""
    saved = payload["astra"]
    astra = AstraParams(saved["beta"], trainable=saved["trainable"])
    if asdict(astra) != saved:
        raise ValueError(f"checkpoint slope {saved} is not {asdict(astra)}")
    model = Mlp(payload["n_x"], payload["n_h"], astra, payload["seed"])
    for k in PARAM_NAMES[:3]:
        setattr(model, k, payload[k])
    model.b2 = float(payload["b2"])
    return model


def save_checkpoint(model: Mlp, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_checkpoint(model), fh)
