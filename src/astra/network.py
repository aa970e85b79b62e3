"""One-hidden-layer MLP with Leaky ReLU hidden units and the asymmetric
sigmoid output, trained full-batch with Adam on the weights and plain
gradient descent on the slope parameter beta.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

# The unused helpers stay bound here: bench/spans.py trace points wrap them
# in astra.network.
from .activation import (  # noqa: F401
    AstraParams,
    LogisticTerms,
    NonFiniteError,
    OutputTerms,
    astra_backward,
    astra_forward,
    logistic_backward,
    logistic_forward,
    output_backward,
    output_forward,
    slope_grad_beta,
    threshold_grad_b,
    z_transform,
    z_transform_backward,
)
from .losses import LossKind, loss_and_grad
from .metrics import ApproxCM
from .workspace import Workspace

LEAKY_SLOPE = 0.3

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

def hidden_width(n_x: int, n_y: int = 1) -> int:
    """Architecture rule: n_h = ceil((n_x + n_y) / 2)."""
    return math.ceil((n_x + n_y) / 2)


PARAM_NAMES = ("w1", "b1", "w2", "b2")


@dataclass
class AdamState:
    """First/second moment accumulators and a shared step counter.

    `m` and `v` are flat: the parameters w1 (row by row), b1, w2 and b2 in
    that order, the layout of the gradient backward_and_step builds.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_shapes(cls, params: dict) -> "AdamState":
        size = sum(np.size(p) for p in params.values())
        return cls(m=np.zeros(size), v=np.zeros(size))


@dataclass
class ForwardTrace:
    """What forward computed and backward_and_step reads.

    `inputs` is the X forward was given.  `hidden_pre`, `leak` and
    `hidden_act` are column-major (n, n_h) arrays;
    `leak` is the Leaky ReLU slope of each unit, exactly 1.0 or LEAKY_SLOPE.
    All arrays live in `ws`, so the next forward with the same workspace
    overwrites them.
    """

    inputs: np.ndarray
    hidden_pre: np.ndarray
    leak: np.ndarray
    hidden_act: np.ndarray
    out_pre: np.ndarray
    out: OutputTerms | LogisticTerms
    ws: Workspace

    @property
    def y_hat(self) -> np.ndarray:
        return self.out.y_hat

    @property
    def z(self) -> np.ndarray:
        return self.out.z


@dataclass
class Mlp:
    w1: np.ndarray          # (n_h, n_x)
    b1: np.ndarray          # (n_h,)
    w2: np.ndarray          # (n_h,)
    b2: float
    astra: AstraParams
    seed: int

    @property
    def n_x(self) -> int:
        return self.w1.shape[1]

    @property
    def n_h(self) -> int:
        return self.w1.shape[0]

    def params(self) -> dict:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2,
                "b2": np.array([self.b2])}

    def copy(self) -> "Mlp":
        return replace(self, w1=self.w1.copy(), b1=self.b1.copy(),
                       w2=self.w2.copy(), astra=replace(self.astra))


def init_mlp(n_x: int, n_h: int, seed: int,
             astra: AstraParams | None = None) -> Mlp:
    """He-normal hidden weights, Glorot-uniform output weights, zero biases.

    Deterministic for a given seed.
    """
    if n_x < 1 or n_h < 1:
        raise ValueError("layer sizes must be >= 1")
    rng = np.random.default_rng(seed)
    w1 = rng.normal(0.0, math.sqrt(2.0 / n_x), size=(n_h, n_x))
    limit = math.sqrt(6.0 / (n_h + 1))
    w2 = rng.uniform(-limit, limit, size=n_h)
    return Mlp(
        w1=w1,
        b1=np.zeros(n_h),
        w2=w2,
        b2=0.0,
        astra=astra if astra is not None else AstraParams.frozen(),
        seed=int(seed) if np.isscalar(seed) else list(seed),
    )


def forward(model: Mlp, X: np.ndarray, ws: Workspace | None = None) -> ForwardTrace:
    """Full-batch forward pass through hidden layer, activation and z-transform.

    A training loop passes the same `ws` every epoch; without one the trace
    gets fresh arrays.  X is fastest feature-major (Fortran-ordered), as
    data.standardize writes it.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_x:
        raise ValueError(f"expected shape (*, {model.n_x}), got {X.shape}")
    ws = Workspace() if ws is None else ws
    # Column-major hidden arrays: each per-unit pass runs over a contiguous
    # column of n rows, not over n rows of only n_h elements.  With X
    # feature-major too, w1 @ X.T reads and writes C arrays.
    units = (model.n_h, len(X))
    hidden_pre = np.matmul(model.w1, X.T, out=ws.get("hidden_pre", units)).T
    hidden_pre += model.b1
    # Branch-free Leaky ReLU: the same bits as np.where(h > 0, h, slope*h).
    # The slope is (h > 0) raised to LEAKY_SLOPE, so exactly 1.0 or
    # LEAKY_SLOPE, both zeros included.  A NaN h also gets LEAKY_SLOPE, but
    # its NaN output then fails the output's finiteness check.
    leak = np.greater(hidden_pre, 0.0, out=ws.get("leak", units).T)
    np.maximum(leak, LEAKY_SLOPE, out=leak)
    hidden_act = np.multiply(hidden_pre, leak, out=ws.get("hidden_act", units).T)
    out_pre = np.matmul(hidden_act, model.w2, out=ws.get("out_pre", units[1:]))
    out_pre += model.b2
    ap = model.astra
    if ap.trainable:
        out = output_forward(out_pre, ap.b, ap.tau, ws)
    else:   # b = 1 and tau = 0.5: the logistic, no z-transform
        out = logistic_forward(out_pre, ws)
    return ForwardTrace(inputs=X, hidden_pre=hidden_pre, leak=leak,
                        hidden_act=hidden_act, out_pre=out_pre, out=out, ws=ws)


def _blocks(model: Mlp, flat: np.ndarray) -> dict:
    """Views of a flat parameter-sized vector shaped as each parameter, in
    the order of PARAM_NAMES."""
    n_w1, n_h = model.w1.size, model.n_h
    return {"w1": flat[:n_w1].reshape(model.w1.shape),
            "b1": flat[n_w1:n_w1 + n_h],
            "w2": flat[n_w1 + n_h:n_w1 + 2 * n_h],
            "b2": flat[n_w1 + 2 * n_h:]}


def _adam_step(model: Mlp, st: AdamState, grad: np.ndarray, eta: float,
               ws: Workspace) -> None:
    """Adam on the flat gradient, in one pass over all parameters."""
    st.t += 1
    tmp = np.multiply(1 - ADAM_BETA1, grad, out=ws.get("adam.tmp", grad.shape))
    st.m *= ADAM_BETA1
    st.m += tmp
    np.multiply(1 - ADAM_BETA2, grad, out=tmp)
    tmp *= grad
    st.v *= ADAM_BETA2
    st.v += tmp
    den = np.divide(st.v, 1 - ADAM_BETA2 ** st.t, out=ws.get("adam.den", grad.shape))
    np.sqrt(den, out=den)
    den += ADAM_EPS                                   # sqrt(v_hat) + eps
    step = np.divide(st.m, 1 - ADAM_BETA1 ** st.t, out=tmp)
    step *= eta
    step /= den                                       # eta*m_hat / den
    s = _blocks(model, step)
    model.w1 -= s["w1"]
    model.b1 -= s["b1"]
    model.w2 -= s["w2"]
    model.b2 = float(model.b2 - step[-1])


def backward_and_step(model: Mlp, adam: AdamState, trace: ForwardTrace, y,
                      kind: LossKind, eta: float, eta_b: float,
                      acm: ApproxCM | None = None):
    """One full-batch training step, for 0/1 targets `y` or their ClassSplit.

    Backpropagates the chosen loss through the z-transform and the output
    activation (through the logistic alone for a frozen slope), applies an
    Adam step to the weights (updating `adam` in place) and (when the slope
    is trainable) a plain gradient step to beta, then re-derives b and tau.
    `acm`, if given, is approx_cm(trace.z, y), reused by the GMN loss.
    Returns (pre-step loss value, grad wrt beta).
    """
    ap = model.astra
    ws = trace.ws
    loss_value, dj_dz = loss_and_grad(kind, trace.z, y, acm, ws)
    if not np.isfinite(loss_value):
        raise NonFiniteError("non-finite loss")
    dj_dx = ws.get("dj_dx", dj_dz.shape)
    if ap.trainable:
        dy_dx, dz_dy, dy_db, dz_dtau = output_backward(trace.out, ap.b, ap.tau,
                                                       ws)
        np.multiply(dj_dz, dz_dy, out=dj_dx)
        dj_dx *= dy_dx                                # (n,)
        # dj_dz * (dz_dy*dy_db + dz_dtau*dtau_db), in the buffer of dy_db
        dj_db = np.multiply(dz_dy, dy_db, out=dy_db)
        dz_dtau *= threshold_grad_b(ap.b)
        dj_db += dz_dtau
        dj_db *= dj_dz
        grad_beta = float(dj_db.sum()) * slope_grad_beta(ap.beta)
    else:   # dz/dy = 1
        np.multiply(dj_dz, logistic_backward(trace.out, ws), out=dj_dx)
        grad_beta = 0.0

    # The gradient of every parameter, written into one flat vector.
    grad = ws.get("grad", adam.m.shape)
    g = _blocks(model, grad)
    np.matmul(trace.hidden_act.T, dj_dx, out=g["w2"])
    g["b2"][0] = dj_dx.sum()
    dhidden = ws.get("dhidden", trace.leak.T.shape).T     # column-major
    np.multiply(dj_dx[:, None], model.w2, out=dhidden)    # np.outer(dj_dx, w2)
    dhidden *= trace.leak
    np.matmul(trace.inputs.T, dhidden, out=g["w1"].T)    # (dhidden.T @ X).T
    dhidden.sum(axis=0, out=g["b1"])

    if not np.isfinite(grad).all():
        k = next(k for k, a in g.items() if not np.isfinite(a).all())
        raise NonFiniteError(f"non-finite gradient in {k}")
    if not np.isfinite(grad_beta):
        raise NonFiniteError("non-finite gradient in beta")

    _adam_step(model, adam, grad, eta, ws)
    ap.step_beta(grad_beta, eta_b)
    for k in PARAM_NAMES:     # separate arrays: one check each
        if not np.isfinite(getattr(model, k)).all():
            raise NonFiniteError(f"non-finite parameter {k} after update")
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
    ap = model.astra
    return {
        "n_x": model.n_x,
        "n_h": model.n_h,
        "seed": model.seed,
        "w1": model.w1.tolist(),
        "b1": model.b1.tolist(),
        "w2": model.w2.tolist(),
        "b2": model.b2,
        "astra": {"beta": ap.beta, "b": ap.b, "tau": ap.tau,
                  "trainable": ap.trainable},
    }


def from_checkpoint(payload: dict) -> Mlp:
    return Mlp(
        w1=np.array(payload["w1"], dtype=float),
        b1=np.array(payload["b1"], dtype=float),
        w2=np.array(payload["w2"], dtype=float),
        b2=float(payload["b2"]),
        astra=AstraParams(**payload["astra"]),
        seed=payload["seed"],
    )


def save_checkpoint(model: Mlp, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_checkpoint(model), fh)
