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
    OutputTerms,
    astra_backward,
    astra_forward,
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

# One numpy pass over a C-ordered (n, n_h) array with a per-column operand
# runs its inner loop over only n_h elements, n times.  Up to this width a
# Python loop over the n_h columns is faster (about 4x at n_h = 2); above it,
# the single pass is.  Both give the same bits.
NARROW_MAX = 5


def _narrow(a: np.ndarray) -> bool:
    return a.shape[1] <= NARROW_MAX


def hidden_width(n_x: int, n_y: int = 1) -> int:
    """Architecture rule: n_h = ceil((n_x + n_y) / 2)."""
    return math.ceil((n_x + n_y) / 2)


@dataclass
class AdamState:
    """First/second moment accumulators and a shared step counter."""

    m: dict
    v: dict
    t: int = 0

    @classmethod
    def for_shapes(cls, params: dict) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


@dataclass
class ForwardTrace:
    """What forward computed and backward_and_step reads.

    `hidden_pre`, `leak` and `hidden_act` are C-ordered (n, n_h) arrays;
    `leak` is the Leaky ReLU slope of each unit, exactly 1.0 or LEAKY_SLOPE.
    All arrays live in `ws`, so the next forward with the same workspace
    overwrites them.
    """

    inputs: np.ndarray
    hidden_pre: np.ndarray
    leak: np.ndarray
    hidden_act: np.ndarray
    out_pre: np.ndarray
    out: OutputTerms
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
    gets fresh arrays.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_x:
        raise ValueError(f"expected shape (*, {model.n_x}), got {X.shape}")
    ws = Workspace() if ws is None else ws
    shape = (len(X), model.n_h)
    hidden_pre = np.matmul(X, model.w1.T, out=ws.get("hidden_pre", shape))
    if _narrow(hidden_pre):
        for col, b in zip(hidden_pre.T, model.b1):
            col += b
    else:
        hidden_pre += model.b1
    # Branch-free Leaky ReLU: the same bits as np.where(h > 0, h, slope*h).
    positive = np.greater(hidden_pre, 0.0, out=ws.get("positive", shape, bool))
    leak = np.multiply(positive, 1.0 - LEAKY_SLOPE, out=ws.get("leak", shape))
    leak += LEAKY_SLOPE
    hidden_act = np.multiply(hidden_pre, leak, out=ws.get("hidden_act", shape))
    out_pre = np.matmul(hidden_act, model.w2, out=ws.get("out_pre", shape[:1]))
    out_pre += model.b2
    out = output_forward(out_pre, model.astra.b, model.astra.tau, ws)
    return ForwardTrace(inputs=X, hidden_pre=hidden_pre, leak=leak,
                        hidden_act=hidden_act, out_pre=out_pre, out=out, ws=ws)


class NonFiniteGradientError(RuntimeError):
    pass


def _adam_step(model: Mlp, st: AdamState, grads: dict, eta: float) -> None:
    st.t += 1
    params = model.params()
    for k, g in grads.items():
        m, v = st.m[k], st.v[k]
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1 ** st.t)
        v_hat = v / (1 - ADAM_BETA2 ** st.t)
        params[k] -= eta * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    model.b2 = float(params["b2"][0])


def _column_sums(a: np.ndarray, ws: Workspace) -> np.ndarray:
    """a.sum(axis=0) of a C-ordered (n, k) array, bit for bit.

    That sum adds row after row, and so does a running sum down each column
    (a per-column np.sum would add pairwise and change the bits).  Two
    neighbouring columns viewed as one complex column run both sums in one
    pass, since complex addition adds real and imaginary parts separately.
    """
    if not _narrow(a):
        return a.sum(axis=0)
    k = a.shape[1]
    pairs = a[:, :k - k % 2].view(complex)
    run = ws.get("column_sums", a.shape[:1], complex)
    sums = []
    for col in pairs.T:
        last = np.cumsum(col, out=run)[-1]
        sums += [last.real, last.imag]
    if k % 2:
        sums.append(np.cumsum(a[:, -1], out=ws.get("column_sums.odd", a.shape[:1]))[-1])
    return np.array(sums)


def backward_and_step(model: Mlp, adam: AdamState, trace: ForwardTrace, y,
                      kind: LossKind, eta: float, eta_b: float,
                      m0: int | None = None, m1: int | None = None,
                      acm: ApproxCM | None = None):
    """One full-batch training step.

    Backpropagates the chosen loss through the z-transform and the output
    activation, applies an Adam step to the weights (updating `adam` in
    place) and (when the slope is trainable) a plain gradient step to beta,
    then re-derives b and tau.
    `acm`, if given, is approx_cm(trace.z, y), reused by the GMN loss.
    Returns (pre-step loss value, grad wrt beta).
    """
    t = np.asarray(y, dtype=float)
    if m0 is None:
        m0 = int(np.sum(t == 0))
    if m1 is None:
        m1 = int(np.sum(t == 1))
    ap = model.astra

    ws = trace.ws
    loss_value, dj_dz = loss_and_grad(kind, trace.z, t, m0, m1, acm, ws)
    dy_dx, dz_dy, dy_db, dz_dtau = output_backward(trace.out, ap.b, ap.tau,
                                                   ap.trainable, ws)

    dj_dx = np.multiply(dj_dz, dz_dy, out=ws.get("dj_dx", dj_dz.shape))
    dj_dx *= dy_dx                                    # (n,)
    gw2 = trace.hidden_act.T @ dj_dx                  # (n_h,)
    gb2 = float(np.sum(dj_dx))
    dhidden = ws.get("dhidden", trace.leak.shape)    # np.outer(dj_dx, w2)
    if _narrow(dhidden):
        for col, w in zip(dhidden.T, model.w2):
            np.multiply(dj_dx, w, out=col)
    else:
        np.multiply(dj_dx[:, None], model.w2, out=dhidden)
    dhidden *= trace.leak
    gw1 = dhidden.T @ trace.inputs                    # (n_h, n_x)
    gb1 = _column_sums(dhidden, ws)

    if ap.trainable:
        # dj_dz * (dz_dy*dy_db + dz_dtau*dtau_db), in the buffer of dy_db
        dj_db = np.multiply(dz_dy, dy_db, out=dy_db)
        dz_dtau *= threshold_grad_b(ap.b)
        dj_db += dz_dtau
        dj_db *= dj_dz
        grad_beta = float(np.sum(dj_db)) * slope_grad_beta(ap.beta)
    else:
        grad_beta = 0.0

    grads = {"w1": gw1, "b1": gb1, "w2": gw2, "b2": np.array([gb2])}
    for k, g in grads.items():
        if not np.isfinite(g).all():
            raise NonFiniteGradientError(f"non-finite gradient in {k}")
    if not np.isfinite(grad_beta):
        raise NonFiniteGradientError("non-finite gradient in beta")

    _adam_step(model, adam, grads, eta)
    ap.step_beta(grad_beta, eta_b)
    for k, p in model.params().items():
        if not np.isfinite(p).all():
            raise NonFiniteGradientError(f"non-finite parameter {k} after update")
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
