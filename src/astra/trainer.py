"""Fixed-epoch full-batch training with the adaptive slope learning rate,
approximated-confusion-matrix telemetry, and best-on-validation extraction.

There is no early stopping: best validation performance can occur late after
an early setback, so the loop always runs the configured number of epochs and
keeps the parameters of the epoch with the lowest validation FNR_apx.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields

import numpy as np

from .activation import AstraParams
from .data import Dataset
from .losses import LossKind
from .metrics import approx_cm, e_ratio, rates
from .network import (
    AdamState,
    Mlp,
    NonFiniteGradientError,
    backward_and_step,
    forward,
    hidden_width,
    init_mlp,
)
from .workspace import Workspace

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10000
    eta: float = 0.001
    eta_b_min: float = 0.01       # also the starting value of eta_b
    eta_b_max: float = 0.5
    k_mult: float = 1.1
    k_dec: float = 0.99
    tau_init: float = 0.25
    loss: LossKind = LossKind("bce", False)
    seed: int = 0
    n_h: int | None = None        # override of the ceil((n_x+1)/2) rule

    def __post_init__(self):
        if not 0 < self.eta_b_min <= self.eta_b_max:
            raise ValueError("need 0 < eta_b_min <= eta_b_max")
        if self.k_mult <= 1 or not 0 < self.k_dec < 1:
            raise ValueError("need k_mult > 1 and 0 < k_dec < 1")
        if not 0.05 < self.tau_init <= 0.5:
            raise ValueError("tau_init must be in (0.05, 0.5]")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    train_e_ratio: float
    train_fnr_apx: float
    train_fpr_apx: float
    val_fnr_apx: float
    b: float
    tau: float
    eta_b: float


EPOCH_CSV_HEADER = ",".join(f.name for f in fields(EpochRecord))


@dataclass
class Snapshot:
    epoch: int
    model: Mlp
    val_fnr_apx: float
    diverged: bool = False


def eta_b_update(eta_b: float, e_ratio_value: float, cfg: TrainConfig) -> float:
    """Adaptive slope learning rate: speed up while positives are harder
    than negatives (e-ratio > 1), decay otherwise, within [min, max]."""
    if e_ratio_value > 1.0:
        return min(cfg.k_mult * eta_b, cfg.eta_b_max)
    if e_ratio_value < 1.0:
        return max(cfg.k_dec * eta_b, cfg.eta_b_min)
    return eta_b


def _val_fnr_apx(model: Mlp, X: np.ndarray, t: np.ndarray, ws: Workspace) -> float:
    # FN_apx / m_1 of approx_cm, from only the two cells it needs; needs only
    # m_1 >= 1.
    z = forward(model, X, ws).z
    prod = ws.get("val.prod", z.shape)
    tp = float(np.sum(np.multiply(z, t, out=prod)))
    np.subtract(1.0, z, out=prod)
    fn = float(np.sum(np.multiply(prod, t, out=prod)))
    return fn / (fn + tp)


def build_model(cfg: TrainConfig, n_x: int) -> Mlp:
    n_h = cfg.n_h if cfg.n_h is not None else hidden_width(n_x)
    if cfg.loss.use_astra:
        astra = AstraParams.from_tau_init(cfg.tau_init)
    else:
        astra = AstraParams.frozen()
    return init_mlp(n_x, n_h, cfg.seed, astra=astra)


def train(cfg: TrainConfig, train_set: Dataset, val_set: Dataset):
    """Run exactly cfg.epochs full-batch steps; return (Snapshot, records).

    Per epoch: train-set telemetry on the current model, eta_b update from the
    train e-ratio, one parameter step, then validation FNR_apx on the stepped
    model; the snapshot is replaced only on strictly lower validation FNR_apx
    (earliest epoch kept among ties).  Deterministic for a fixed seed.
    """
    if train_set.m1 < 1 or train_set.m0 < 1:
        raise ValueError("train set must contain both classes")
    if val_set.m1 < 1:
        raise ValueError("validation set must contain positives")

    model = build_model(cfg, train_set.n_x)
    adam = AdamState.for_shapes(model.params())
    m0, m1 = train_set.m0, train_set.m1
    t_train = np.asarray(train_set.y, dtype=float)
    t_val = np.asarray(val_set.y, dtype=float)
    # One workspace per batch: after the first epoch nothing is allocated.
    ws_train, ws_val = Workspace(), Workspace()
    eta_b = cfg.eta_b_min

    snapshot = Snapshot(epoch=0, model=model.copy(),
                        val_fnr_apx=_val_fnr_apx(model, val_set.X, t_val, ws_val))
    records: list[EpochRecord] = []

    for epoch in range(1, cfg.epochs + 1):
        trace = forward(model, train_set.X, ws_train)
        acm = approx_cm(trace.z, t_train, ws_train)
        r = rates(acm)
        er = e_ratio(acm)
        eta_b = eta_b_update(eta_b, er, cfg)
        try:
            loss_value, _ = backward_and_step(
                model, adam, trace, t_train, cfg.loss, cfg.eta, eta_b, m0, m1,
                acm)
        except NonFiniteGradientError as exc:
            log.warning("epoch %d: %s; stopping with last good snapshot",
                        epoch, exc)
            snapshot.diverged = True
            break
        if not np.isfinite(loss_value):
            log.warning("epoch %d: non-finite loss; stopping with last good "
                        "snapshot", epoch)
            snapshot.diverged = True
            break
        val_fnr = _val_fnr_apx(model, val_set.X, t_val, ws_val)
        records.append(EpochRecord(
            epoch=epoch, train_loss=loss_value, train_e_ratio=er,
            train_fnr_apx=r.fnr, train_fpr_apx=r.fpr, val_fnr_apx=val_fnr,
            b=model.astra.b, tau=model.astra.tau, eta_b=eta_b))
        if val_fnr < snapshot.val_fnr_apx:
            snapshot = Snapshot(epoch=epoch, model=model.copy(),
                                val_fnr_apx=val_fnr)
    return snapshot, records


def write_epoch_csv(records: list[EpochRecord], path) -> None:
    """Stream the epoch log as CSV with round-trip-exact float formatting."""
    with open(path, "w") as fh:
        fh.write(EPOCH_CSV_HEADER + "\n")
        for r in records:    # vars(r) holds the fields in header order
            fh.write(",".join(map(repr, vars(r).values())) + "\n")
