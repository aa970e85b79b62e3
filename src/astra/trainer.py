"""Fixed-epoch full-batch training with the adaptive slope learning rate,
approximated-confusion-matrix telemetry, and best-on-validation extraction.

There is no early stopping: best validation performance can occur late after
an early setback, so the loop always runs the configured number of epochs and
keeps the parameters of the epoch with the lowest validation FNR_apx.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .activation import AstraParams, NonFiniteError, beta_from_slope, slope_from_tau
from .data import Dataset, write_records
from .losses import LossKind
from .metrics import approx_cm, class_split, positive_cells, rates
from .network import (
    AdamState,
    ForwardTrace,
    Mlp,
    backward_and_step,
    forward,
    hidden_width,
    init_mlp,
)

log = logging.getLogger(__name__)

# The paper's adaptive slope learning rate: eta_b starts at ETA_B_MIN, stays
# within [ETA_B_MIN, ETA_B_MAX], and is multiplied by K_MULT or K_DEC as the
# train e-ratio is above or below 1.  A trainable slope starts at the
# threshold TAU_INIT, from the beta BETA_INIT.
ETA_B_MIN, ETA_B_MAX, K_MULT, K_DEC = 0.01, 0.5, 1.1, 0.99
TAU_INIT = 0.25
BETA_INIT = beta_from_slope(slope_from_tau(TAU_INIT))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10000
    eta: float = 0.001
    loss: LossKind = LossKind("bce", False)
    seed: int = 0
    n_h: int | None = None        # override of the ceil((n_x+1)/2) rule

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if np.min(self.seed) < 0:   # a run's seed is [seed, repeat, fold]
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.eta < np.inf:
            raise ValueError(f"eta must be finite and > 0, got {self.eta}")
        if self.n_h is not None and self.n_h < 1:
            raise ValueError(f"n_h must be >= 1, got {self.n_h}")


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


@dataclass
class Snapshot:
    epoch: int
    model: Mlp
    val_fnr_apx: float
    diverged: bool = False


def eta_b_update(eta_b: float, e_ratio_value: float) -> float:
    """Adaptive slope learning rate: speed up while positives are harder
    than negatives (e-ratio > 1), decay otherwise, within
    [ETA_B_MIN, ETA_B_MAX]."""
    if e_ratio_value > 1.0:
        return min(K_MULT * eta_b, ETA_B_MAX)
    if e_ratio_value < 1.0:
        return max(K_DEC * eta_b, ETA_B_MIN)
    return eta_b


def _val_fnr_apx(trace: ForwardTrace) -> float:
    """FNR_apx = FN_apx / (FN_apx + TP_apx) of the validation set, from its
    positives' outputs in a run's trace alone: the cells read no negative.

    Only these rows pass through the network, so a non-finite preactivation
    on a validation negative raises nothing; it could not move FNR_apx.
    """
    fn, tp = positive_cells(trace.val_z)
    return fn / (fn + tp)


def build_model(cfg: TrainConfig, n_x: int) -> Mlp:
    n_h = cfg.n_h if cfg.n_h is not None else hidden_width(n_x)
    if cfg.loss.use_astra:
        astra = AstraParams(BETA_INIT)
    else:
        astra = AstraParams.frozen()
    return init_mlp(n_x, n_h, cfg.seed, astra=astra)


def train(cfg: TrainConfig, train_set: Dataset, val_set: Dataset):
    """Run exactly cfg.epochs full-batch steps; return (Snapshot, records).

    Per epoch: train-set telemetry on the current model, eta_b update from the
    train e-ratio, one parameter step, then one forward of the stepped model
    over the train rows and validation positives: this epoch's validation
    FNR_apx (see _val_fnr_apx) and the next one's train outputs.  The
    snapshot is replaced only on strictly lower validation FNR_apx (earliest
    epoch kept among ties).  Deterministic for a fixed seed.
    """
    split = class_split(train_set.y)    # the classes, found once per run
    if split.m1 < 1 or split.m0 < 1:
        raise ValueError("train set must contain both classes")
    if val_set.m1 < 1:
        raise ValueError("validation set must contain positives")

    model = build_model(cfg, train_set.n_x)
    adam = AdamState(model)
    # Feature-major, the layout network.forward is fast in: no copy of the
    # X that experiment.split returns, and one of the validation positives.
    X_train = np.asfortranarray(train_set.X)
    # One trace per run, the validation positives after the train rows,
    # which every forward and backward_and_step rewrites.
    trace = ForwardTrace(X_train, model, np.asfortranarray(val_set.X[val_set.y == 1]))
    eta_b = ETA_B_MIN
    records: list[EpochRecord] = []

    # NonFiniteError reports a divergence; numpy's warning would crash under -W error.
    with np.errstate(over="ignore", invalid="ignore"):
        forward(model, X_train, trace)
        snapshot = Snapshot(epoch=0, model=model.copy(),
                            val_fnr_apx=_val_fnr_apx(trace))
        for epoch in range(1, cfg.epochs + 1):
            try:
                acm = approx_cm(trace.z, split)
                r = rates(acm)
                eta_b = eta_b_update(eta_b, r.e_ratio)
                loss_value, _ = backward_and_step(
                    model, adam, trace, split, cfg.loss, cfg.eta, eta_b, acm)
                val_fnr = _val_fnr_apx(forward(model, X_train, trace))
            except NonFiniteError as exc:
                log.warning("epoch %d: %s; stopping with last good snapshot",
                            epoch, exc)
                snapshot.diverged = True
                break
            records.append(EpochRecord(
                epoch=epoch, train_loss=loss_value, train_e_ratio=r.e_ratio,
                train_fnr_apx=r.fnr, train_fpr_apx=r.fpr, val_fnr_apx=val_fnr,
                b=model.astra.b, tau=model.astra.tau, eta_b=eta_b))
            if val_fnr < snapshot.val_fnr_apx:
                np.copyto(snapshot.model.theta, model.theta)
                snapshot.model.astra.set_beta(model.astra.beta)
                snapshot.epoch, snapshot.val_fnr_apx = epoch, val_fnr
    return snapshot, records


def write_epoch_csv(records: list[EpochRecord], path) -> None:
    write_records(records, EpochRecord, path)
