"""Binary classification under extreme class imbalance: an asymmetric
sigmoid output activation with a learnable threshold, an approximated-G-Mean
loss, approximated-confusion-matrix training telemetry, and a repeated
cross-validation experiment harness."""

from .activation import (
    AstraParams,
    astra_backward,
    astra_forward,
    astra_threshold,
    misorder_band_upper,
    slope_from_beta,
    z_transform,
    z_transform_backward,
)
from .data import Dataset, orient_labels, parse_csv, parse_sparse
from .losses import ALL_KINDS, LossKind, bce_loss, gmn_loss
from .metrics import ConfusionMatrix, approx_cm, counting_cm, g_mean, mcc, rates
from .network import Mlp, forward, init_mlp, predict_labels
from .trainer import Snapshot, TrainConfig, train
from .experiment import RunResult, compare, determine_winners, run_cv

__all__ = [
    "ALL_KINDS", "AstraParams", "ConfusionMatrix", "Dataset", "LossKind",
    "Mlp", "RunResult", "Snapshot", "TrainConfig", "approx_cm",
    "astra_backward", "astra_forward", "astra_threshold", "bce_loss",
    "compare", "counting_cm", "determine_winners", "forward", "g_mean",
    "gmn_loss", "init_mlp", "mcc", "misorder_band_upper", "orient_labels",
    "parse_csv", "parse_sparse", "predict_labels", "rates", "run_cv",
    "slope_from_beta", "train", "z_transform", "z_transform_backward",
]

__version__ = "0.1.0"
