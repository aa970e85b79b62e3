"""The benchmark's workloads: seeded dataset generators and the `astra`
command each one times.

The program sees only the files written here; the workload seed never reaches
it except as the `--seed` flag of the command.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# The criterion 8 recipe (20000 negatives, 34 positives, 3 features) run as
# 4 methods x 2 repeats x 5 folds.  100 epochs keep one command near 5 s on
# two cores.  At the default eta = 0.001 the GMN models are still untrained
# after 100 epochs (gmn-astra G-Mean about 0.5, spread wide across seeds), so
# the reduced run uses eta = 0.01 to reach the trained regime (about 0.87).
SKIN_EPOCHS = 100
SKIN_REPEATS = 2
SKIN_FOLDS = 5
SKIN_METHODS = ("bce", "bce-astra", "gmn", "gmn-astra")
SKIN_CONFIG = {"eta": 0.01}

# 12000 x 22 with 120 positives; the train split is 7200 rows.  1200 epochs
# give 1199 epoch intervals, so the p99 epoch time has 11 samples beyond it.
WIDE_ROWS = 12000
WIDE_FEATURES = 22
WIDE_POSITIVES = 120
WIDE_SHIFT = 1.0
WIDE_EPOCHS = 1200


def skin_shaped(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Negatives N(0, I), positives N(2, 0.8), 3 features; raw labels 1/2."""
    rng = np.random.default_rng([seed, 1])
    X = np.vstack([rng.normal(0.0, 1.0, (20000, 3)),
                   rng.normal(2.0, 0.8, (34, 3))])
    return X, np.array([1] * 20000 + [2] * 34)


def wide(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Negatives N(0, I), positives N(1, I), 22 features; raw labels 0/1."""
    rng = np.random.default_rng([seed, 2])
    m0 = WIDE_ROWS - WIDE_POSITIVES
    X = np.vstack([rng.normal(0.0, 1.0, (m0, WIDE_FEATURES)),
                   rng.normal(WIDE_SHIFT, 1.0, (WIDE_POSITIVES, WIDE_FEATURES))])
    return X, np.array([0] * m0 + [1] * WIDE_POSITIVES)


def write_sparse(path: Path, X: np.ndarray, labels: np.ndarray) -> None:
    """`<label> <index>:<value> ...` lines, 1-based, zeros omitted, floats
    written round-trip exactly."""
    with open(path, "w") as fh:
        for row, label in zip(X.tolist(), labels.tolist()):
            feats = " ".join(f"{j}:{v!r}" for j, v in enumerate(row, 1) if v != 0.0)
            fh.write(f"{label} {feats}".rstrip() + "\n")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str                 # astra subcommand
    epochs: int
    generate: Callable[[int], tuple[np.ndarray, np.ndarray]]
    # pooled: `--jobs nproc` workers with one BLAS thread each; otherwise
    # one process with nproc BLAS threads.
    pooled: bool
    flags: tuple[str, ...] = ()
    config: dict = field(default_factory=dict)
    fingerprint_files: tuple[str, ...] = ()
    runs_per_command: int = 1

    def blas_threads(self, nproc: int) -> int:
        return 1 if self.pooled else nproc

    def jobs(self, nproc: int) -> int:
        return nproc if self.pooled else 1

    def write_inputs(self, seed: int, work: Path) -> Path:
        """Write the dataset (and the config file, if any); return the dataset."""
        dataset = work / "dataset.txt"
        write_sparse(dataset, *self.generate(seed))
        if self.config:
            (work / "config.json").write_text(json.dumps(self.config) + "\n")
        return dataset

    def cli_args(self, seed: int, work: Path, out: Path, jobs: int) -> list[str]:
        args = [self.command, "--dataset", str(work / "dataset.txt"),
                "--out", str(out), "--epochs", str(self.epochs),
                "--seed", str(seed), *self.flags]
        if self.config:
            args += ["--config", str(work / "config.json")]
        if self.pooled:
            args += ["--jobs", str(jobs)]
        return args


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="skin-cv",
            why=("the paper's protocol shape; tiny matmuls, so per-row "
                 "activation, z-transform, ACM and loss work dominate; the "
                 "only workload using the process pool, Wilcoxon and runs.csv"),
            command="cv", epochs=SKIN_EPOCHS, generate=skin_shaped, pooled=True,
            flags=("--repeats", str(SKIN_REPEATS), "--folds", str(SKIN_FOLDS)),
            config=SKIN_CONFIG,
            fingerprint_files=("runs.csv", "report.json"),
            runs_per_command=len(SKIN_METHODS) * SKIN_REPEATS * SKIN_FOLDS,
        ),
        Workload(
            name="wide-train",
            why=("one long gmn-astra run at n_h = 12, so hidden matmuls, the "
                 "outer-product backward and Adam dominate; no pool; writes "
                 "epochs.csv and a checkpoint; 4x larger input to parse"),
            command="train", epochs=WIDE_EPOCHS, generate=wide, pooled=False,
            flags=("--loss", "gmn", "--astra", "on"),
            fingerprint_files=("checkpoint.json", "epochs.csv", "summary.json"),
        ),
    )
}
