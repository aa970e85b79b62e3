"""Golden output fingerprints: sha256 of the byte-compared artifacts of a
reduced `astra cv` and a reduced `astra train`, checked against values
committed in golden.json.

Rerun tests only compare two runs of the current code; this test catches a
change of any bit against the committed outputs.  Floating-point results
depend on the numpy build, the BLAS library and the CPU, so the hashes are
compared only in the environment they were captured in; elsewhere the test
skips and names the mismatch.

A change that alters numerics on purpose regenerates the golden with

    PYTHONPATH=src python tests/test_golden.py

which also prints the artifacts whose hashes changed against the golden.json
it replaces, and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from astra import cli

GOLDEN = Path(__file__).with_name("golden.json")

CV_FILES = ("runs.csv", "report.json")
TRAIN_FILES = ("checkpoint.json", "epochs.csv", "summary.json")


def environment() -> dict:
    """The manifest's environment without the CPU count and the BLAS thread
    setting: every run here is in one process, and its products are small
    enough that the hashes held at 1 and 2 BLAS threads (a CI step runs this
    test at both)."""
    env = cli.environment()
    del env["cpus"], env["blas_threads"]
    return env


def _write_dataset(path: Path, X: np.ndarray, labels: np.ndarray) -> None:
    with open(path, "w") as fh:
        for row, label in zip(X.tolist(), labels.tolist()):
            feats = " ".join(f"{j}:{v!r}" for j, v in enumerate(row, 1))
            fh.write(f"{label} {feats}\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_reduced(work: Path) -> dict:
    """Run both reduced commands under `work`; return {artifact: sha256}."""
    rng = np.random.default_rng([20220905, 1])
    X = np.vstack([rng.normal(0.0, 1.0, (1500, 3)),
                   rng.normal(2.0, 0.8, (20, 3))])
    _write_dataset(work / "cv.txt", X, np.array([1] * 1500 + [2] * 20))
    rng = np.random.default_rng([20220905, 2])
    X = np.vstack([rng.normal(0.0, 1.0, (2960, 22)),
                   rng.normal(1.0, 1.0, (40, 22))])
    _write_dataset(work / "train.txt", X, np.array([0] * 2960 + [1] * 40))
    (work / "config.json").write_text(json.dumps({"eta": 0.01}))

    config = ["--config", str(work / "config.json")]
    rc = cli.main(["cv", "--dataset", str(work / "cv.txt"), "--out",
                   str(work / "cv"), "--epochs", "60", "--repeats", "2",
                   "--folds", "5", "--seed", "7", "--jobs", "1", *config])
    assert rc == 0
    rc = cli.main(["train", "--dataset", str(work / "train.txt"), "--out",
                   str(work / "train"), "--loss", "gmn", "--astra", "on",
                   "--epochs", "300", "--seed", "7", *config])
    assert rc == 0
    hashes = {f"cv/{f}": _sha256(work / "cv" / f) for f in CV_FILES}
    hashes.update({f"train/{f}": _sha256(work / "train" / f) for f in TRAIN_FILES})
    return hashes


def test_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    env = environment()
    mismatch = {k: (golden["environment"].get(k), v) for k, v in env.items()
                if golden["environment"].get(k) != v}
    if mismatch:
        pytest.skip("golden captured in another environment: " + ", ".join(
            f"{k} {want!r} != {got!r}" for k, (want, got) in mismatch.items()))
    assert run_reduced(tmp_path) == golden["sha256"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        payload = {"environment": environment(), "sha256": run_reduced(Path(tmp))}
    old = json.loads(GOLDEN.read_text())["sha256"] if GOLDEN.exists() else {}
    GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True), file=sys.stderr)
    changed = sorted(k for k, v in payload["sha256"].items() if old.get(k) != v)
    print("changed: " + (", ".join(changed) if changed else "none"))
