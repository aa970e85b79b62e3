"""Correctness checks on the artifacts of one `astra` command, and the output
fingerprint that must repeat across every sample of a run."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

CM_CELLS = ("tn", "fp", "fn", "tp")
FAILED_LINE = re.compile(r"^(\d+) run\(s\) failed", re.MULTILINE)
REPORT_METRICS = ("g_mean", "mcc")


@dataclass
class Outcome:
    """What one command produced: runs attempted and failed, named checks,
    epochs completed and the quality figure."""

    runs: int
    failed_runs: int = 0
    checks: dict = field(default_factory=dict)
    epochs: int = 0
    test_gmean: float = math.nan

    @property
    def attempted(self) -> int:
        return self.runs + len(self.checks)

    @property
    def failed(self) -> int:
        return self.failed_runs + sum(not ok for ok in self.checks.values())


def read_runs_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def is_failed_run(row: dict) -> bool:
    """`runs.csv` has no error column: a failed run is written with an
    all-zero test confusion matrix, which no real test fold produces."""
    return all(int(row[c]) == 0 for c in CM_CELLS)


def failed_runs_reported(stderr: str) -> int:
    """The count in the CLI's "<n> run(s) failed" stderr line, else 0."""
    m = FAILED_LINE.search(stderr)
    return int(m.group(1)) if m else 0


def count_epoch_rows(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for line in fh if line.strip()) - 1


def fingerprint(out: Path, names) -> str:
    """sha256 over the named artifacts, each prefixed by its name."""
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0")
        h.update((out / name).read_bytes())
    return h.hexdigest()


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(float(v)) for v in values)


def check_cv(out: Path, stderr: str, rc: int, expected_runs: int,
             epochs: int, quality_method: str) -> Outcome:
    o = Outcome(runs=expected_runs)
    o.checks["exit_code"] = rc == 0
    try:
        rows = read_runs_csv(out / "runs.csv")
    except (OSError, ValueError, KeyError):
        rows = []
    try:
        zero_cm = sum(is_failed_run(r) for r in rows)
        finite = all(_finite(r["g_mean"], r["mcc"]) for r in rows)
    except (ValueError, KeyError, TypeError):
        zero_cm, finite = len(rows), False
    missing = expected_runs - len(rows)
    o.failed_runs = min(expected_runs,
                        max(zero_cm, failed_runs_reported(stderr), missing))
    o.checks["row_count"] = len(rows) == expected_runs
    o.checks["finite_scores"] = bool(rows) and finite
    try:
        report = json.loads((out / "report.json").read_text())
        p_values = report["p_values"]
        o.checks["report_pairs"] = (sorted(p_values) == sorted(REPORT_METRICS)
                                    and all(len(p_values[m]) == 6 for m in REPORT_METRICS))
    except (OSError, ValueError, KeyError, TypeError):
        o.checks["report_pairs"] = False
    o.epochs = epochs * (expected_runs - o.failed_runs)
    gms = [float(r["g_mean"]) for r in rows
           if r.get("method") == quality_method and not is_failed_run(r)]
    if gms and o.checks["finite_scores"]:
        o.test_gmean = sum(gms) / len(gms)
    return o


def check_train(out: Path, stderr: str, rc: int, epochs: int) -> Outcome:
    o = Outcome(runs=1)
    o.checks["exit_code"] = rc == 0
    try:
        summary = json.loads((out / "summary.json").read_text())
        cm = summary["test_cm"]
        ran = not summary["diverged"] and any(cm[c] for c in CM_CELLS)
        gm = summary["test_g_mean"]
        o.checks["finite_scores"] = _finite(gm, summary["test_mcc"])
    except (OSError, ValueError, KeyError, TypeError):
        ran, gm = False, None
        o.checks["finite_scores"] = False
    o.failed_runs = 0 if ran else 1
    try:
        o.epochs = count_epoch_rows(out / "epochs.csv")
    except OSError:
        o.epochs = 0
    o.checks["epoch_rows"] = o.epochs == epochs
    try:
        ckpt = json.loads((out / "checkpoint.json").read_text())
        weights = [*sum(ckpt["w1"], []), *ckpt["b1"], *ckpt["w2"], ckpt["b2"]]
        o.checks["finite_checkpoint"] = _finite(*weights)
    except (OSError, ValueError, KeyError, TypeError):
        o.checks["finite_checkpoint"] = False
    if o.checks["finite_scores"]:
        o.test_gmean = float(gm)
    return o
