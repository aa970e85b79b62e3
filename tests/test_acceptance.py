"""End-to-end acceptance suite.

Each test prints one pass/fail line so the whole gate can be read off a
plain ``pytest tests/test_acceptance.py -v -s`` run.  Criteria 5 and 6 share
one reference configuration frozen after a screening run; criterion 7 needs
the real skin dataset and is skipped unless SKIN588_PATH points at it.
"""

import json
import os

import numpy as np
import pytest

from conftest import gaussian_imbalance
from astra import cli
from astra.activation import (
    AstraParams,
    astra_backward,
    astra_forward,
    astra_threshold,
    clamp_unit,
    misorder_band_upper,
    threshold_grad_b,
    z_transform,
    z_transform_backward,
)
from astra.data import Dataset, fold_split, parse_sparse, standardize, stratified_folds, write_sparse
from astra.losses import ALL_KINDS, LossKind, bce_loss, gmn_loss, loss_and_grad
from astra.metrics import counting_cm, g_mean
from astra.network import forward, init_mlp, predict_labels
from astra.trainer import BETA_INIT, TrainConfig, train
from test_experiment import enumeration_p_value
from astra.experiment import compare, run_cv, wilcoxon_signed_rank


def check(num: int, desc: str, ok: bool) -> None:
    print(f"\nacceptance criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_math_identities():
    xs = np.linspace(-10.0, 10.0, 4001)
    sigmoid = 1.0 / (1.0 + np.exp(-xs))
    ok = bool(np.max(np.abs(astra_forward(xs, 1.0) - sigmoid)) < 1e-12)
    for b in (1.0, 2.0, 7.396, 20.0, 60.0):
        tau = astra_threshold(b)
        ok = ok and abs(astra_forward(0.0, b) - tau) < 1e-12
        ok = ok and abs(z_transform(tau, tau) - 0.5) < 1e-12
    ok = ok and abs(astra_threshold(7.396) - 0.25) < 5e-4
    check(1, "math identities", ok)


def test_criterion_2_gradients():
    rng = np.random.default_rng(17)
    h = 1e-6
    worst = 0.0

    def rel(analytic, fd):
        return abs(analytic - fd) / max(abs(fd), 1e-8)

    for _ in range(20):
        x = float(rng.uniform(-3, 3))
        b = float(rng.uniform(1.1, 20.0))
        dy_dx, dy_db = astra_backward(x, b)
        worst = max(worst, rel(dy_dx, (astra_forward(x + h, b) - astra_forward(x - h, b)) / (2 * h)))
        worst = max(worst, rel(dy_db, (astra_forward(x, b + h) - astra_forward(x, b - h)) / (2 * h)))
        y = float(rng.uniform(0.05, 0.95))
        tau = float(rng.uniform(0.07, 0.5))
        dz_dy, dz_dtau = z_transform_backward(np.array([y]), tau)
        worst = max(worst, rel(float(dz_dy[0]),
                               (z_transform(y + h, tau) - z_transform(y - h, tau)) / (2 * h)))
        worst = max(worst, rel(float(dz_dtau[0]),
                               (z_transform(y, tau + h) - z_transform(y, tau - h)) / (2 * h)))
        worst = max(worst, rel(threshold_grad_b(b),
                               (astra_threshold(b + h) - astra_threshold(b - h)) / (2 * h)))

    z = rng.uniform(0.05, 0.95, 8)
    t = np.array([1, 0, 0, 1, 0, 0, 1, 0], dtype=float)
    bce_g = loss_and_grad(LossKind("bce", False), clamp_unit(z), t)[1]
    gmn_g = loss_and_grad(LossKind("gmn", False), z, t)[1]
    for i in range(8):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        worst = max(worst, rel(bce_g[i],
                               (bce_loss(zp, t) - bce_loss(zm, t)) / (2 * h)))
        worst = max(worst, rel(gmn_g[i],
                               (gmn_loss(zp, t) - gmn_loss(zm, t)) / (2 * h)))

    # end-to-end network gradients, including the slope parameter beta
    X = rng.normal(size=(6, 3))
    y = np.array([1, 0, 0, 1, 0, 0], dtype=float)
    for kind in ALL_KINDS:
        ap = (AstraParams(BETA_INIT) if kind.use_astra
              else AstraParams.frozen())
        model = init_mlp(3, 2, seed=23, astra=ap)
        trace = forward(model, X)
        _, dj_dz = loss_and_grad(kind, trace.z, y)
        dz_dy, dz_dtau = z_transform_backward(trace.y_hat, ap.tau)
        dy_dx, dy_db = astra_backward(trace.out_pre, ap.b)
        dj_dx = dj_dz * dz_dy * dy_dx
        grads = {"w2": trace.hidden_act.T @ dj_dx, "b2": np.sum(dj_dx)}
        dh = np.outer(dj_dx, model.w2) * trace.leak
        grads["w1"] = dh.T @ X
        grads["b1"] = dh.sum(axis=0)

        def loss_at():
            tr = forward(model, X)
            return loss_and_grad(kind, tr.z, y)[0]

        for name, arr in (("w1", model.w1), ("b1", model.b1), ("w2", model.w2)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                old = arr[i]
                arr[i] = old + h
                lp = loss_at()
                arr[i] = old - h
                lm = loss_at()
                arr[i] = old
                worst = max(worst, rel(grads[name][i], (lp - lm) / (2 * h)))
        old = model.b2
        model.b2 = old + h
        lp = loss_at()
        model.b2 = old - h
        lm = loss_at()
        model.b2 = old
        worst = max(worst, rel(grads["b2"], (lp - lm) / (2 * h)))

        if kind.use_astra:
            grad_beta = float(np.sum(dj_dz * (dz_dy * dy_db
                                              + dz_dtau * threshold_grad_b(ap.b))))

            old = ap.beta
            ap.set_beta(old + h)
            lp = loss_at()
            ap.set_beta(old - h)
            lm = loss_at()
            ap.set_beta(old)
            worst = max(worst, rel(grad_beta, (lp - lm) / (2 * h)))

    check(2, f"gradient suite, worst rel err {worst:.2e}", worst < 1e-5)


def test_criterion_3_misorder_band():
    b = 7.396
    x_max = misorder_band_upper(b)
    ok = abs(x_max - 0.4217) < 1e-3

    # independent bisection oracle for the point where the two BCE loss
    # contributions cross (y crosses 0.5)
    lo, hi = 0.0, 5.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if astra_forward(mid, b) < 0.5:
            lo = mid
        else:
            hi = mid
    ok = ok and abs(0.5 * (lo + hi) - x_max) < 1e-10

    xs = np.linspace(-2.0, 2.0, 10000)
    y = astra_forward(xs, b)
    tau = astra_threshold(b)
    z = z_transform(y, tau)
    # raw losses: target-1 contribution exceeds target-0 exactly when y < 0.5
    raw_wrong = (xs > 0) & (-np.log(y) > -np.log1p(-y))
    expected = (xs > 0) & (xs < x_max)
    ok = ok and bool(np.array_equal(raw_wrong, expected))
    z_wrong = (xs > 0) & (-np.log(z) > -np.log1p(-z))
    ok = ok and not np.any(z_wrong)
    ok = ok and bool(np.all((z > 0.5) == (xs > 0)))
    check(3, f"misorder band (0, {x_max:.4f}) and z flip at 0", ok)


def test_criterion_4_gmn_reduction():
    rng = np.random.default_rng(19)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(4, 40))
        y = rng.integers(0, 2, n)
        y[:2] = [0, 1]
        preds = rng.integers(0, 2, n)
        cm = counting_cm(preds, y)
        loss = gmn_loss(preds.astype(float), y)
        ok = ok and abs(loss - (1.0 - g_mean(cm))) < 1e-12
    check(4, "GMN loss reduces to 1 - G-Mean on binary predictions", ok)


# --------------------------------------------------------------------------
# Criteria 5 and 6 share a frozen reference configuration: seeded Gaussian
# problem with IR 1000 (10000 negatives, 10 positives), base seed 7, seeds
# 0..9, 2000 epochs, fold plan seed [7, seed, 202], test fold 0, val fold 1.

REFERENCE_BASE = 7


def _reference_run(seed: int, kind: LossKind):
    ds = gaussian_imbalance(REFERENCE_BASE, seed)
    plan = stratified_folds(ds, 5, seed=[REFERENCE_BASE, seed, 202])
    tr, val, te = fold_split(ds, plan, 0, 1)
    tr, (val, te) = standardize(tr, [val, te])
    cfg = TrainConfig(epochs=2000, loss=kind, seed=[REFERENCE_BASE, seed, 1])
    snapshot, records = train(cfg, tr, val)
    labels = predict_labels(snapshot.model, te.X)
    cm = counting_cm(labels, te.y)
    try:
        gm = g_mean(cm)
    except ValueError:
        gm = 0.0
    return gm, records[-1].train_e_ratio


@pytest.fixture(scope="module")
def reference_runs():
    out = {"bce": [], "gmn": [], "gmn-astra": []}
    for seed in range(10):
        for kind in (LossKind("bce", False), LossKind("gmn", False),
                     LossKind("gmn", True)):
            out[kind.name].append(_reference_run(seed, kind))
    return out


def test_criterion_5_synthetic_imbalance(reference_runs):
    bce = np.median([g for g, _ in reference_runs["bce"]])
    ga = np.median([g for g, _ in reference_runs["gmn-astra"]])
    ok = bce == 0.0 and ga > 0.5
    check(5, f"median test G-Mean: BCE {bce:.3f}, GMN-ASTra {ga:.3f}", ok)


def test_criterion_6_e_ratio_separation(reference_runs):
    wins = sum(1 for (_, eb), (_, eg)
               in zip(reference_runs["bce"], reference_runs["gmn"])
               if eb >= 10.0 * eg)
    check(6, f"e-ratio >= 10x lower for GMN in {wins}/10 paired seeds", wins >= 8)


@pytest.mark.skipif("SKIN588_PATH" not in os.environ,
                    reason="full reproduction needs the real skin dataset; "
                           "set SKIN588_PATH to run it")
def test_criterion_7_full_reproduction(tmp_path):
    from astra.experiment import determine_winners, run_cv
    from astra.cli import _load_dataset

    ds = _load_dataset(os.environ["SKIN588_PATH"])
    cfg = TrainConfig(epochs=10000)
    results = run_cv(ds, cfg, list(ALL_KINDS), repeats=10, k=5,
                     jobs=int(os.environ.get("SKIN588_JOBS", "1")))
    report = determine_winners(results)
    mean_ba = report["stats"]["bce-astra"]["g_mean"]["mean"]
    inseparable = all(p > 0.05 for p in report["p_values"]["g_mean"].values())
    ok = abs(mean_ba - 0.981) <= 0.10 and inseparable
    check(7, f"BCE-ASTra mean G-Mean {mean_ba:.3f}, four-way tie {inseparable}", ok)


@pytest.fixture(scope="module")
def skin_shaped_file(tmp_path_factory):
    """Synthetic dataset with the skin corpus shape: 20000/34, 3 features."""
    rng = np.random.default_rng(31)
    Xn = rng.normal(0.0, 1.0, (20000, 3))
    Xp = rng.normal(2.0, 0.8, (34, 3))
    X = np.vstack([Xn, Xp])
    labels = np.array([1.0] * 20000 + [2.0] * 34)
    path = tmp_path_factory.mktemp("skin") / "skin_shaped.txt"
    write_sparse(path, X, labels)
    return path


def test_criterion_8_protocol_mechanics(tmp_path, skin_shaped_file):
    ok = True
    us = tmp_path / "us"
    rc = cli.main(["undersample", "--dataset", str(skin_shaped_file),
                   "--out", str(us), "--keep-positives", "5", "--seed", "0"])
    info = json.loads((us / "kept_positives.json").read_text())
    ok = ok and rc == 0 and info["m_tot"] == 20005 and info["ir"] == 4000.0
    raw = parse_sparse(us / "undersampled.txt")
    ok = ok and len(raw.labels) == 20005

    rng = np.random.default_rng(32)
    X = np.vstack([rng.normal(0, 1, (120, 3)), rng.normal(2.5, 0.6, (10, 3))])
    small = tmp_path / "small.txt"
    write_sparse(small, X, np.array([1.0] * 120 + [2.0] * 10))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli.main(["cv", "--dataset", str(small), "--out", str(out),
                       "--epochs", "10", "--repeats", "2", "--folds", "5",
                       "--seed", "0"])
        ok = ok and rc == 0
        outs.append(out)
    lines = (outs[0] / "runs.csv").read_text().splitlines()[1:]
    for kind in ALL_KINDS:
        ok = ok and sum(1 for ln in lines
                        if ln.split(",")[0] == kind.name) == 2 * 5
    ok = ok and (outs[0] / "runs.csv").read_bytes() == (outs[1] / "runs.csv").read_bytes()
    ok = ok and (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    check(8, "protocol mechanics (counts, IR 4000, byte-identical rerun)", ok)


def test_criterion_9_significance_engine():
    rng = np.random.default_rng(33)
    ok = True
    for n in range(1, 11):
        for _ in range(30):
            d = np.round(rng.normal(0, 1, n), 1)  # rounding forces ties/zeros
            ok = ok and abs(wilcoxon_signed_rank(d)
                            - enumeration_p_value(d)) < 1e-12
    ok = ok and abs(wilcoxon_signed_rank(np.arange(1.0, 11.0)) - 2 / 1024) < 1e-15
    check(9, "exact Wilcoxon matches sign enumeration for n <= 10", ok)


# Criteria 10-12: the abstract's stated range, IR 588.24 to 4000, in a
# reduced protocol (2 repeats x 5 folds, 300 epochs, eta 0.01, seed 0).  The
# rule was fixed before the first run: no run fails, and gmn-astra's mean
# test G-Mean is at least bce's.  gmn-astra over gmn is not asserted: the
# full 10 x 5 runs at 10,000 epochs do not show it.
def _stated_range(num: int, ds, keep_positives=None) -> None:
    cfg = TrainConfig(epochs=300, eta=0.01, seed=0)
    kinds = [LossKind("bce", False), LossKind("gmn", True)]
    results = run_cv(ds, cfg, kinds, repeats=2, k=5,
                     keep_positives=keep_positives, jobs=2)
    failed = sum(r.error is not None for r in results)
    gm = {kind.name: [r.g_mean for r in results if r.method == kind.name]
          for kind in kinds}
    bce, ga = np.mean(gm["bce"]), np.mean(gm["gmn-astra"])
    ir = (ds.m_tot - ds.m1) / (keep_positives or ds.m1)
    p = compare(gm["gmn-astra"], gm["bce"]) if not failed else float("nan")
    check(num, f"IR {ir:.2f}, n_x {ds.n_x}: mean test G-Mean BCE {bce:.3f}, "
               f"GMN-ASTra {ga:.3f}, p {p:.4f}, {failed} failed",
          failed == 0 and ga >= bce)


def test_criterion_10_stated_range_ir_588(skin_shaped_file):
    _stated_range(10, cli._load_dataset(str(skin_shaped_file)))


def test_criterion_11_stated_range_ir_4000(skin_shaped_file):
    _stated_range(11, cli._load_dataset(str(skin_shaped_file)), keep_positives=5)


def test_criterion_12_stated_range_22_features():
    rng = np.random.default_rng(35)
    X = np.vstack([rng.normal(0.0, 1.0, (20000, 22)),
                   rng.normal(1.0, 1.0, (34, 22))])
    _stated_range(12, Dataset(X=X, y=np.array([0] * 20000 + [1] * 34)))
