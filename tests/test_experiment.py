import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import astra
from astra import cli, experiment
from astra.data import (DataFormatError, Dataset, fold_split, read_records,
                        standardize, stratified_folds, undersample_minority,
                        write_sparse)
from astra.experiment import (
    MIN_PAIRS,
    RunResult,
    _midranks,
    check_protocol,
    compare,
    determine_winners,
    render_table,
    run_cv,
    score,
    split,
    wilcoxon_signed_rank,
    write_run_csv,
)
from astra.losses import ALL_KINDS, LossKind
from astra.metrics import ConfusionMatrix
from astra.network import ROW_BLOCK_BYTES
from astra.trainer import TrainConfig, train


def reference_midranks(values):
    """The rank loop: walk the sorted values, giving each run of equal ones
    the mean of its 1-based positions."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    sv = values[order]
    while i < len(values):
        j = i
        while j + 1 < len(values) and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def enumeration_p_value(diffs):
    """Independent oracle: exhaustive sign enumeration for small n."""
    d = np.asarray(diffs, dtype=float)
    d = d[d != 0]
    n = len(d)
    if n == 0:
        return 1.0
    ranks = reference_midranks(np.abs(d))
    w_obs = ranks[d > 0].sum()
    le = ge = 0
    for signs in itertools.product([0, 1], repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s)
        if w <= w_obs + 1e-9:
            le += 1
        if w >= w_obs - 1e-9:
            ge += 1
    return min(1.0, 2.0 * min(le, ge) / 2 ** n)


def int64_p_value(diffs):
    """The shift-convolution over doubled midranks in int64 counts, which
    fit up to 62 differences; the float64 probabilities must give its p
    bit for bit up to 50 differences."""
    d = np.asarray(diffs, dtype=float)
    d = d[d != 0.0]
    n = len(d)
    if n == 0:
        return 1.0
    ranks = _midranks(np.abs(d))
    r2 = np.rint(2 * ranks).astype(np.int64)
    counts = np.zeros(r2.sum() + 1, dtype=np.int64)
    counts[0] = 1
    for r in r2:
        counts[r:] = counts[r:] + counts[:len(counts) - r]
    w2 = int(round(2 * float(np.sum(ranks[d > 0]))))
    p_le = int(counts[: w2 + 1].sum())
    p_ge = int(counts[w2:].sum())
    return min(1.0, 2.0 * min(p_le, p_ge) / 2 ** n)


def polynomial_p_value(diffs):
    """Exact oracle at any n: the coefficients of prod_i (1 + x^(2 r_i)) over
    the midranks r_i count the sign assignments by 2*W+, as Python ints."""
    d = np.asarray(diffs, dtype=float)
    d = d[d != 0]
    ranks = reference_midranks(np.abs(d))
    r2 = [int(2 * r) for r in ranks]
    coeffs = [1] + [0] * sum(r2)
    for r in r2:
        coeffs = [c + (coeffs[k - r] if k >= r else 0)
                  for k, c in enumerate(coeffs)]
    w2 = int(2 * ranks[d > 0].sum())
    tail = min(sum(coeffs[:w2 + 1]), sum(coeffs[w2:]))
    return min(1.0, float(Fraction(2 * tail, 2 ** len(d))))


class TestWilcoxon:
    def test_identical_vectors(self):
        assert compare([1.0] * 6, [1.0] * 6) == 1.0

    def test_strict_domination_n10(self):
        diffs = np.arange(1, 11, dtype=float)
        assert wilcoxon_signed_rank(diffs) == pytest.approx(2 / 1024)

    def test_matches_enumeration_random(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(1, 11))
            d = np.round(rng.normal(0, 1, n), 2)
            assert wilcoxon_signed_rank(d) == pytest.approx(
                enumeration_p_value(d), abs=1e-12), d

    def test_matches_enumeration_with_ties_and_zeros(self):
        cases = [
            [1.0, 1.0, -1.0, 2.0, 2.0],
            [0.0, 0.0, 1.0, -1.0, 3.0],
            [0.5, 0.5, 0.5, -0.5],
            [2.0, -2.0],
        ]
        for d in cases:
            assert wilcoxon_signed_rank(d) == pytest.approx(
                enumeration_p_value(d), abs=1e-12)

    def test_textbook_case(self):
        # Classic signed-rank example: n=8 distinct differences, all positive
        # except two small negatives; exact two-sided p from enumeration.
        d = [8.0, 7.0, 6.0, 5.0, 4.0, 3.0, -2.0, -1.0]
        assert wilcoxon_signed_rank(d) == pytest.approx(enumeration_p_value(d))

    def test_sixty_pairs_match_the_polynomial(self):
        rng = np.random.default_rng(9)
        d = rng.normal(0.5, 1.0, 60)
        p = wilcoxon_signed_rank(d)
        assert p == pytest.approx(polynomial_p_value(d), rel=1e-12, abs=0)
        # The normal approximation stays near the exact p here.
        stats = pytest.importorskip("scipy.stats")
        assert p == pytest.approx(stats.wilcoxon(
            d, correction=True, method="approx").pvalue, abs=0.01)

    @pytest.mark.parametrize("n", range(5, 51))
    def test_exact_matches_scipy(self, n):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng([n, 51])
        for share_negative in (0.0, 0.1, 0.3, 0.5, 0.8):
            # Distinct non-zero magnitudes: no ties, no zeros.
            d = (rng.permutation(n) + 1.25) * np.where(
                rng.random(n) < share_negative, -1.0, 1.0)
            assert wilcoxon_signed_rank(d) == pytest.approx(
                stats.wilcoxon(d, method="exact").pvalue, rel=1e-12, abs=0)

    def test_fifty_pairs_take_the_exact_path(self):
        # The normal approximation gives about 7.8e-10.
        assert wilcoxon_signed_rank(np.arange(1.0, 51.0)) == 2.0 / 2 ** 50

    @pytest.mark.parametrize("n_neg", [0, 20, 30])
    def test_all_tied_magnitudes_match_scipy(self, n_neg):
        # 60 equal |d|: W+ is 30.5 times a Binomial(60, 1/2) count, so p is
        # the exact binomial test's, and a 30/30 split gives p = 1.
        stats = pytest.importorskip("scipy.stats")
        d = np.array([-1.0] * n_neg + [1.0] * (60 - n_neg))
        p = wilcoxon_signed_rank(d)
        assert p == pytest.approx(stats.binomtest(60 - n_neg, 60).pvalue,
                                  rel=1e-12, abs=0)
        assert (p == 1.0) == (n_neg == 30)

    def test_fifty_one_pairs_are_exact(self):
        assert wilcoxon_signed_rank(np.arange(1.0, 52.0)) == 2 / 2 ** 51

    def test_tie_heavy_eighty_pairs_match_the_polynomial(self):
        rng = np.random.default_rng(14)
        # 80 differences over 6 magnitudes: every rank is shared.
        d = rng.choice([0.25, 0.5, 1.0, 2.0, 3.0, 4.0], 80) * np.where(
            rng.random(80) < 0.35, -1.0, 1.0)
        assert wilcoxon_signed_rank(d) == pytest.approx(
            polynomial_p_value(d), rel=1e-12, abs=0)

    def test_up_to_fifty_pairs_match_the_int64_counts_bit_for_bit(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        # Small integers tie and give zeros; bounded floats are distinct.
        values = st.one_of(st.integers(-4, 4).map(float),
                           st.floats(-10.0, 10.0, allow_subnormal=False))

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(st.lists(values, min_size=1, max_size=50))
        def check(d):
            assert wilcoxon_signed_rank(d) == int64_p_value(d), d

        check()

    def test_report_over_fifty_five_pairs(self, tmp_path):
        # 11 repeats x 5 folds: more pairs than the paper's protocol, with
        # the few distinct G-Mean values of an extreme imbalance.
        rng = np.random.default_rng(28)
        scores = {m: (rng.choice([0.0, 0.5, 0.7, 1.0], 55), rng.normal(0, 0.2, 55))
                  for m in ("bce", "gmn")}
        runs = tmp_path / "runs.csv"
        write_run_csv([RunResult(m, i // 5, i % 5, g_mean=float(g[i]),
                                 mcc=float(c[i]))
                       for m, (g, c) in scores.items() for i in range(55)], runs)
        assert cli.main(["report", "--runs", str(runs), "--out",
                         str(tmp_path / "rep")]) == 0
        p_values = json.loads((tmp_path / "rep" / "report.json").read_text())[
            "p_values"]
        for i, metric in enumerate(("g_mean", "mcc")):
            want = polynomial_p_value(scores["bce"][i] - scores["gmn"][i])
            assert p_values[metric]["bce|gmn"] == pytest.approx(
                want, rel=1e-12, abs=0), metric

    def test_midranks_match_the_loop_on_ties(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        # A handful of magnitudes forces ties at every length.
        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(st.lists(st.sampled_from([0.1, 0.5, 1.0, 3.0, 7.5]),
                                   min_size=1, max_size=80))
        def check(values):
            values = np.array(values)
            assert _midranks(values).tobytes() == \
                reference_midranks(values).tobytes()

        check()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compare([1, 2, 3, 4, 5], [1, 2, 3])

    @pytest.mark.parametrize("a, b, message", [
        # Unchecked, the NaN difference ranks as the largest negative one.
        ([math.nan, 1, 2, 3, 4, 5], [0] * 6, r"a holds \[nan\]"),
        # Unchecked, inf - inf warns before any test.
        ([math.inf] * 6, [math.inf] * 6, r"a holds \[inf, inf"),
        ([0] * 6, [1, 2, -math.inf, 3, 4, 5], r"b holds \[-inf\]"),
    ], ids=["nan", "inf-minus-inf", "negative-inf"])
    def test_non_finite_scores_rejected(self, a, b, message):
        with pytest.raises(ValueError, match="scores must be finite: " + message):
            compare(a, b)


class TestAggregate:
    def _results(self, values, method="bce"):
        return [RunResult(repeat=0, fold=i, method=method,
                          tn=1, fp=0, fn=0, tp=1, g_mean=v, mcc=v,
                          best_epoch=0, final_b=1.0)
                for i, v in enumerate(values)]

    def test_mean_and_sample_sd(self):
        stats = determine_winners(self._results([1.0, 1.0, 0.0, 0.0]))["stats"]
        assert stats["bce"]["g_mean"]["mean"] == pytest.approx(0.5)
        assert stats["bce"]["g_mean"]["sd"] == pytest.approx(0.5773502691896257)

    def test_equal_values_zero_sd(self):
        stats = determine_winners(self._results([0.7, 0.7, 0.7]))["stats"]
        assert stats["bce"]["g_mean"]["sd"] == pytest.approx(0.0, abs=1e-12)

    def test_empty_error(self):
        with pytest.raises(ValueError):
            determine_winners([])


class TestDetermineWinners:
    def _paired_results(self, per_method):
        results = []
        for method, values in per_method.items():
            for i, v in enumerate(values):
                results.append(RunResult(
                    repeat=i // 5, fold=i % 5, method=method,
                    tn=1, fp=0, fn=0, tp=1, g_mean=v, mcc=v,
                    best_epoch=0, final_b=1.0))
        return results

    def test_sole_winner(self):
        rng = np.random.default_rng(10)
        n = 30
        base = rng.uniform(0.3, 0.5, n)
        results = self._paired_results({
            "good": base + 0.4, "bad": base, "worse": base - 0.1})
        report = determine_winners(results)
        assert report["winners"]["g_mean"]["good"] == "winner"
        assert report["winners"]["g_mean"]["bad"] == ""

    def test_all_inseparable(self):
        rng = np.random.default_rng(11)
        n = 20
        base = rng.uniform(0.4, 0.6, n)
        # Sign-balanced offsets: every pairwise difference vector has equal
        # numbers of equal-magnitude positives and negatives, so no pair is
        # separable.
        e = 0.001 * np.tile([1.0, -1.0], n // 2)
        f = 0.001 * np.tile([1.0, 1.0, -1.0, -1.0], n // 4)
        noise = {"a": base + e, "b": base - e, "c": base + f, "d": base - f}
        report = determine_winners(self._paired_results(noise))
        flags = set(report["winners"]["g_mean"].values())
        assert flags == {"tie"}

    def test_two_way_tie_above_laggards(self):
        rng = np.random.default_rng(12)
        n = 30
        base = rng.uniform(0.3, 0.5, n)
        results = self._paired_results({
            "a": base + 0.40 + rng.normal(0, 0.001, n),
            "b": base + 0.40 + rng.normal(0, 0.001, n),
            "c": base,
            "d": base - 0.05,
        })
        report = determine_winners(results)
        flags = report["winners"]["g_mean"]
        assert flags["a"] == "tie" and flags["b"] == "tie"
        assert flags["c"] == "" and flags["d"] == ""

    def test_order_invariance(self):
        rng = np.random.default_rng(13)
        n = 25
        per = {m: rng.uniform(0, 1, n) for m in ("w", "x", "y", "z")}
        results = self._paired_results(per)
        r1 = determine_winners(results)
        r2 = determine_winners(self._paired_results(dict(reversed(per.items()))))
        r3 = determine_winners([results[i] for i in rng.permutation(len(results))])
        assert r1 == r2 == r3

    def test_too_few_clean_pairs_gives_null_p(self):
        per = {"a": [0.9] * 6, "b": [0.1] * 6}
        results = self._paired_results(per)
        failed = {(0, f) for f in range(6 - MIN_PAIRS + 1)}
        results = [replace(r, g_mean=None, mcc=None, error="x")
                   if r.method == "a" and (r.repeat, r.fold) in failed else r
                   for r in results]
        report = determine_winners(results)
        assert report["p_values"] == {"g_mean": {"a|b": None},
                                      "mcc": {"a|b": None}}
        assert report["winners"] == {m: {"a": "", "b": ""}
                                     for m in ("g_mean", "mcc")}
        assert report["stats"]["a"]["g_mean"] == {"mean": 0.9, "sd": 0.0}

    def test_every_key_failed(self):
        results = [RunResult(m, 0, f, error="x") for m in "ab" for f in range(5)]
        report = determine_winners(results)
        assert report["stats"]["a"]["mcc"] == {"mean": None, "sd": None}
        assert "n/a" in render_table(report)

    def test_legend_states_the_threshold(self, monkeypatch):
        results = [RunResult(m, 0, f, error="x") for m in "ab" for f in range(5)]
        report = determine_winners(results)
        assert render_table(report).count("at p <= 0.05)") == 2
        monkeypatch.setattr(experiment, "P_THRESHOLD", 0.01)
        table = render_table(report)
        assert table.count("at p <= 0.01)") == 2 and "0.05" not in table


@pytest.fixture(scope="module")
def small_cv_results():
    rng = np.random.default_rng(20)
    Xn = rng.normal(0, 1, (200, 2))
    Xp = rng.normal(3, 0.5, (10, 2))
    ds = Dataset(X=np.vstack([Xn, Xp]), y=np.array([0] * 200 + [1] * 10))
    cfg = TrainConfig(epochs=60, seed=3)
    methods = [LossKind("bce", False), LossKind("gmn", True)]
    return ds, cfg, methods, run_cv(ds, cfg, methods, repeats=2, k=5)


class TestRunCv:
    def test_counts(self, small_cv_results):
        _, _, methods, results = small_cv_results
        for kind in methods:
            assert sum(1 for r in results if r.method == kind.name) == 10

    def test_pairing_integrity(self, small_cv_results):
        _, _, methods, results = small_cv_results
        keys = {m: sorted((r.repeat, r.fold) for r in results if r.method == m)
                for m in (k.name for k in methods)}
        vals = list(keys.values())
        assert all(v == vals[0] for v in vals)

    def test_deterministic(self, small_cv_results):
        ds, cfg, methods, results = small_cv_results
        again = run_cv(ds, cfg, methods, repeats=2, k=5)
        assert again == results

    def test_metrics_match_stored_cm(self, small_cv_results):
        from astra.metrics import g_mean as gm, mcc as mc
        _, _, _, results = small_cv_results
        for r in results:
            cm = ConfusionMatrix(r.tn, r.fp, r.fn, r.tp)
            if cm.tp + cm.fn > 0 and cm.tn + cm.fp > 0:
                assert r.g_mean == pytest.approx(gm(cm), abs=1e-12)
            assert r.mcc == pytest.approx(mc(cm), abs=1e-12)

    def test_split_is_one_rotation_of_the_repeat_plan(self):
        # Repeat r's plan is seeded [seed, r, 202]; fold f tests fold f and
        # validates on the next one, wrapping round at the last.
        rng = np.random.default_rng(22)
        ds = Dataset(X=rng.normal(size=(90, 3)), y=np.array([0] * 80 + [1] * 10))
        plan = stratified_folds(ds, 5, seed=[4, 1, 202])
        for fold in range(5):
            tr, va, te = fold_split(ds, plan, fold, (fold + 1) % 5)
            tr, (va, te) = standardize(tr, [va, te])
            for got, want in zip(split(ds, 5, 4, 1, fold), (tr, va, te)):
                assert got.X.tobytes() == want.X.tobytes()
                assert np.array_equal(got.y, want.y)

    def test_split_is_feature_major(self):
        # The trainer's forward takes np.asfortranarray(train.X), which is
        # then train.X itself.
        rng = np.random.default_rng(23)
        ds = Dataset(X=rng.normal(size=(90, 3)), y=np.array([0] * 80 + [1] * 10))
        assert not ds.X.flags.f_contiguous
        for fold in range(5):
            sets = split(ds, 5, 4, 1, fold)
            assert all(s.X.flags.f_contiguous for s in sets)
            assert np.asfortranarray(sets[0].X) is sets[0].X

    def test_undersampling_before_folding(self):
        rng = np.random.default_rng(21)
        ds = Dataset(X=rng.normal(size=(120, 2)),
                     y=np.array([0] * 100 + [1] * 20))
        cfg = TrainConfig(epochs=5)
        results = run_cv(ds, cfg, [LossKind("bce", False)], repeats=1, k=5,
                         keep_positives=5)
        # 5 retained positives over 5 folds: one test positive per fold
        for r in results:
            assert r.tp + r.fn == 1

    @pytest.mark.parametrize("m1, keep", [(3, None), (20, 3), (20, 4)])
    def test_rejects_folds_without_positives(self, m1, keep):
        # Fewer positives than folds would leave a validation fold without
        # one, and those runs would fail and score 0.
        rng = np.random.default_rng(22)
        ds = Dataset(X=rng.normal(size=(100 + m1, 2)),
                     y=np.array([0] * 100 + [1] * m1))
        with pytest.raises(ValueError, match="5 folds need at least 5 positives"):
            run_cv(ds, TrainConfig(epochs=1), [LossKind("bce", False)],
                   repeats=1, k=5, keep_positives=keep)

    def test_rejects_keeping_more_positives_than_exist(self):
        # Checked with the protocol, before a rotation's undersample.
        rng = np.random.default_rng(22)
        ds = Dataset(X=rng.normal(size=(110, 2)), y=np.array([0] * 100 + [1] * 10))
        with pytest.raises(ValueError, match=r"keep must be in \[1, 10\], got 50"):
            check_protocol(ds, 5, 50, 1, 1)
        check_protocol(ds, 5, 10, 1, 1)

    @pytest.mark.parametrize("repeats, k, methods, match", [
        (0, 5, [LossKind("bce", False)], "at least 1 repeat"),
        (1, 4, list(ALL_KINDS), "paired tests need repeats \\* folds >= 5"),
    ])
    def test_rejects_protocol_without_report(self, repeats, k, methods, match):
        # Both would train every run and then fail to aggregate or compare.
        rng = np.random.default_rng(23)
        ds = Dataset(X=rng.normal(size=(110, 2)), y=np.array([0] * 100 + [1] * 10))
        with pytest.raises(ValueError, match=match):
            run_cv(ds, TrainConfig(epochs=1), methods, repeats=repeats, k=k)

    def test_every_accepted_protocol_gives_trainable_rotations(self):
        # Up to 8 positives and 8 folds, keep from none to more than exist:
        # every rotation of a protocol check_protocol accepts has a train
        # set of both classes, a validation and a test positive, and test
        # and validation folds apart.  The fold helpers rely on this.
        rotations = 0
        for m1 in range(1, 9):
            for m0 in range(m1, m1 + 6):
                ds = Dataset(X=np.arange(m0 + m1, dtype=float)[:, None],
                             y=np.repeat([0, 1], [m0, m1]))
                for k, keep in itertools.product(range(1, 9), [None, *range(m1 + 2)]):
                    try:
                        check_protocol(ds, k, keep, 1, 1)
                    except ValueError:
                        continue
                    for seed in (0, 1):
                        reduced = (ds if keep is None
                                   else experiment.undersample(ds, keep, seed, 0)[0])
                        for fold in range(k):
                            tr, va, te = split(reduced, k, seed, 0, fold)
                            assert tr.m1 >= 1 and tr.m0 >= 1
                            assert va.m1 >= 1 and te.m1 >= 1
                            assert tr.m_tot + va.m_tot + te.m_tot == reduced.m_tot
                            rotations += 1
        assert rotations == 4032

    def test_single_method_needs_no_pairs(self):
        rng = np.random.default_rng(23)
        ds = Dataset(X=rng.normal(size=(110, 2)), y=np.array([0] * 100 + [1] * 10))
        results = run_cv(ds, TrainConfig(epochs=1), [LossKind("bce", False)],
                         repeats=1, k=4)
        assert len(results) == 4

    def test_jobs_parallel_identical(self, small_cv_results):
        ds, cfg, methods, results = small_cv_results
        parallel = run_cv(ds, cfg, methods, repeats=2, k=5, jobs=2)
        assert parallel == results

    def test_run_health_recorded(self, small_cv_results):
        _, _, _, results = small_cv_results
        for r in results:
            assert r.error is None and r.diverged is False
            assert 0.0 <= r.val_fnr_apx <= 1.0
            if r.method == "bce":    # frozen slope: b = 1, tau = 1/2
                assert (r.final_b, r.final_tau) == (1.0, 0.5)
            else:
                assert 0.0 < r.final_tau < 0.5

    def test_diverged_run_is_scored(self, small_cv_results, monkeypatch):
        ds, cfg, methods, results = small_cv_results
        real_train = experiment.train

        def train_diverging(cfg, train_ds, val_ds):
            snapshot, records = real_train(cfg, train_ds, val_ds)
            snapshot.diverged = True
            return snapshot, records

        monkeypatch.setattr(experiment, "train", train_diverging)
        again = run_cv(ds, cfg, methods, repeats=2, k=5)
        assert again == [replace(r, diverged=True) for r in results]
        assert determine_winners(again) == determine_winners(results)


class TestRotationTask:
    """run_cv's unit of work is one (repeat, fold) rotation: the pool gets
    its key, and the worker splits once and trains every method on it."""

    def test_pool_gets_only_keys(self, small_cv_results, monkeypatch):
        ds, cfg, methods, results = small_cv_results
        sent = []

        class InlinePool:
            def __init__(self, max_workers, initializer, initargs):
                sent.append(initargs)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, keys, chunksize=1):
                sent.append((fn, list(keys)))
                return map(fn, sent[-1][1])

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(experiment._rotate, "args", None, raising=False)
        assert run_cv(ds, cfg, methods, repeats=2, k=5, jobs=2) == results
        [initargs, (fn, keys)] = sent
        assert keys == list(itertools.product(range(2), range(5)))
        assert fn is experiment._rotate
        assert initargs == ((ds, cfg, methods, 5, None),)

    @pytest.mark.parametrize("jobs, workers", [(2, 2), (10, 10), (64, 10)])
    def test_pool_starts_at_most_one_worker_per_rotation(self, monkeypatch,
                                                         jobs, workers):
        # A stand-in records the pool's size and runs nothing, so no
        # process starts.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, keys, chunksize=1):
                return [[] for _ in keys]

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
        ds = Dataset(X=np.zeros((30, 2)), y=np.array([0] * 20 + [1] * 10))
        assert run_cv(ds, TrainConfig(epochs=1), [LossKind("bce", False)],
                      repeats=2, k=5, jobs=jobs) == []
        assert sizes == [workers]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_fewer_than_one_job_rejected(self, monkeypatch, jobs):
        monkeypatch.setattr(experiment, "ProcessPoolExecutor", None)
        monkeypatch.setattr(experiment, "train", None)
        ds = Dataset(X=np.zeros((30, 2)), y=np.array([0] * 20 + [1] * 10))
        with pytest.raises(ValueError, match=f"need at least 1 job, got {jobs}"):
            run_cv(ds, TrainConfig(epochs=1), [LossKind("bce", False)],
                   repeats=2, k=5, jobs=jobs)

    def test_each_split_is_followed_by_its_trains(self, small_cv_results,
                                                  monkeypatch):
        ds, cfg, methods, results = small_cv_results
        calls = []
        real_split, real_train = experiment.split, experiment.train

        def logged_split(ds, k, seed, repeat, fold):
            calls.append(("split", seed, repeat, fold))
            return real_split(ds, k, seed, repeat, fold)

        def logged_train(cfg, train_ds, val_ds):
            calls.append(("train", cfg.loss.name, cfg.seed))
            return real_train(cfg, train_ds, val_ds)

        monkeypatch.setattr(experiment, "split", logged_split)
        monkeypatch.setattr(experiment, "train", logged_train)
        assert run_cv(ds, cfg, methods, repeats=2, k=5) == results
        assert calls == [
            call for repeat, fold in itertools.product(range(2), range(5))
            for call in [("split", 3, repeat, fold)]
            + [("train", kind.name, [3, repeat, fold]) for kind in methods]]

    def test_keep_positives_matches_reference(self):
        # The reference undersamples once per repeat, then splits, trains
        # and scores each rotation.
        rng = np.random.default_rng(24)
        ds = Dataset(X=np.vstack([rng.normal(0, 1, (150, 2)),
                                  rng.normal(2, 0.7, (20, 2))]),
                     y=np.array([0] * 150 + [1] * 20))
        cfg = TrainConfig(epochs=20, seed=5)
        methods = [LossKind("bce", False), LossKind("gmn", True)]
        want = []
        for repeat in range(2):
            ds_r, _ = undersample_minority(ds, 6, seed=[5, repeat, 101])
            for fold in range(5):
                train_ds, val_ds, test_ds = split(ds_r, 5, 5, repeat, fold)
                for kind in methods:
                    cfg_run = replace(cfg, loss=kind, seed=[5, repeat, fold])
                    snapshot, _ = train(cfg_run, train_ds, val_ds)
                    want.append(score(snapshot, test_ds, kind.name, repeat, fold))
        want.sort(key=lambda r: (r.method, r.repeat, r.fold))
        got = run_cv(ds, cfg, methods, repeats=2, k=5, keep_positives=6)
        assert got == want
        # Each repeat's five test folds hold its 6 kept positives, and the
        # two repeats keep different ones.
        for method, repeat in itertools.product(("bce", "gmn-astra"), range(2)):
            assert sum(r.tp + r.fn for r in got
                       if (r.method, r.repeat) == (method, repeat)) == 6
        kept = [undersample_minority(ds, 6, seed=[5, r, 101])[1] for r in range(2)]
        assert not np.array_equal(*kept)

    def test_jobs_identical_over_row_blocks(self, tmp_path):
        # 22 features: each train fold spans two row blocks of the weight
        # gradient, which the other jobs tests' 3-feature sets never reach.
        rng = np.random.default_rng(31)
        X = np.vstack([rng.normal(0, 1, (3940, 22)), rng.normal(1, 1, (60, 22))])
        y = np.array([0.0] * 3940 + [1.0] * 60)
        dataset = tmp_path / "wide.txt"
        write_sparse(dataset, X, y)
        train_ds = split(Dataset(X=X, y=y.astype(int)), 5, 7, 0, 0)[0]
        assert len(train_ds.X) > ROW_BLOCK_BYTES // (8 * 22)
        args = ["cv", "--dataset", str(dataset), "--epochs", "3",
                "--repeats", "1", "--seed", "7"]
        for jobs in ("1", "2"):
            assert cli.main(args + ["--out", str(tmp_path / jobs), "--jobs", jobs]) == 0
        for name in ("runs.csv", "report.json"):
            assert ((tmp_path / "1" / name).read_bytes()
                    == (tmp_path / "2" / name).read_bytes()), name

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_pool_under_start_method_matches_one_job(self, tmp_path, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        rng = np.random.default_rng(25)
        dataset = tmp_path / "data.txt"
        write_sparse(dataset, np.vstack([rng.normal(0, 1, (120, 3)),
                                         rng.normal(2.5, 0.6, (10, 3))]),
                     np.array([0.0] * 120 + [1.0] * 10))
        args = ["cv", "--dataset", str(dataset), "--epochs", "5",
                "--repeats", "2", "--seed", "7"]
        assert cli.main(args + ["--out", str(tmp_path / "one"), "--jobs", "1"]) == 0
        script = ("import multiprocessing, sys\n"
                  "from astra import cli\n"
                  "if __name__ == '__main__':\n"
                  f"    multiprocessing.set_start_method({method!r})\n"
                  "    sys.exit(cli.main(sys.argv[1:]))\n")
        src = str(Path(astra.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", script, *args, "--out",
                        str(tmp_path / "two"), "--jobs", "2"],
                       env=env, check=True, timeout=300)
        for name in ("runs.csv", "report.json", "table.txt"):
            assert ((tmp_path / "one" / name).read_bytes()
                    == (tmp_path / "two" / name).read_bytes()), name


class TestFailedRuns:
    ERROR = 'injected, "quoted"\nsecond line'

    def test_failed_key_dropped_from_every_method(self, small_cv_results,
                                                  monkeypatch, tmp_path):
        ds, cfg, methods, results = small_cv_results
        real_train = experiment.train

        def train_failing_once(cfg, train_ds, val_ds):
            if cfg.seed == [3, 1, 2] and cfg.loss.name == "gmn-astra":
                raise RuntimeError(self.ERROR)
            return real_train(cfg, train_ds, val_ds)

        monkeypatch.setattr(experiment, "train", train_failing_once)
        failed = run_cv(ds, cfg, methods, repeats=2, k=5)
        bad = [r for r in failed if r.error is not None]
        assert bad == [RunResult("gmn-astra", 1, 2,
                                 error="RuntimeError: " + self.ERROR)]
        assert [r for r in failed if r.error is None] == \
            [r for r in results if (r.method, r.repeat, r.fold) != ("gmn-astra", 1, 2)]
        kept = [r for r in results if (r.repeat, r.fold) != (1, 2)]
        assert determine_winners(failed) == determine_winners(kept)

        path = tmp_path / "runs.csv"
        write_run_csv(failed, path)
        assert read_records(RunResult, path) == failed
        line = path.read_text().split("\ngmn-astra,1,2,")[1]
        assert line.startswith("," * 11 + '"RuntimeError: ')   # 11 empty cells

    @pytest.mark.parametrize("edit, match", [
        (lambda rs: rs + rs[:1],
         r"bce has two runs of \(repeat, fold\) \(0, 0\)"),
        (lambda rs: [replace(r, repeat=9) if r.method == "gmn-astra"
                     and r.repeat == 0 else r for r in rs],
         r"bce lacks \(repeat, fold\) \(9, 0\)"),
        (lambda rs: rs[1:], r"bce lacks \(repeat, fold\) \(0, 0\)"),
    ], ids=["duplicate", "relabelled", "missing"])
    def test_methods_paired_by_key(self, small_cv_results, edit, match):
        _, _, _, results = small_cv_results
        with pytest.raises(ValueError, match=match):
            determine_winners(edit(results))


class TestRunCsv:
    def test_roundtrip(self, tmp_path, small_cv_results):
        _, _, _, results = small_cv_results
        path = tmp_path / "runs.csv"
        write_run_csv(results, path)
        assert read_records(RunResult, path) == results

    def test_scoreless_run_without_error_rejected(self, tmp_path):
        path = tmp_path / "runs.csv"
        write_run_csv([RunResult("bce", 0, 0, error="x")], path)
        path.write_text(path.read_text().replace(",x\n", ",\n"))
        with pytest.raises(DataFormatError, match="line 2: a run without an error"):
            read_records(RunResult, path)

    def test_report_render(self, small_cv_results):
        _, _, _, results = small_cv_results
        report = determine_winners(results)
        table = render_table(report)
        assert "G-Mean" in table and "MCC" in table
        assert set(report["stats"]) == set(report["methods"])
