import itertools

import numpy as np
import pytest

from astra.data import Dataset
from astra.experiment import (
    CvReport,
    RunResult,
    aggregate,
    compare,
    determine_winners,
    read_run_csv,
    render_table,
    report_to_dict,
    run_cv,
    wilcoxon_signed_rank,
    write_run_csv,
)
from astra.losses import ALL_KINDS, LossKind
from astra.metrics import CountCM
from astra.trainer import TrainConfig


def enumeration_p_value(diffs):
    """Independent oracle: exhaustive sign enumeration for small n."""
    d = np.asarray(diffs, dtype=float)
    d = d[d != 0]
    n = len(d)
    if n == 0:
        return 1.0
    absd = np.abs(d)
    order = np.argsort(absd, kind="stable")
    ranks = np.empty(n)
    i = 0
    sv = absd[order]
    while i < n:
        j = i
        while j + 1 < n and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    w_obs = ranks[d > 0].sum()
    le = ge = 0
    for signs in itertools.product([0, 1], repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s)
        if w <= w_obs + 1e-9:
            le += 1
        if w >= w_obs - 1e-9:
            ge += 1
    return min(1.0, 2.0 * min(le, ge) / 2 ** n)


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

    def test_normal_approximation_reasonable(self):
        rng = np.random.default_rng(9)
        d = rng.normal(0.5, 1.0, 60)
        p_exact_style = wilcoxon_signed_rank(d, exact_limit=100)
        p_normal = wilcoxon_signed_rank(d, exact_limit=25)
        assert p_normal == pytest.approx(p_exact_style, abs=0.01)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compare([1, 2, 3, 4, 5], [1, 2, 3])


class TestAggregate:
    def _results(self, values, method="bce"):
        return [RunResult(repeat=0, fold=i, method=method,
                          test_cm=CountCM(1, 0, 0, 1), g_mean=v, mcc=v,
                          best_epoch=0, final_b=1.0)
                for i, v in enumerate(values)]

    def test_mean_and_sample_sd(self):
        stats = aggregate(self._results([1.0, 1.0, 0.0, 0.0]))
        assert stats["bce"].mean_g_mean == pytest.approx(0.5)
        assert stats["bce"].sd_g_mean == pytest.approx(0.5773502691896257)

    def test_equal_values_zero_sd(self):
        stats = aggregate(self._results([0.7, 0.7, 0.7]))
        assert stats["bce"].sd_g_mean == pytest.approx(0.0, abs=1e-12)

    def test_empty_error(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestDetermineWinners:
    def _paired_results(self, per_method):
        results = []
        for method, values in per_method.items():
            for i, v in enumerate(values):
                results.append(RunResult(
                    repeat=i // 5, fold=i % 5, method=method,
                    test_cm=CountCM(1, 0, 0, 1), g_mean=v, mcc=v,
                    best_epoch=0, final_b=1.0))
        return results

    def test_sole_winner(self):
        rng = np.random.default_rng(10)
        n = 30
        base = rng.uniform(0.3, 0.5, n)
        results = self._paired_results({
            "good": base + 0.4, "bad": base, "worse": base - 0.1})
        report = determine_winners(results)
        assert report.winners["g_mean"]["good"] == "winner"
        assert report.winners["g_mean"]["bad"] == ""

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
        flags = set(report.winners["g_mean"].values())
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
        flags = report.winners["g_mean"]
        assert flags["a"] == "tie" and flags["b"] == "tie"
        assert flags["c"] == "" and flags["d"] == ""

    def test_order_invariance(self):
        rng = np.random.default_rng(13)
        n = 25
        per = {m: rng.uniform(0, 1, n) for m in ("w", "x", "y", "z")}
        r1 = determine_winners(self._paired_results(per))
        r2 = determine_winners(self._paired_results(dict(reversed(per.items()))))
        assert r1.winners == r2.winners


@pytest.fixture(scope="module")
def small_cv_results():
    rng = np.random.default_rng(20)
    Xn = rng.normal(0, 1, (200, 2))
    Xp = rng.normal(3, 0.5, (10, 2))
    ds = Dataset(X=np.vstack([Xn, Xp]), y=np.array([0] * 200 + [1] * 10))
    cfg = TrainConfig(epochs=60)
    methods = [LossKind("bce", False), LossKind("gmn", True)]
    return ds, cfg, methods, run_cv(ds, cfg, methods, repeats=2, k=5, base_seed=3)


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
        again = run_cv(ds, cfg, methods, repeats=2, k=5, base_seed=3)
        assert again == results

    def test_metrics_match_stored_cm(self, small_cv_results):
        from astra.metrics import g_mean as gm, mcc as mc
        _, _, _, results = small_cv_results
        for r in results:
            if r.test_cm.tp + r.test_cm.fn > 0 and r.test_cm.tn + r.test_cm.fp > 0:
                assert r.g_mean == pytest.approx(gm(r.test_cm), abs=1e-12)
            assert r.mcc == pytest.approx(mc(r.test_cm), abs=1e-12)

    def test_undersampling_before_folding(self):
        rng = np.random.default_rng(21)
        ds = Dataset(X=rng.normal(size=(120, 2)),
                     y=np.array([0] * 100 + [1] * 20))
        cfg = TrainConfig(epochs=5)
        results = run_cv(ds, cfg, [LossKind("bce", False)], repeats=1, k=5,
                         base_seed=0, keep_positives=5)
        # 5 retained positives over 5 folds: one test positive per fold
        for r in results:
            assert r.test_cm.tp + r.test_cm.fn == 1

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

    def test_single_method_needs_no_pairs(self):
        rng = np.random.default_rng(23)
        ds = Dataset(X=rng.normal(size=(110, 2)), y=np.array([0] * 100 + [1] * 10))
        results = run_cv(ds, TrainConfig(epochs=1), [LossKind("bce", False)],
                         repeats=1, k=4)
        assert len(results) == 4

    def test_jobs_parallel_identical(self, small_cv_results):
        ds, cfg, methods, results = small_cv_results
        parallel = run_cv(ds, cfg, methods, repeats=2, k=5, base_seed=3, jobs=2)
        assert parallel == results


class TestRunCsv:
    def test_roundtrip(self, tmp_path, small_cv_results):
        _, _, _, results = small_cv_results
        path = tmp_path / "runs.csv"
        write_run_csv(results, path)
        back = read_run_csv(path)
        stripped = [RunResult(**{**vars(r), "error": None}) for r in results]
        assert back == stripped

    def test_report_render(self, small_cv_results):
        _, _, _, results = small_cv_results
        report = determine_winners(results)
        table = render_table(report)
        assert "G-Mean" in table and "MCC" in table
        payload = report_to_dict(report)
        assert set(payload["stats"]) == set(report.methods)
