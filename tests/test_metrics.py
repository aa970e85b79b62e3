import math

import numpy as np
import pytest

from astra.activation import EPS
from astra.metrics import (
    ConfusionMatrix,
    approx_cm,
    class_split,
    counting_cm,
    g_mean,
    mcc,
    rates,
)

ULP = np.finfo(float).eps


def reference_approx_cm(y_hat, y) -> ConfusionMatrix:
    """The four-product ACM the per-class form replaced: each cell sums, over
    all rows, the outputs or their complements times the targets or theirs."""
    yh = np.asarray(y_hat, dtype=float)
    t = np.asarray(y, dtype=float)
    return ConfusionMatrix(tn=float(np.sum((1.0 - yh) * (1.0 - t))),
                           fp=float(np.sum(yh * (1.0 - t))),
                           fn=float(np.sum((1.0 - yh) * t)),
                           tp=float(np.sum(yh * t)))


def assert_near_reference(y_hat, y):
    """The stated tolerance of the per-class ACM: TP_apx and FN_apx within
    8 eps * m1, FP_apx within 8 eps * sum(y_hat) and TN_apx = m0 - FP_apx
    within 8 eps * (sum(y_hat) + m0) of the four-product reference."""
    got, want = approx_cm(y_hat, y), reference_approx_cm(y_hat, y)
    m1 = int(np.sum(y))
    total = float(np.sum(y_hat))
    for cell, scale in (("tp", m1), ("fn", m1), ("fp", total),
                        ("tn", total + len(y) - m1)):
        assert abs(getattr(got, cell) - getattr(want, cell)) <= 8 * ULP * scale, cell


class TestCountingCm:
    def test_perfect(self):
        cm = counting_cm([0, 0, 0, 1, 1], [0, 0, 0, 1, 1])
        assert (cm.tn, cm.fp, cm.fn, cm.tp) == (3, 0, 0, 2)

    def test_all_negative_predictor(self):
        cm = counting_cm([0, 0, 0], [0, 0, 1])
        assert (cm.tn, cm.fp, cm.fn, cm.tp) == (2, 0, 1, 0)

    def test_matches_elementwise_loop(self):
        rng = np.random.default_rng(1)
        preds = rng.integers(0, 2, 20)
        y = rng.integers(0, 2, 20)
        cm = counting_cm(preds, y)
        tally = {"tn": 0, "fp": 0, "fn": 0, "tp": 0}
        for p, t in zip(preds, y):
            key = ("t" if p == t else "f") + ("p" if p == 1 else "n")
            tally[key] += 1
        assert (cm.tn, cm.fp, cm.fn, cm.tp) == \
            (tally["tn"], tally["fp"], tally["fn"], tally["tp"])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            counting_cm([0, 1], [0])

    def test_equals_elementwise_tally(self):
        # The ACM of the labels, cast to int, is the tally for 0/1 labels of
        # any dtype, all-0 and all-1 predictions included, and for targets
        # given as their ClassSplit.
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        labels = st.integers(1, 200).flatmap(lambda n: st.tuples(
            st.one_of(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                      st.just([0] * n), st.just([1] * n)),
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            st.sampled_from([int, bool, float]),
            st.booleans()))

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(labels)
        def check(case):
            preds, y, dtype, as_split = case
            tally = {"tn": 0, "fp": 0, "fn": 0, "tp": 0}
            for p, t in zip(preds, y):
                tally[("t" if p == t else "f") + ("p" if p == 1 else "n")] += 1
            cm = counting_cm(np.array(preds, dtype=dtype),
                             class_split(y) if as_split else y)
            assert cm == ConfusionMatrix(**tally)
            assert all(type(v) is int for v in vars(cm).values())

        check()

    @pytest.mark.parametrize("preds", [[0, 2, 1], [0, -1, 1], [0, 0.5, 1],
                                       [0, float("nan"), 1]])
    def test_rejects_predictions_other_than_0_1(self, preds):
        # A 2 falls in no cell of a tally; the ACM would count it as fp = 2.
        with pytest.raises(ValueError, match="predictions must be 0 or 1"):
            counting_cm(preds, [0, 0, 1])


class TestApproxCm:
    def test_binary_reduces_to_counting(self):
        rng = np.random.default_rng(2)
        preds = rng.integers(0, 2, 50)
        y = rng.integers(0, 2, 50)
        acm = approx_cm(preds.astype(float), y)
        cm = counting_cm(preds, y)
        assert (acm.tn, acm.fp, acm.fn, acm.tp) == \
            (cm.tn, cm.fp, cm.fn, cm.tp)

    def test_all_half(self):
        acm = approx_cm([0.5] * 4, [0, 0, 1, 1])
        assert (acm.tn, acm.fp, acm.fn, acm.tp) == (1, 1, 1, 1)

    def test_direct_sums(self):
        acm = approx_cm([0.9, 0.2], [1, 0])
        assert acm.tp == pytest.approx(0.9)
        assert acm.fn == pytest.approx(0.1)
        assert acm.tn == pytest.approx(0.8)
        assert acm.fp == pytest.approx(0.2)

    def test_row_sums_exact(self):
        rng = np.random.default_rng(3)
        y_hat = rng.uniform(0, 1, 200)
        y = rng.integers(0, 2, 200)
        acm = approx_cm(y_hat, y)
        assert acm.tn + acm.fp == pytest.approx(np.sum(y == 0), rel=1e-9)
        assert acm.fn + acm.tp == pytest.approx(np.sum(y == 1), rel=1e-9)


class TestPerClassAcm:
    def test_near_reference(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        # Outputs in the network's clamp band, both classes; up to 300 rows
        # covers numpy's unrolled and pairwise summation paths.
        cases = st.integers(2, 300).flatmap(lambda n: st.tuples(
            st.lists(st.floats(EPS, 1.0 - EPS), min_size=n, max_size=n),
            st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(
                lambda y: 0 in y and 1 in y)))

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(cases)
        def check(case):
            assert_near_reference(*case)

        check()

    @pytest.mark.parametrize("shape", ["uniform", "floor", "saturated"])
    def test_near_reference_at_skin_size(self, shape):
        # 12,020 rows with 20 positives, as a skin-shaped train fold.
        rng = np.random.default_rng(8)
        y = np.zeros(12020, dtype=int)
        y[rng.choice(12020, 20, replace=False)] = 1
        z = rng.uniform(EPS, 1.0 - EPS, 12020)
        if shape == "floor":        # negatives at the clamp floor
            z[y == 0] = EPS
        elif shape == "saturated":  # outputs at both ends of the band
            z = np.where(rng.random(12020) < 0.5, EPS, 1.0 - EPS)
        assert_near_reference(z, y)

    def test_binary_equals_reference(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        cases = st.integers(1, 300).flatmap(lambda n: st.tuples(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            st.lists(st.integers(0, 1), min_size=n, max_size=n)))

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(cases)
        def check(case):
            labels, y = case
            got = approx_cm(np.asarray(labels, dtype=float), y)
            assert got == reference_approx_cm(labels, y)

        check()

    def test_split_and_targets_agree(self):
        rng = np.random.default_rng(9)
        z = rng.uniform(0.0, 1.0, 50)
        y = rng.integers(0, 2, 50)
        assert approx_cm(z, class_split(y)) == approx_cm(z, y)
        with pytest.raises(ValueError):
            approx_cm(z[:49], class_split(y))
        with pytest.raises(ValueError):
            approx_cm([0.5, 0.5], [0, 2])


class TestMcc:
    def test_perfect(self):
        assert mcc(ConfusionMatrix(tn=5, fp=0, fn=0, tp=5)) == 1.0

    def test_collapsed_predictor_degenerate(self):
        assert mcc(ConfusionMatrix(tn=99, fp=0, fn=1, tp=0)) == 0.0

    def test_known_value(self):
        expected = (1 * 99 - 1 * 0) / math.sqrt(2 * 1 * 100 * 99)
        assert mcc(ConfusionMatrix(tn=99, fp=1, fn=0, tp=1)) == pytest.approx(expected, rel=1e-12)

    def test_bounds_and_label_swap_antisymmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            tn, fp, fn, tp = rng.integers(0, 50, 4)
            v = mcc(ConfusionMatrix(tn=tn, fp=fp, fn=fn, tp=tp))
            assert -1.0 <= v <= 1.0
            swapped = mcc(ConfusionMatrix(tn=fp, fp=tn, fn=tp, tp=fn))
            if abs(v) > 0 and abs(swapped) > 0:
                assert swapped == pytest.approx(-v, rel=1e-9)

    def test_approx_binary_matches_counting(self):
        cm = ConfusionMatrix(tn=10, fp=2, fn=1, tp=3)
        acm = ConfusionMatrix(tn=10.0, fp=2.0, fn=1.0, tp=3.0)
        assert mcc(acm) == pytest.approx(mcc(cm), rel=1e-12)
        assert g_mean(acm) == pytest.approx(g_mean(cm), rel=1e-12)

    def test_int_cells_give_the_float_bits(self):
        # Exact int products pass 2**53 here and would round 2 ulp away.
        cells = (341044727, 360010378, 155952614, 273222599)
        cm, acm = ConfusionMatrix(*cells), ConfusionMatrix(*map(float, cells))
        assert mcc(cm) == mcc(acm)
        assert rates(cm) == rates(acm)


class TestGMean:
    def test_perfect(self):
        assert g_mean(ConfusionMatrix(tn=5, fp=0, fn=0, tp=5)) == 1.0

    def test_zero_tp(self):
        assert g_mean(ConfusionMatrix(tn=5, fp=0, fn=2, tp=0)) == 0.0

    def test_known_value(self):
        assert g_mean(ConfusionMatrix(tn=99, fp=1, fn=0, tp=1)) == \
            pytest.approx(math.sqrt(0.99), rel=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            tn, fp, fn, tp = rng.integers(0, 50, 4)
            if tn + fp == 0 or fn + tp == 0:
                continue
            assert 0.0 <= g_mean(ConfusionMatrix(tn=tn, fp=fp, fn=fn, tp=tp)) <= 1.0

    def test_empty_class_error(self):
        with pytest.raises(ValueError):
            g_mean(ConfusionMatrix(tn=3, fp=1, fn=0, tp=0))


class TestRates:
    def test_all_negative(self):
        r = rates(ConfusionMatrix(tn=2, fp=0, fn=1, tp=0))
        assert r.fnr == 1.0 and r.tnr == 1.0

    def test_approx_rates(self):
        r = rates(ConfusionMatrix(tn=0.8, fp=0.2, fn=0.1, tp=0.9))
        assert r.fnr == pytest.approx(0.1)
        assert r.fpr == pytest.approx(0.2)

    def test_identities(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            tn, fp, fn, tp = rng.integers(1, 50, 4)
            r = rates(ConfusionMatrix(tn=tn, fp=fp, fn=fn, tp=tp))
            assert r.tpr + r.fnr == pytest.approx(1.0)
            assert r.tnr + r.fpr == pytest.approx(1.0)


class TestERatio:
    def test_symmetric_is_one(self):
        assert rates(ConfusionMatrix(tn=0.9, fp=0.1, fn=0.1, tp=0.9)).e_ratio == \
            pytest.approx(1.0)

    def test_direct_ratio(self):
        acm = ConfusionMatrix(tn=0.95, fp=0.05, fn=0.5, tp=0.5)
        assert rates(acm).e_ratio == pytest.approx(10.0)

    def test_zero_fpr_guard(self):
        acm = ConfusionMatrix(tn=1.0, fp=0.0, fn=0.5, tp=0.5)
        v = rates(acm).e_ratio
        assert np.isfinite(v) and v > 1e6
