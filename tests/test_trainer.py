import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from astra import trainer
from astra.activation import B_MAX, astra_threshold
from astra.data import Dataset, read_records
from astra.losses import ALL_KINDS, LossKind
from astra.metrics import ClassSplit
from astra.network import forward, predict_labels
from astra.trainer import (
    EpochRecord,
    TrainConfig,
    build_model,
    eta_b_update,
    train,
    write_epoch_csv,
)


class TestEtaBUpdate:
    def test_multiplies_when_positives_harder(self):
        cfg = TrainConfig()
        assert eta_b_update(0.01, 5.0, cfg) == pytest.approx(0.011)

    def test_capped(self):
        cfg = TrainConfig()
        assert eta_b_update(0.5, 5.0, cfg) == 0.5

    def test_floored(self):
        cfg = TrainConfig()
        assert eta_b_update(0.01, 0.5, cfg) == 0.01

    def test_unchanged_at_one(self):
        cfg = TrainConfig()
        assert eta_b_update(0.2, 1.0, cfg) == 0.2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(eta_b_min=0.5, eta_b_max=0.1)
        with pytest.raises(ValueError):
            TrainConfig(k_mult=0.9)
        with pytest.raises(ValueError):
            TrainConfig(tau_init=0.01)

    def test_tau_init_range_is_the_slopes(self):
        # Open at both ends: b = 1 has no beta, and slope_from_tau stops
        # short of B_MAX.
        lo, hi = astra_threshold(B_MAX), 0.5
        for tau in (lo, hi, math.nextafter(lo, 0.0), math.nextafter(hi, 1.0)):
            with pytest.raises(ValueError, match="tau_init must be in"):
                TrainConfig(tau_init=tau)
        for tau in (math.nextafter(lo, 1.0), math.nextafter(hi, 0.0)):
            assert TrainConfig(tau_init=tau).tau_init == tau
            assert build_model(TrainConfig(tau_init=tau,
                                           loss=LossKind("gmn", True)), 3).astra.trainable


class TestTrain:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.name)
    def test_divergence_raises_no_floating_point_warning(self, toy_sets, kind):
        # NonFiniteError reports the divergence; numpy warns of nothing, and
        # its error state is as it was once train returns.
        tr, val = toy_sets
        before = np.geterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            snapshot, _ = train(TrainConfig(epochs=5, eta=1e200, loss=kind), tr, val)
        assert snapshot.diverged
        assert [str(w.message) for w in caught] == []
        assert np.geterr() == before

    def test_zero_epochs_returns_initial(self, toy_sets):
        tr, val = toy_sets
        cfg = TrainConfig(epochs=0, loss=LossKind("bce", False), seed=5)
        snapshot, records = train(cfg, tr, val)
        assert snapshot.epoch == 0
        assert records == []

    def test_bce_fits_separable_toy(self, toy_sets):
        tr, val = toy_sets
        cfg = TrainConfig(epochs=2000, loss=LossKind("bce", False), seed=5)
        snapshot, records = train(cfg, tr, val)
        assert records[-1].train_fnr_apx < 0.05

    def test_gmn_e_ratio_below_bce(self, toy_sets):
        tr, val = toy_sets
        final = {}
        for kind in (LossKind("bce", False), LossKind("gmn", False)):
            cfg = TrainConfig(epochs=2000, loss=kind, seed=5)
            _, records = train(cfg, tr, val)
            final[kind.name] = records[-1].train_e_ratio
        assert final["gmn"] <= final["bce"]

    def test_snapshot_val_fnr_monotone(self, toy_sets):
        tr, val = toy_sets
        cfg = TrainConfig(epochs=500, loss=LossKind("gmn", True), seed=5)
        snapshot, records = train(cfg, tr, val)
        best_seen = np.inf
        replacements = []
        for r in records:
            if r.val_fnr_apx < best_seen:
                best_seen = r.val_fnr_apx
                replacements.append(r.val_fnr_apx)
        assert all(a > b for a, b in zip(replacements, replacements[1:]))
        assert snapshot.val_fnr_apx <= min(r.val_fnr_apx for r in records)

    def test_eta_b_within_bounds(self, toy_sets):
        tr, val = toy_sets
        cfg = TrainConfig(epochs=800, loss=LossKind("gmn", True), seed=5)
        _, records = train(cfg, tr, val)
        for r in records:
            assert cfg.eta_b_min <= r.eta_b <= cfg.eta_b_max

    def test_astra_start_point_and_tau_bounds(self, toy_sets):
        tr, val = toy_sets
        cfg = TrainConfig(epochs=300, loss=LossKind("bce", True), seed=5)
        _, records = train(cfg, tr, val)
        assert records[0].b == pytest.approx(7.396, abs=1e-3)
        for r in records:
            assert 0.049 < r.tau <= 0.5

    def test_b_constant_without_astra(self, toy_sets):
        tr, val = toy_sets
        cfg = TrainConfig(epochs=50, loss=LossKind("bce", False), seed=5)
        _, records = train(cfg, tr, val)
        assert all(r.b == 1.0 and r.tau == 0.5 for r in records)

    def test_reproducible(self, toy_sets):
        tr, val = toy_sets
        cfg = TrainConfig(epochs=100, loss=LossKind("gmn", True), seed=5)
        s1, r1 = train(cfg, tr, val)
        s2, r2 = train(cfg, tr, val)
        assert r1 == r2
        assert np.array_equal(s1.model.w1, s2.model.w1)
        assert s1.model.astra == s2.model.astra

    def test_one_record_per_epoch(self, toy_sets):
        tr, val = toy_sets
        cfg = TrainConfig(epochs=37, loss=LossKind("bce", False), seed=5)
        _, records = train(cfg, tr, val)
        assert [r.epoch for r in records] == list(range(1, 38))

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
    def test_class_split_built_once_per_run(self, toy_sets, monkeypatch, kind):
        # The ACM and the loss of every epoch read the split train() builds.
        built = []
        init = ClassSplit.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ClassSplit, "__init__", counting_init)
        _, records = train(TrainConfig(epochs=6, loss=kind, seed=2), *toy_sets)
        assert len(records) == 6
        assert len(built) == 1
        assert (built[0].m0, built[0].m1) == (38, 2)

    def test_empty_class_rejected(self):
        bad = Dataset(X=np.zeros((4, 1)), y=np.array([0, 0, 0, 0]))
        val = Dataset(X=np.zeros((1, 1)), y=np.array([1]))
        cfg = TrainConfig(epochs=1)
        with pytest.raises(ValueError):
            train(cfg, bad, val)


def shaped(n, n_x, seed) -> Dataset:
    """n rows of n_x features, 1% positives shifted by 1.5, C-ordered."""
    rng = np.random.default_rng([n, n_x, seed])
    m1 = n // 100
    X = np.vstack([rng.normal(0.0, 1.0, (n - m1, n_x)),
                   rng.normal(1.5, 0.8, (m1, n_x))])
    return Dataset(X=X, y=np.array([0] * (n - m1) + [1] * m1))


def fortran(ds: Dataset) -> Dataset:
    return Dataset(X=np.asfortranarray(ds.X), y=ds.y)


class TestFeatureMajor:
    # The skin shape's and the wide shape's train sets, and the golden
    # train command's.
    @pytest.mark.parametrize("shape", [(12020, 3), (7200, 22), (1800, 22)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
    def test_layout_moves_no_bit(self, shape, kind):
        tr, val = shaped(*shape, 0), shaped(1200, shape[1], 1)
        assert tr.X.flags.c_contiguous and not tr.X.flags.f_contiguous
        cfg = TrainConfig(epochs=4, eta=0.01, loss=kind, seed=5)
        (snap_c, rec_c), (snap_f, rec_f) = (train(cfg, tr, val),
                                            train(cfg, fortran(tr), fortran(val)))
        assert (np.array([astuple(r) for r in rec_c]).tobytes()
                == np.array([astuple(r) for r in rec_f]).tobytes())
        a, b = snap_c.model, snap_f.model
        for name in ("w1", "b1", "w2", "b2"):
            assert np.asarray(getattr(a, name)).tobytes() == \
                np.asarray(getattr(b, name)).tobytes(), name
        assert astuple(a.astra) == astuple(b.astra)
        c, f = forward(a, tr.X), forward(a, np.asfortranarray(tr.X))
        for name in ("hidden_pre", "leak", "hidden_act", "out_pre", "z"):
            assert getattr(c, name).tobytes() == getattr(f, name).tobytes(), name
        assert np.array_equal(predict_labels(a, tr.X),
                              predict_labels(a, np.asfortranarray(tr.X)))

    def test_train_forward_gets_the_train_set_x(self, toy_sets, monkeypatch):
        # A feature-major train set reaches forward as itself, not a copy:
        # the benchmark's tracer tells the train forward by identity.
        tr, val = toy_sets
        seen = []

        def recording(model, X, ws=None):
            seen.append(X)
            return forward(model, X, ws)

        monkeypatch.setattr(trainer, "forward", recording)
        train(TrainConfig(epochs=3, seed=1), tr, val)
        assert sum(X is tr.X for X in seen) == 3


class TestEpochCsv:
    def test_header_and_roundtrip(self, tmp_path, toy_sets):
        tr, val = toy_sets
        cfg = TrainConfig(epochs=20, loss=LossKind("gmn", True), seed=5)
        _, records = train(cfg, tr, val)
        path = tmp_path / "epochs.csv"
        write_epoch_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("epoch,train_loss,train_e_ratio,train_fnr_apx,"
                            "train_fpr_apx,val_fnr_apx,b,tau,eta_b")
        assert len(lines) == 21
        assert read_records(EpochRecord, path) == records
        # round-trip-exact floats
        fields = lines[3].split(",")
        assert float(fields[1]) == records[2].train_loss
        assert float(fields[8]) == records[2].eta_b
