import math
import tracemalloc
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest

from astra import trainer
from astra.data import Dataset, read_records
from astra.losses import ALL_KINDS, LossKind
from astra.metrics import ClassSplit
from astra.network import backward_and_step, forward, predict_labels
from astra.trainer import (
    EpochRecord,
    TrainConfig,
    eta_b_update,
    train,
    write_epoch_csv,
)


class TestEtaBUpdate:
    def test_multiplies_when_positives_harder(self):
        assert eta_b_update(0.01, 5.0) == pytest.approx(0.011)

    def test_capped(self):
        assert eta_b_update(0.5, 5.0) == 0.5

    def test_floored(self):
        assert eta_b_update(0.01, 0.5) == 0.01

    def test_unchanged_at_one(self):
        assert eta_b_update(0.2, 1.0) == 0.2

    @pytest.mark.parametrize("setting, field", [
        ({"epochs": -1}, "epochs"),
        ({"eta": -0.5}, "eta"),
        ({"eta": 0.0}, "eta"),
        ({"eta": math.nan}, "eta"),
        ({"eta": math.inf}, "eta"),
        ({"seed": -1}, "seed"),
    ])
    def test_rejects_bad_epochs_eta_and_seed(self, setting, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TrainConfig(**setting)

    def test_accepts_the_edges(self):
        cfg = TrainConfig(epochs=0, eta=5e-324, seed=0)
        assert (cfg.epochs, cfg.eta, cfg.seed) == (0, 5e-324, 0)


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
            assert trainer.ETA_B_MIN <= r.eta_b <= trainer.ETA_B_MAX

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
        for name in ("leak", "hidden_act", "out_pre", "z"):
            assert getattr(c, name).tobytes() == getattr(f, name).tobytes(), name
        assert np.array_equal(predict_labels(a, tr.X),
                              predict_labels(a, np.asfortranarray(tr.X)))

    def test_train_forward_gets_the_train_set_x(self, toy_sets, monkeypatch):
        # A feature-major train set reaches forward as itself, not a copy:
        # the benchmark's tracer tells the train forward by identity.  One
        # forward per epoch, after its step, and one before the first.
        tr, val = toy_sets
        seen = []

        def recording(model, X, ws=None):
            seen.append(X)
            return forward(model, X, ws)

        monkeypatch.setattr(trainer, "forward", recording)
        train(TrainConfig(epochs=3, seed=1), tr, val)
        assert len(seen) == 4 and all(X is tr.X for X in seen)


def snapshot_bits(snapshot) -> tuple:
    m = snapshot.model
    return (snapshot.epoch, snapshot.val_fnr_apx,
            *(np.asarray(getattr(m, k)).tobytes() for k in ("w1", "b1", "w2", "b2")),
            astuple(m.astra))


class TestRunState:
    """What a run that rewrites the same arrays every epoch must keep: its
    snapshots apart from the live parameters, no allocation after the first
    epoch, and the epoch, snapshot and records each divergence check stops
    at."""

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
    def test_snapshot_does_not_follow_later_steps(self, kind):
        tr, val = shaped(1200, 3, 0), shaped(400, 3, 1)
        cfg = TrainConfig(epochs=40, eta=0.05, loss=kind, seed=5)
        best, _ = train(cfg, tr, val)
        assert 0 < best.epoch < cfg.epochs
        shorter, _ = train(replace(cfg, epochs=best.epoch), tr, val)
        assert snapshot_bits(shorter) == snapshot_bits(best)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
    def test_later_epochs_allocate_no_row_array(self, kind):
        # The skin-cv train fold's size.
        tr, val = shaped(12020, 3, 0), shaped(4000, 3, 1)

        def peak(epochs):
            tracemalloc.start()
            try:
                train(TrainConfig(epochs=epochs, eta=0.01, loss=kind, seed=5),
                      tr, val)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(30) - peak(3) < 12020 * 8

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
    def test_no_epoch_after_the_first_peaks_by_a_row_array(self, kind,
                                                           monkeypatch):
        # What an epoch allocates and frees leaves the peak of a whole run
        # alone, so each epoch from the second on is measured by itself:
        # the peak from the start of the forward before it to the next
        # one's.
        tr, val = shaped(12020, 3, 0), shaped(4000, 3, 1)
        rises, real_forward = [], trainer.forward

        def measured_forward(model, X, ws=None):
            if len(X) == len(tr.X):
                current, peak = tracemalloc.get_traced_memory()
                rises.append(peak - current)
                tracemalloc.reset_peak()
            return real_forward(model, X, ws)

        monkeypatch.setattr(trainer, "forward", measured_forward)
        tracemalloc.start()
        try:
            train(TrainConfig(epochs=12, eta=0.01, loss=kind, seed=5), tr, val)
        finally:
            tracemalloc.stop()
        assert len(rises) == 13
        assert max(rises[2:]) < 12020 * 8

    @pytest.mark.parametrize("kind, limit_kib", [
        (LossKind("gmn", True), 1750), (LossKind("gmn", False), 1250)],
        ids=lambda v: getattr(v, "name", v))
    def test_run_holds_few_row_buffers(self, monkeypatch, kind, limit_kib):
        # The skin-cv train fold and its 7 validation positives, n_h = 2.
        # One trace holds both batches, and backward writes its derivatives
        # over the arrays it has finished reading: the epoch's arrays stay
        # within this host's 2 MiB of L2 per core.
        tr, val = shaped(12020, 3, 0), shaped(700, 3, 1)
        traces, real_forward = [], trainer.forward

        def recording(model, X, ws=None):
            traces.append(ws)
            return real_forward(model, X, ws)

        monkeypatch.setattr(trainer, "forward", recording)
        train(TrainConfig(epochs=2, eta=0.01, loss=kind, seed=5), tr, val)
        trace = traces[-1]
        assert len(trace.val_z) == 7
        owners = {}

        def visit(v):
            if isinstance(v, tuple):
                for item in v:
                    visit(item)
            elif isinstance(v, np.ndarray) and max(v.shape, default=0) >= 12020:
                while isinstance(v.base, np.ndarray):
                    v = v.base
                owners[id(v)] = v

        for v in vars(trace).values():
            visit(v)
        assert sum(a.nbytes for a in owners.values()) <= limit_kib * 1024

    def run_to_divergence(self, monkeypatch, kind, tr, val, eta=0.01,
                          inject=None, epochs=30):
        """(snapshot, records, the stop message, the X of the forward that
        raised or None, the number of forwards); `inject(model, trace)` runs
        before epoch 4's step.  Every forward is on tr.X."""
        messages, raised_on, steps, seen = [], [], [], []
        real_forward, real_step = trainer.forward, trainer.backward_and_step

        def watched_forward(model, X, ws=None):
            seen.append(X)
            try:
                return real_forward(model, X, ws)
            except ValueError:
                raised_on.append(X)
                raise

        def injecting_step(model, adam, trace, *args):
            steps.append(None)
            if inject is not None and len(steps) == 4:
                inject(model, trace)
            return real_step(model, adam, trace, *args)

        monkeypatch.setattr(trainer, "forward", watched_forward)
        monkeypatch.setattr(trainer, "backward_and_step", injecting_step)
        monkeypatch.setattr(trainer.log, "warning",
                            lambda fmt, *a: messages.append(fmt % a))
        snapshot, records = train(TrainConfig(epochs=epochs, eta=eta, loss=kind,
                                              seed=2), tr, val)
        assert snapshot.diverged and len(messages) == 1
        assert all(X is tr.X for X in seen)
        return snapshot, records, messages[0], (raised_on or [None])[0], len(seen)

    @pytest.mark.parametrize("kind, stop", [
        (LossKind("bce", False), 20), (LossKind("gmn", False), 8)])
    def test_train_preactivation_stops_the_run(self, monkeypatch, kind, stop):
        # Features of 1e300 overflow the train rows' output preactivation.
        tr = fortran(Dataset(shaped(400, 3, 0).X * 1e300, shaped(400, 3, 0).y))
        val = fortran(Dataset(shaped(200, 3, 1).X * 1e300, shaped(200, 3, 1).y))
        snapshot, records, message, raised_on, forwards = self.run_to_divergence(
            monkeypatch, kind, tr, val, eta=1e3)
        # The step of epoch `stop` made a train row non-finite, and the
        # forward after it raised, before that epoch's record.
        assert raised_on is tr.X and forwards == stop + 1
        assert message.startswith(f"epoch {stop}: preactivation must be finite")
        assert (snapshot.epoch, len(records)) == (1, stop - 1)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
    def test_last_step_overflow_marks_the_run_diverged(self, monkeypatch, kind):
        # w1 scaled by 1e200 before the last step overflows only the train
        # row with a feature of 1e150: the validation rows stay finite.
        tr = shaped(400, 3, 0)
        X = tr.X.copy()
        X[0, 0] = 1e150
        tr = fortran(Dataset(X, tr.y))
        val = fortran(shaped(200, 3, 1))

        def inject(model, trace):
            model.w1 = model.w1 * 1e200

        snapshot, records, message, raised_on, forwards = self.run_to_divergence(
            monkeypatch, kind, tr, val, inject=inject, epochs=4)
        assert raised_on is tr.X and forwards == 5
        assert message.startswith("epoch 4: preactivation must be finite")
        assert len(records) == 3
        clean, _ = train(TrainConfig(epochs=3, eta=0.01, loss=kind, seed=2),
                         tr, val)
        assert snapshot_bits(snapshot) == snapshot_bits(clean)

    @pytest.mark.parametrize("kind", [LossKind("bce", True), LossKind("gmn", True)],
                             ids=lambda k: k.name)
    def test_slope_gradient_overflow_stops_the_run(self, monkeypatch, kind):
        # Before epoch 4's step, w1 of 1e158 on the feature of 1e150 in train
        # row 0 and w2 = [1, 0]: the forward after it gives that row a
        # finite preactivation near 1e308, b times it overflows, and epoch
        # 5's dj/db is NaN.  Every other row stays below 1e160.
        tr = shaped(400, 3, 0)
        X = tr.X.copy()
        X[0, 0] = 1e150
        tr = fortran(Dataset(X, tr.y))
        val = fortran(shaped(200, 3, 1))

        def inject(model, trace):
            w1 = np.zeros((model.n_h, model.n_x))
            w1[0, 0] = 1e158
            model.w1, model.b1, model.w2 = w1, np.zeros(model.n_h), np.eye(model.n_h)[0]
            model.b2 = 0.0

        snapshot, records, message, raised_on, forwards = self.run_to_divergence(
            monkeypatch, kind, tr, val, inject=inject, epochs=5)
        assert raised_on is None and forwards == 5
        assert message.startswith("epoch 5: ") and "beta" in message
        # The run keeps the records and snapshot of the same four epochs.
        steps = []

        def injecting_step(model, adam, trace, *args):
            steps.append(None)
            if len(steps) == 4:
                inject(model, trace)
            return backward_and_step(model, adam, trace, *args)

        monkeypatch.setattr(trainer, "backward_and_step", injecting_step)
        clean, clean_records = train(
            TrainConfig(epochs=4, eta=0.01, loss=kind, seed=2), tr, val)
        assert not clean.diverged and records == clean_records
        assert snapshot_bits(snapshot) == snapshot_bits(clean)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
    def test_validation_forward_stops_the_run(self, monkeypatch, kind):
        # eta = 1e200 steps the weights far enough that the validation
        # positives' preactivation overflows after the first step.
        tr, val = fortran(shaped(400, 3, 0)), fortran(shaped(200, 3, 1))
        snapshot, records, message, raised_on, forwards = self.run_to_divergence(
            monkeypatch, kind, tr, val, eta=1e200)
        # The forward after the first step raised on the validation rows.
        assert raised_on is tr.X and forwards == 2
        assert message.startswith("epoch 1: preactivation must be finite")
        assert (snapshot.epoch, len(records)) == (0, 0)

    @pytest.mark.parametrize("inject, check", [
        (lambda model, trace: trace.hidden_act.__setitem__((0, 0), np.inf),
         "non-finite gradient in w2"),
        (lambda model, trace: model.b1.__setitem__(0, np.nan),
         "non-finite parameter b1 after update"),
    ], ids=["gradient", "parameter"])
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
    def test_step_checks_stop_the_run(self, monkeypatch, kind, inject, check):
        # A value made non-finite before epoch 4's step stops the run there
        # with the snapshot of the three good epochs.
        tr, val = fortran(shaped(400, 3, 0)), fortran(shaped(200, 3, 1))
        snapshot, records, message, raised_on, forwards = self.run_to_divergence(
            monkeypatch, kind, tr, val, inject=inject)
        assert raised_on is None and message.startswith(f"epoch 4: {check};")
        assert forwards == 4
        assert len(records) == 3
        clean, _ = train(TrainConfig(epochs=3, eta=0.01, loss=kind, seed=2),
                         tr, val)
        assert snapshot_bits(snapshot) == snapshot_bits(clean)


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
