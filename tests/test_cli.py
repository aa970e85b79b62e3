import json
from dataclasses import fields

import numpy as np
import pytest

from astra import cli, experiment
from astra.data import parse_sparse, write_sparse
from astra.trainer import TrainConfig


@pytest.fixture
def sparse_dataset(tmp_path):
    """Small imbalanced dataset in sparse text form (labels 1/2, 2 rare)."""
    rng = np.random.default_rng(30)
    Xn = rng.normal(0, 1, (120, 3))
    Xp = rng.normal(2.5, 0.6, (10, 3))
    X = np.vstack([Xn, Xp])
    labels = np.array([1.0] * 120 + [2.0] * 10)
    path = tmp_path / "data.txt"
    write_sparse(path, X, labels)
    return path


class TestTrainCommand:
    def test_outputs(self, tmp_path, sparse_dataset):
        out = tmp_path / "run"
        rc = cli.main(["train", "--dataset", str(sparse_dataset),
                       "--out", str(out), "--loss", "gmn", "--astra", "on",
                       "--epochs", "40", "--seed", "1"])
        assert rc == 0
        for name in ("manifest.json", "checkpoint.json", "epochs.csv",
                     "summary.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["test_cm"]) == {"tn", "fp", "fn", "tp"}
        assert summary["final_b"] >= 1.0
        epochs = (out / "epochs.csv").read_text().splitlines()
        assert len(epochs) == 41

    def test_manifest_records_resolved_config(self, tmp_path, sparse_dataset):
        out = tmp_path / "run"
        cli.main(["train", "--dataset", str(sparse_dataset), "--out", str(out),
                  "--loss", "bce", "--epochs", "5", "--seed", "3"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seed"] == 3
        assert manifest["epochs"] == 5
        # every TrainConfig field, defaults included
        resolved = TrainConfig(epochs=5, seed=3)
        for f in fields(TrainConfig):
            if f.name != "loss":
                assert manifest[f.name] == getattr(resolved, f.name), f.name
        assert (manifest["loss"], manifest["astra"]) == ("bce", "off")

    def test_rerun_from_manifest_byte_identical(self, tmp_path, sparse_dataset):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"eta": 0.01, "tau_init": 0.3, "n_h": 3}))
        first, again = tmp_path / "a", tmp_path / "b"
        assert cli.main(["train", "--dataset", str(sparse_dataset),
                         "--config", str(config), "--out", str(first),
                         "--loss", "gmn", "--astra", "on", "--epochs", "30",
                         "--seed", "2"]) == 0
        assert cli.main(["train", "--config", str(first / "manifest.json"),
                         "--out", str(again)]) == 0
        for fname in ("checkpoint.json", "epochs.csv", "summary.json"):
            assert (first / fname).read_bytes() == (again / fname).read_bytes()
        manifests = [json.loads((d / "manifest.json").read_text())
                     for d in (first, again)]
        assert {**manifests[0], "out": None} == {**manifests[1], "out": None}

    def test_rerun_byte_identical(self, tmp_path, sparse_dataset):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cli.main(["train", "--dataset", str(sparse_dataset),
                      "--out", str(out), "--loss", "gmn", "--astra", "on",
                      "--epochs", "30", "--seed", "2"])
            outs.append(out)
        for fname in ("checkpoint.json", "epochs.csv", "summary.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_config_file_with_flag_override(self, tmp_path, sparse_dataset):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "dataset": str(sparse_dataset), "loss": "bce", "epochs": 50,
            "seed": 4}))
        out = tmp_path / "run"
        rc = cli.main(["train", "--config", str(config), "--out", str(out),
                       "--epochs", "8"])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["epochs"] == 8
        assert manifest["loss"] == "bce"
        assert len((out / "epochs.csv").read_text().splitlines()) == 9


class TestCvCommand:
    def test_single_method_row_count(self, tmp_path, sparse_dataset):
        out = tmp_path / "cv"
        rc = cli.main(["cv", "--dataset", str(sparse_dataset), "--out", str(out),
                       "--loss", "gmn", "--astra", "on", "--epochs", "20",
                       "--repeats", "2", "--folds", "5", "--seed", "0"])
        assert rc == 0
        lines = (out / "runs.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 5

    def test_all_methods_by_default(self, tmp_path, sparse_dataset):
        out = tmp_path / "cv"
        cli.main(["cv", "--dataset", str(sparse_dataset), "--out", str(out),
                  "--epochs", "15", "--repeats", "2", "--folds", "5",
                  "--seed", "0"])
        lines = (out / "runs.csv").read_text().splitlines()[1:]
        methods = {line.split(",")[0] for line in lines}
        assert methods == {"bce", "bce-astra", "gmn", "gmn-astra"}
        assert len(lines) == 4 * 2 * 5
        report = json.loads((out / "report.json").read_text())
        assert set(report["stats"]) == methods
        assert len(report["p_values"]["g_mean"]) == 6
        table = (out / "table.txt").read_text()
        assert "G-Mean" in table

    def test_rerun_byte_identical(self, tmp_path, sparse_dataset):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cli.main(["cv", "--dataset", str(sparse_dataset), "--out", str(out),
                      "--loss", "bce", "--epochs", "10", "--repeats", "2",
                      "--folds", "5", "--seed", "6"])
            outs.append(out)
        assert (outs[0] / "runs.csv").read_bytes() == (outs[1] / "runs.csv").read_bytes()
        assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()

    def test_rerun_from_manifest_byte_identical(self, tmp_path, sparse_dataset):
        first, again = tmp_path / "a", tmp_path / "b"
        assert cli.main(["cv", "--dataset", str(sparse_dataset), "--out",
                         str(first), "--epochs", "8", "--repeats", "2",
                         "--folds", "5", "--seed", "6"]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert "loss" not in manifest    # every method ran, not the default
        assert cli.main(["cv", "--config", str(first / "manifest.json"),
                         "--out", str(again)]) == 0
        for fname in ("runs.csv", "report.json"):
            assert (first / fname).read_bytes() == (again / fname).read_bytes()
        methods = {line.split(",")[0] for line in
                   (again / "runs.csv").read_text().splitlines()[1:]}
        assert len(methods) == 4


class TestUndersampleCommand:
    def test_counts_and_reload(self, tmp_path, sparse_dataset):
        out = tmp_path / "us"
        rc = cli.main(["undersample", "--dataset", str(sparse_dataset),
                       "--out", str(out), "--keep-positives", "4",
                       "--seed", "0"])
        assert rc == 0
        info = json.loads((out / "kept_positives.json").read_text())
        assert info["m_tot"] == 124
        assert info["m_1"] == 4
        assert info["ir"] == pytest.approx(30.0)
        raw = parse_sparse(out / "undersampled.txt")
        assert len(raw.labels) == 124
        assert np.sum(raw.labels == 1) == 4

    def test_deterministic_selection(self, tmp_path, sparse_dataset):
        kept = []
        for name in ("a", "b"):
            out = tmp_path / name
            cli.main(["undersample", "--dataset", str(sparse_dataset),
                      "--out", str(out), "--keep-positives", "4", "--seed", "9"])
            kept.append(json.loads(
                (out / "kept_positives.json").read_text())["kept_positive_rows"])
        assert kept[0] == kept[1]


class TestReportCommand:
    def test_rebuild_matches_cv_report(self, tmp_path, sparse_dataset):
        cv_out = tmp_path / "cv"
        cli.main(["cv", "--dataset", str(sparse_dataset), "--out", str(cv_out),
                  "--loss", "bce", "--epochs", "10", "--repeats", "2",
                  "--folds", "5", "--seed", "1"])
        rep_out = tmp_path / "rep"
        rc = cli.main(["report", "--runs", str(cv_out / "runs.csv"),
                       "--out", str(rep_out)])
        assert rc == 0
        assert (rep_out / "report.json").read_bytes() == \
            (cv_out / "report.json").read_bytes()


class TestErrorPaths:
    def test_missing_dataset(self, tmp_path, capsys):
        rc = cli.main(["train", "--dataset", str(tmp_path / "nope.txt"),
                       "--out", str(tmp_path / "o"), "--epochs", "1"])
        assert rc == 2
        assert "parse error" in capsys.readouterr().err

    def test_malformed_dataset(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1:x\n")
        rc = cli.main(["train", "--dataset", str(bad),
                       "--out", str(tmp_path / "o"), "--epochs", "1"])
        assert rc == 2

    def test_invalid_config_value(self, tmp_path, sparse_dataset, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"tau_init": 0.01}))
        rc = cli.main(["train", "--dataset", str(sparse_dataset),
                       "--config", str(config), "--out", str(tmp_path / "o"),
                       "--epochs", "1"])
        assert rc == 4
        assert "invalid configuration" in capsys.readouterr().err

    def test_cv_rejects_unsatisfiable_protocol(self, tmp_path, sparse_dataset,
                                               capsys):
        out = tmp_path / "cv"
        rc = cli.main(["cv", "--dataset", str(sparse_dataset), "--out", str(out),
                       "--epochs", "1", "--repeats", "1", "--folds", "5",
                       "--keep-positives", "3", "--seed", "0"])
        assert rc == 4
        assert "invalid configuration" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("repeats, folds", [("1", "4"), ("0", "5")])
    def test_cv_rejects_protocol_without_report(self, tmp_path, sparse_dataset,
                                                capsys, repeats, folds):
        # 1 x 4 runs are too few to compare methods; 0 repeats give no runs.
        out = tmp_path / "cv"
        rc = cli.main(["cv", "--dataset", str(sparse_dataset), "--out", str(out),
                       "--epochs", "1", "--repeats", repeats, "--folds", folds])
        assert rc == 4
        assert "invalid configuration" in capsys.readouterr().err
        assert not out.exists()

    def test_cv_exit_code_on_failed_run(self, tmp_path, sparse_dataset,
                                        monkeypatch, capsys):
        real_train = experiment.train

        def train_failing_one_fold(cfg, train_ds, val_ds):
            if cfg.seed == [0, 0, 2]:
                raise RuntimeError("injected failure")
            return real_train(cfg, train_ds, val_ds)

        monkeypatch.setattr(experiment, "train", train_failing_one_fold)
        out = tmp_path / "cv"
        rc = cli.main(["cv", "--dataset", str(sparse_dataset), "--out", str(out),
                       "--loss", "bce", "--epochs", "3", "--repeats", "1",
                       "--folds", "5", "--seed", "0", "--jobs", "1"])
        assert rc == cli.EXIT_RUNS_FAILED == 5
        assert "1 run(s) failed" in capsys.readouterr().err
        assert len((out / "runs.csv").read_text().splitlines()) == 1 + 5

    def test_missing_out_flag(self, sparse_dataset):
        with pytest.raises(SystemExit):
            cli.main(["train", "--dataset", str(sparse_dataset)])


class TestConfigFile:
    @pytest.mark.parametrize("content, rc, message", [
        ("[1, 2]", 2, "parse error"),
        ('{"eta": ', 2, "parse error"),
        ('{"n_h": "three"}', 4, "invalid configuration: n_h"),
        ('{"loss": "gmn", "astra": true}', 4, "invalid configuration: astra"),
        ('{"eta_b_mni": 0.1}', 4, "unknown config key(s): eta_b_mni"),
    ], ids=["not-an-object", "malformed", "bad-type", "bad-choice",
            "unknown-key"])
    def test_rejected(self, tmp_path, sparse_dataset, capsys, content, rc,
                      message):
        config = tmp_path / "cfg.json"
        config.write_text(content)
        out = tmp_path / "o"
        assert cli.main(["train", "--dataset", str(sparse_dataset), "--config",
                         str(config), "--out", str(out), "--epochs", "1"]) == rc
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file(self, tmp_path, sparse_dataset, capsys):
        out = tmp_path / "o"
        assert cli.main(["train", "--dataset", str(sparse_dataset), "--config",
                         str(tmp_path / "nope.json"), "--out", str(out)]) == 3
        assert "i/o error" in capsys.readouterr().err
        assert not out.exists()

    def test_values_cast_to_field_types(self, tmp_path, sparse_dataset):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n_h": "3", "eta": "0.01", "epochs": 4}))
        out = tmp_path / "o"
        assert cli.main(["train", "--dataset", str(sparse_dataset), "--config",
                         str(config), "--out", str(out)]) == 0
        assert json.loads((out / "checkpoint.json").read_text())["n_h"] == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["n_h"], manifest["eta"]) == (3, 0.01)
