import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from astra import cli, data, experiment
from astra.activation import B_MAX, astra_threshold
from astra.data import parse_sparse, read_records, write_sparse
from astra.losses import ALL_KINDS
from astra.trainer import TrainConfig


def src_env(**extra) -> dict:
    """This environment with `extra` set and the source tree first on
    PYTHONPATH, for a subprocess that imports astra."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


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

    def test_manifest_records_environment(self, tmp_path, sparse_dataset):
        env = cli.environment()
        assert set(env) == {"python", "numpy", "blas", "simd", "machine",
                            "cpus", "blas_threads"}
        assert env["numpy"] == np.__version__ and env["cpus"] >= 1
        runs = {"train": ["--epochs", "2"], "cv": ["--epochs", "2", "--repeats",
                                                  "1", "--loss", "bce"],
                "undersample": ["--keep-positives", "5"]}
        for command, flags in runs.items():
            out = tmp_path / command
            assert cli.main([command, "--dataset", str(sparse_dataset),
                             "--out", str(out), *flags]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["environment"] == env, command
            # A manifest is a config file: its environment is ignored.
            again = tmp_path / f"{command}-again"
            assert cli.main([command, "--config", str(out / "manifest.json"),
                             "--out", str(again)]) == 0
            rerun = json.loads((again / "manifest.json").read_text())
            assert {**rerun, "out": None} == {**manifest, "out": None}
        # undersample's outputs rerun byte for byte from its manifest too.
        for name in ("undersampled.txt", "kept_positives.json"):
            assert ((tmp_path / "undersample-again" / name).read_bytes()
                    == (tmp_path / "undersample" / name).read_bytes())

    def test_environment_records_blas_thread_setting(self, monkeypatch):
        names = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
        for name in names:
            monkeypatch.delenv(name, raising=False)
        assert cli.environment()["blas_threads"] == dict.fromkeys(names)
        for value, name in enumerate(names, 1):
            monkeypatch.setenv(name, str(value))
        assert cli.environment()["blas_threads"] == {
            "OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": "2",
            "OMP_NUM_THREADS": "3"}

    def test_environment_simd_drops_disabled_features(self):
        if "X86_V4" not in cli.environment()["simd"].split():
            pytest.skip("numpy dispatches no X86_V4 here to turn off")
        env = src_env(NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
        done = subprocess.run(
            [sys.executable, "-c",
             "from astra.cli import environment; print(environment()['simd'])"],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "X86_V4" not in done.stdout.split()

    def test_environment_without_numpys_report(self, monkeypatch):
        def no_mode(*args, **kwargs):   # numpy before 1.26
            raise TypeError("show_config() got an unexpected keyword 'mode'")

        monkeypatch.setattr(cli.np, "show_config", no_mode)
        env = cli.environment()
        assert (env["blas"], env["simd"]) == ("unknown", "unknown")
        monkeypatch.setattr(cli.np, "show_config", lambda mode: {})
        env = cli.environment()
        assert (env["blas"], env["simd"]) == ("unknown", "")

    def test_key_error_in_a_command_propagates(self, monkeypatch, tmp_path):
        # Only ValueError means invalid configuration (exit 4); a KeyError
        # is a bug and shows its traceback.
        def buggy(cfg):
            raise KeyError("missing")

        monkeypatch.setitem(cli.COMMANDS, "report",
                            (buggy, *cli.COMMANDS["report"][1:]))
        with pytest.raises(KeyError, match="missing"):
            cli.main(["report", "--runs", str(tmp_path / "runs.csv"),
                      "--out", str(tmp_path / "out")])

    def test_rerun_from_manifest_byte_identical(self, tmp_path, sparse_dataset):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"eta": 0.01, "n_h": 3}))
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

    @pytest.mark.parametrize("astra, expected", [
        ("on", {"bce-astra", "gmn-astra"}), ("off", {"bce", "gmn"})])
    def test_astra_without_loss_runs_two_methods(self, tmp_path, sparse_dataset,
                                                 astra, expected):
        first, again = tmp_path / "a", tmp_path / "b"
        assert cli.main(["cv", "--dataset", str(sparse_dataset), "--out",
                         str(first), "--astra", astra, "--epochs", "3",
                         "--repeats", "1", "--folds", "5", "--seed", "2"]) == 0
        lines = (first / "runs.csv").read_text().splitlines()[1:]
        assert {line.split(",")[0] for line in lines} == expected
        assert len(lines) == 2 * 5
        manifest = json.loads((first / "manifest.json").read_text())
        assert manifest["astra"] == astra and "loss" not in manifest
        assert cli.main(["cv", "--config", str(first / "manifest.json"),
                         "--out", str(again)]) == 0
        assert (first / "runs.csv").read_bytes() == (again / "runs.csv").read_bytes()


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

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text[:text.rindex(",")], "line 11: expected 15 values, got 14"),
        (lambda text: text + "bce,0,1\n", "line 12: expected 15 values, got 3"),
        (lambda text: text.replace("bce,1,4,", "bce,1,x,"), "line 11: invalid literal"),
        (lambda text: "method" + text[text.index("\n"):], "line 1: unexpected header"),
        (lambda text: text[:text.index("\n") + 1] + "\n", "no records"),
        (lambda text: text.replace("bce,1,4,", "bce,,4,"), "line 11: invalid literal"),
        # The g_mean cell (the 8th) and the mcc cell (the 9th) of line 11.
        (lambda text: re.sub(r"^(bce,1,4,(?:[^,]*,){4})[^,]*", r"\1nan", text,
                             flags=re.M), "line 11: scores must be finite: g_mean nan"),
        (lambda text: re.sub(r"^(bce,1,4,(?:[^,]*,){5})[^,]*", r"\1-inf", text,
                             flags=re.M), "line 11: scores must be finite"),
    ], ids=["truncated-last-line", "short-line", "bad-cell", "wrong-header",
            "header-only", "empty-key", "nan-g-mean", "infinite-mcc"])
    def test_malformed_runs_csv(self, tmp_path, sparse_dataset, capsys, edit,
                                message):
        cv_out = tmp_path / "cv"
        cli.main(["cv", "--dataset", str(sparse_dataset), "--out", str(cv_out),
                  "--loss", "bce", "--epochs", "2", "--repeats", "2",
                  "--folds", "5"])
        runs = cv_out / "runs.csv"
        runs.write_text(edit(runs.read_text()))
        rep_out = tmp_path / "rep"
        rc = cli.main(["report", "--runs", str(runs), "--out", str(rep_out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {runs} ") and message in err
        assert not rep_out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: [ln.replace("gmn-astra,0,", "gmn-astra,9,") for ln in lines],
         "bce lacks (repeat, fold) (9, 0)"),
        (lambda lines: lines + lines[-1:],
         "gmn-astra has two runs of (repeat, fold) (1, 4)"),
    ], ids=["relabelled", "duplicated"])
    def test_unpaired_runs_csv(self, tmp_path, sparse_dataset, capsys, edit,
                               message):
        cv_out = tmp_path / "cv"
        assert cli.main(["cv", "--dataset", str(sparse_dataset), "--out",
                         str(cv_out), "--epochs", "2", "--repeats", "2",
                         "--folds", "5"]) == 0
        runs = cv_out / "runs.csv"
        runs.write_text("\n".join(edit(runs.read_text().splitlines())) + "\n")
        rep_out = tmp_path / "rep"
        rc = cli.main(["report", "--runs", str(runs), "--out", str(rep_out)])
        assert rc == 4
        assert message in capsys.readouterr().err
        assert not rep_out.exists()

    def test_failed_run_excluded_and_reported(self, tmp_path, sparse_dataset,
                                              monkeypatch, capsys):
        # bce fails on (0, 0): that key leaves both methods' vectors, and
        # the 4 pairs left are too few to test.
        real_train = experiment.train

        def train_failing(cfg, train_ds, val_ds):
            if cfg.seed == [0, 0, 0] and cfg.loss.name == "bce":
                raise RuntimeError("injected failure")
            return real_train(cfg, train_ds, val_ds)

        monkeypatch.setattr(experiment, "train", train_failing)
        cv_out, rep_out = tmp_path / "cv", tmp_path / "rep"
        assert cli.main(["cv", "--dataset", str(sparse_dataset), "--out",
                         str(cv_out), "--astra", "off", "--epochs", "3",
                         "--repeats", "1", "--folds", "5"]) == 5
        runs = cv_out / "runs.csv"
        assert capsys.readouterr().err == \
            f"1 run(s) failed; see the error column of {runs}\n"
        report = json.loads((cv_out / "report.json").read_text())
        assert report["p_values"] == {"g_mean": {"bce|gmn": None},
                                      "mcc": {"bce|gmn": None}}
        assert set(report["winners"]["g_mean"].values()) == {""}

        assert cli.main(["report", "--runs", str(runs), "--out",
                         str(rep_out)]) == 5
        assert f"1 run(s) failed; see the error column of {runs}" in \
            capsys.readouterr().err
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

    def test_ragged_csv_dataset(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,0.5,2\n0,1.5\n")
        rc = cli.main(["train", "--dataset", str(bad),
                       "--out", str(tmp_path / "o"), "--epochs", "1"])
        assert rc == 2
        assert "line 2: expected 3 values, got 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name, data", [
        ("latin.csv", b"lab\xe9l,a\n0,1\n1,2\n0,3\n"),
        ("latin.txt", b"1 1:0.5\n0 1:1.5\n\xe91 1:2.5\n")], ids=["csv", "sparse"])
    def test_dataset_not_utf8(self, tmp_path, capsys, name, data):
        bad = tmp_path / name
        bad.write_bytes(data)
        rc = cli.main(["train", "--dataset", str(bad),
                       "--out", str(tmp_path / "o"), "--epochs", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and str(bad) in err
        assert "invalid continuation byte 0xe9" in err
        assert not (tmp_path / "o").exists()

    def test_csv_suffix_in_any_case(self, tmp_path, sparse_dataset):
        # Read as sparse text, this file would fail at line 1: bad label.
        raw = parse_sparse(sparse_dataset)
        text = "".join(",".join(map(repr, map(float, row))) + "\n"
                       for row in np.column_stack([raw.labels, raw.X]))
        for name in ("tiny.csv", "TINY.CSV"):
            (tmp_path / name).write_text(text)
            assert cli.main(["train", "--dataset", str(tmp_path / name),
                             "--out", str(tmp_path / f"out-{name}"),
                             "--epochs", "2"]) == 0
        assert ((tmp_path / "out-tiny.csv" / "checkpoint.json").read_bytes()
                == (tmp_path / "out-TINY.CSV" / "checkpoint.json").read_bytes())

    # 2^59 fits an intp's byte count but not memory: 2^62 bytes a row.
    @pytest.mark.parametrize("index", [2 ** 63 - 1, 2 ** 64, 2 ** 59])
    def test_index_too_wide_for_a_dense_matrix(self, tmp_path, capsys, index):
        bad = tmp_path / "wide.txt"
        bad.write_text(f"1 1:1\n0 {index}:1\n")
        rc = cli.main(["train", "--dataset", str(bad),
                       "--out", str(tmp_path / "o"), "--epochs", "1"])
        assert rc == 2
        assert (f"parse error: line 2: feature index {index} is too large for "
                "a dense matrix") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_matrix_too_large_for_memory(self, tmp_path, capsys, monkeypatch):
        # Each one-line block fits; the whole file's matrix is refused.
        zeros = np.zeros

        def refuse_whole(shape, *args, **kwargs):
            if shape == (3, 2):
                raise MemoryError
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(data, "BLOCK_LINES", 1)
        monkeypatch.setattr(data.np, "zeros", refuse_whole)
        path = tmp_path / "d.txt"
        path.write_text("1 1:1\n0 2:1\n0 1:1\n")
        rc = cli.main(["train", "--dataset", str(path),
                       "--out", str(tmp_path / "o"), "--epochs", "1"])
        assert rc == 2
        assert ("parse error: the 3 x 2 dense matrix does not fit in memory"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, flags", [
        ("train", ["--epochs", "1"]), ("undersample", ["--keep-positives", "4"])])
    @pytest.mark.parametrize("labels", [[1.0], [1.0, 2.0, 3.0]], ids=["one", "three"])
    def test_labels_other_than_two(self, tmp_path, sparse_dataset, capsys,
                                   command, flags, labels):
        raw = parse_sparse(sparse_dataset)
        path = tmp_path / "labels.txt"
        write_sparse(path, raw.X, np.resize(labels, len(raw.labels)))
        out = tmp_path / "o"
        assert cli.main([command, "--dataset", str(path), "--out", str(out),
                         *flags]) == 2
        assert ("parse error: expected exactly two distinct labels"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("train", ["--epochs", "1"]),
        ("cv", ["--epochs", "1", "--repeats", "2", "--folds", "3"]),
        ("undersample", ["--keep-positives", "4"])])
    @pytest.mark.parametrize("name, text", [
        ("labels.txt", "1\n" * 12 + "2\n" * 6),
        ("labels.csv", "label\n" + "1\n" * 12 + "2\n" * 6),
    ], ids=["sparse", "csv"])
    def test_dataset_without_features(self, tmp_path, capsys, command, flags,
                                      name, text):
        # Both readers read a label-only file; no network can learn from it.
        path = tmp_path / name
        path.write_text(text)
        out = tmp_path / "o"
        assert cli.main([command, "--dataset", str(path), "--out", str(out),
                         *flags]) == 2
        assert (f"parse error: {path}: no feature values"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_invalid_config_value(self, tmp_path, sparse_dataset, capsys):
        # The starting threshold is a trainer constant, not a setting.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"tau_init": 0.01}))
        out = tmp_path / "o"
        rc = cli.main(["train", "--dataset", str(sparse_dataset),
                       "--config", str(config), "--out", str(out),
                       "--epochs", "1"])
        assert rc == 4
        assert ("invalid configuration: unknown config key(s): tau_init"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_cv_rejects_unsatisfiable_protocol(self, tmp_path, sparse_dataset,
                                               capsys):
        out = tmp_path / "cv"
        rc = cli.main(["cv", "--dataset", str(sparse_dataset), "--out", str(out),
                       "--epochs", "1", "--repeats", "1", "--folds", "5",
                       "--keep-positives", "3", "--seed", "0"])
        assert rc == 4
        assert "invalid configuration" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_cv_rejects_fewer_than_one_job(self, tmp_path, sparse_dataset,
                                           capsys, jobs):
        # Such a count ran serially before; now it exits before any write.
        out = tmp_path / "cv"
        rc = cli.main(["cv", "--dataset", str(sparse_dataset), "--out", str(out),
                       "--epochs", "1", "--repeats", "1", "--jobs", jobs])
        assert rc == 4
        assert f"need at least 1 job, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_cv_rejects_negative_seed(self, tmp_path, sparse_dataset, capsys,
                                      jobs):
        # numpy rejected it inside the first rotation, after the manifest.
        out = tmp_path / "cv"
        rc = cli.main(["cv", "--dataset", str(sparse_dataset), "--out", str(out),
                       "--epochs", "1", "--repeats", "1", "--loss", "bce",
                       "--jobs", jobs, "--seed", "-1"])
        assert rc == 4
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_undersample_rejects_negative_seed(self, tmp_path, sparse_dataset,
                                               capsys):
        # numpy rejected it as "expected non-negative integer".
        out = tmp_path / "us"
        rc = cli.main(["undersample", "--dataset", str(sparse_dataset),
                       "--out", str(out), "--keep-positives", "5",
                       "--seed", "-1"])
        assert rc == 4
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_cv_rejects_keeping_more_positives_than_exist(
            self, tmp_path, sparse_dataset, capsys):
        # The undersample of the first rotation raised this, after the manifest.
        out = tmp_path / "cv"
        rc = cli.main(["cv", "--dataset", str(sparse_dataset), "--out", str(out),
                       "--epochs", "1", "--repeats", "1", "--loss", "bce",
                       "--keep-positives", "50"])
        assert rc == 4
        assert "keep must be in [1, 10], got 50" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_rejects_fewer_than_three_folds(self, tmp_path, sparse_dataset,
                                            capsys, command):
        # Two folds leave no train fold beside the test and validation folds.
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main([command, "--dataset", str(sparse_dataset), "--out",
                           str(out), "--epochs", "1", "--folds", "2",
                           *(["--repeats", "3"] if command == "cv" else [])])
        assert rc == 4
        assert "invalid configuration: need at least 3 folds, got 2" in \
            capsys.readouterr().err
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

    @pytest.mark.parametrize("command, option, others", [
        ("train", "--dataset", []),
        ("cv", "--dataset", []),
        ("undersample", "--dataset", ["--keep-positives", "5"]),
        ("undersample", "--keep-positives", ["--dataset", "DATA"]),
        ("report", "--runs", []),
    ])
    def test_missing_required_option(self, tmp_path, sparse_dataset, capsys,
                                     command, option, others):
        # A bare KeyError printed "invalid configuration: 'dataset'", exit 4.
        out = tmp_path / "o"
        others = [str(sparse_dataset) if a == "DATA" else a for a in others]
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--out", str(out), *others])
        assert exc.value.code == 2
        assert f"{option} is required" in capsys.readouterr().err
        assert not out.exists()


class TestConfigFile:
    @pytest.mark.parametrize("content, rc, message", [
        ("[1, 2]", 2, "parse error"),
        ('{"eta": ', 2, "parse error"),
        ('{"n_h": "three"}', 4, "invalid configuration: n_h"),
        ('{"loss": "gmn", "astra": true}', 4, "invalid configuration: astra"),
        ('{"eta_b_mni": 0.1}', 4, "unknown config key(s): eta_b_mni"),
        ('{"out": 5}', 4, "invalid configuration: out must be a path string"),
        ('{"dataset": ["x"]}', 4,
         "invalid configuration: dataset must be a path string"),
        # Thresholds once outside the settable range, and any inside it, are
        # refused alike: the starting threshold is a trainer constant.
        ('{"tau_init": 0.5}', 4, "unknown config key(s): tau_init"),
        (json.dumps({"tau_init": astra_threshold(B_MAX)}), 4,
         "unknown config key(s): tau_init"),
    ], ids=["not-an-object", "malformed", "bad-type", "bad-choice",
            "unknown-key", "out-not-a-string", "dataset-not-a-string",
            "tau-init-at-half", "tau-init-at-b-max"])
    def test_rejected(self, tmp_path, sparse_dataset, capsys, content, rc,
                      message):
        config = tmp_path / "cfg.json"
        config.write_text(content)
        out = tmp_path / "o"
        # A flag would override the config value of the same name.
        flags = [arg for flag, value in (("dataset", sparse_dataset), ("out", out))
                 if f'"{flag}"' not in content for arg in (f"--{flag}", str(value))]
        assert cli.main(["train", "--config", str(config), "--epochs", "1",
                         *flags]) == rc
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "cv"])
    @pytest.mark.parametrize("content, message", [
        ('{"epochs": -3}', "epochs must be"),
        ('{"eta": -0.5}', "eta must be"),
        ('{"eta": 0}', "eta must be"),
        ('{"eta": NaN}', "eta must be"),
        ('{"eta": Infinity}', "eta must be"),
        ('{"n_h": 0}', "n_h must be"),
        # The slope schedule is made of trainer constants, not settings.
        ('{"eta_b_max": Infinity}', "unknown config key(s): eta_b_max"),
        ('{"k_mult": NaN}', "unknown config key(s): k_mult"),
        ('{"k_mult": Infinity}', "unknown config key(s): k_mult"),
    ], ids=["negative-epochs", "negative-eta", "zero-eta", "nan-eta",
            "infinite-eta", "zero-n-h", "infinite-eta-b-max", "nan-k-mult",
            "infinite-k-mult"])
    def test_bad_train_setting_rejected(self, tmp_path, sparse_dataset, capsys,
                                        command, content, message):
        # Rejected before the manifest is written, in both commands.
        config = tmp_path / "cfg.json"
        config.write_text(content)
        out = tmp_path / "o"
        quick = ["--repeats", "1"] if command == "cv" else []
        if "epochs" not in content:
            quick += ["--epochs", "1"]
        assert cli.main([command, "--config", str(config), "--dataset",
                         str(sparse_dataset), "--out", str(out), *quick]) == 4
        assert f"invalid configuration: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_slope_schedule_keys_refused(self, tmp_path, sparse_dataset, capsys,
                                         command):
        # The slope schedule and the starting threshold are trainer
        # constants; a manifest written while they were settings names them.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"eta_b_min": 0.01, "eta_b_max": 0.5,
                                      "k_mult": 1.1, "k_dec": 0.99,
                                      "tau_init": 0.25}))
        out = tmp_path / "o"
        assert cli.main([command, "--config", str(config), "--dataset",
                         str(sparse_dataset), "--out", str(out),
                         "--epochs", "1"]) == 4
        assert ("unknown config key(s): eta_b_max, eta_b_min, k_dec, k_mult, "
                "tau_init" in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--epochs", "-3"), ("--n-h", "0")])
    def test_bad_train_flag_rejected(self, tmp_path, sparse_dataset, capsys,
                                     flag, value):
        out = tmp_path / "o"
        assert cli.main(["train", "--dataset", str(sparse_dataset), "--out",
                         str(out), flag, value]) == 4
        assert "invalid configuration" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file(self, tmp_path, sparse_dataset, capsys):
        out = tmp_path / "o"
        assert cli.main(["train", "--dataset", str(sparse_dataset), "--config",
                         str(tmp_path / "nope.json"), "--out", str(out)]) == 3
        assert "i/o error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, content", [
        ("cv", '{"folds": [5]}'),
        ("cv", '{"repeats": "ten"}'),
        ("cv", '{"keep_positives": "six"}'),
        ("cv", '{"jobs": {"n": 2}}'),
        ("train", '{"folds": [5]}'),
        ("undersample", '{"keep_positives": [6]}'),
        ("undersample", '{"seed": "zero"}'),
        # Cast from their text, as flags are: none is truncated.
        ("cv", '{"epochs": 2.7}'),
        ("train", '{"n_h": 2.9}'),
        ("undersample", '{"seed": -0.5}'),
        ("cv", '{"epochs": true}'),
        ("train", '{"epochs": 3.0}'),
    ])
    def test_integer_option_rejected(self, tmp_path, sparse_dataset, capsys,
                                     command, content):
        config = tmp_path / "cfg.json"
        config.write_text(content)
        out = tmp_path / "o"
        key = next(iter(json.loads(content)))
        assert cli.main([command, "--dataset", str(sparse_dataset), "--config",
                         str(config), "--out", str(out)]) == 4
        assert f"invalid configuration: {key} must be int" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, content", [
        ("train", '{"eta": true}'),
        ("cv", '{"eta": false}'),
    ])
    def test_float_option_rejected(self, tmp_path, sparse_dataset, capsys,
                                   command, content):
        config = tmp_path / "cfg.json"
        config.write_text(content)
        out = tmp_path / "o"
        key = next(iter(json.loads(content)))
        assert cli.main([command, "--dataset", str(sparse_dataset), "--config",
                         str(config), "--out", str(out)]) == 4
        assert f"invalid configuration: {key} must be float" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_options_cast(self, tmp_path, sparse_dataset):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"keep_positives": "6", "folds": "5",
                                      "repeats": "1", "jobs": "1",
                                      "seed": "4", "epochs": 3}))
        from_config, from_flags = tmp_path / "a", tmp_path / "b"
        assert cli.main(["cv", "--dataset", str(sparse_dataset), "--loss", "bce",
                         "--config", str(config), "--out", str(from_config)]) == 0
        assert cli.main(["cv", "--dataset", str(sparse_dataset), "--loss", "bce",
                         "--keep-positives", "6", "--folds", "5", "--repeats",
                         "1", "--jobs", "1", "--seed", "4", "--epochs", "3",
                         "--out", str(from_flags)]) == 0
        for fname in ("runs.csv", "report.json"):
            assert ((from_config / fname).read_bytes()
                    == (from_flags / fname).read_bytes())
        manifest = json.loads((from_config / "manifest.json").read_text())
        assert [manifest[k] for k in ("keep_positives", "folds", "repeats",
                                      "jobs", "seed")] == [6, 5, 1, 1, 4]

    @pytest.mark.parametrize("command, content, flags", [
        ("undersample", {"seed": None}, ["--keep-positives", "4"]),
        ("train", {"folds": None, "seed": None}, ["--epochs", "2"]),
        ("cv", {"folds": None, "repeats": None, "jobs": None},
         ["--loss", "bce", "--epochs", "1"]),
    ])
    def test_null_option_takes_default(self, tmp_path, sparse_dataset, command,
                                       content, flags):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(content))
        out = tmp_path / "o"
        assert cli.main([command, "--dataset", str(sparse_dataset), "--config",
                         str(config), "--out", str(out), *flags]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert all(manifest.get(key) in (None, 0) for key in content)

    def test_values_cast_to_field_types(self, tmp_path, sparse_dataset):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n_h": "3", "eta": "0.01", "epochs": 4}))
        out = tmp_path / "o"
        assert cli.main(["train", "--dataset", str(sparse_dataset), "--config",
                         str(config), "--out", str(out)]) == 0
        assert json.loads((out / "checkpoint.json").read_text())["n_h"] == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["n_h"], manifest["eta"]) == (3, 0.01)


# The interface of each command, written out: its options besides --config,
# each with a value it takes (a path option takes the one `_base` gives it)
# and one that does not cast.
COMMAND_OPTIONS = {
    "train": ("out", "seed", "dataset", "loss", "astra", "epochs", "folds",
              "n_h"),
    "cv": ("out", "seed", "dataset", "loss", "astra", "epochs", "repeats",
           "folds", "keep_positives", "jobs"),
    "undersample": ("out", "seed", "dataset", "keep_positives"),
    "report": ("out", "runs"),
}
PATHS = ("out", "dataset", "runs")
GOOD = {"seed": 3, "loss": "gmn", "astra": "on", "epochs": 2, "folds": 4,
        "n_h": 2, "repeats": 2, "keep_positives": 6, "jobs": 1}
BAD = {**dict.fromkeys(GOOD, "x"), "loss": "mse", "astra": "yes",
       **dict.fromkeys(PATHS, 5)}


def _base(command, tmp_path, sparse_dataset) -> dict:
    """Options that make `command` run quickly, paths included."""
    if command == "report":
        runs = tmp_path / "runs.csv"
        experiment.write_run_csv(
            [experiment.RunResult(m, 0, f, 1, 0, 0, 1, g_mean=1.0 - f / 10,
                                  mcc=0.5) for m in ("bce", "gmn")
             for f in range(5)], runs)
        return {"out": str(tmp_path / "o"), "runs": str(runs)}
    base = {"out": str(tmp_path / "o"), "dataset": str(sparse_dataset)}
    return base | {"train": {"epochs": 1},
                   "cv": {"epochs": 1, "repeats": 1, "loss": "bce"},
                   "undersample": {"keep_positives": 4}}[command]


def _argv(command, options: dict) -> list:
    return [command, *(arg for key, value in options.items()
                       for arg in ("--" + key.replace("_", "-"), str(value)))]


class TestOptionTable:
    @pytest.mark.parametrize("command, key", [
        (command, key) for command, keys in COMMAND_OPTIONS.items()
        for key in keys])
    def test_flag_and_config_key_agree(self, tmp_path, sparse_dataset, capsys,
                                       command, key):
        options = _base(command, tmp_path, sparse_dataset)
        options[key] = options.get(key) if key in PATHS else GOOD[key]
        config = tmp_path / "cfg.json"
        rest = {k: v for k, v in options.items() if k != key}
        config.write_text(json.dumps({key: options[key]}))
        by_flag = _argv(command, options)
        by_config = _argv(command, rest) + ["--config", str(config)]
        parser = cli.build_parser()
        resolved = [cli._resolve(parser.parse_args(argv))
                    for argv in (by_flag, by_config)]
        assert resolved[0] == resolved[1]
        assert resolved[0][key] == options[key]
        out = Path(options["out"])
        written = []
        for argv in (by_flag, by_config):
            assert cli.main(argv) == 0
            name = "report.json" if command == "report" else "manifest.json"
            written.append((out / name).read_bytes())
            shutil.rmtree(out)
        assert written[0] == written[1]

        # A null value is as if the key were absent.
        config.write_text(json.dumps({key: None}))
        assert (cli._resolve(parser.parse_args(by_config))
                == cli._resolve(parser.parse_args(_argv(command, rest))))

        # A value that does not cast: exit 2 as a flag, 4 from the config.
        if key not in PATHS:    # every string is a path
            with pytest.raises(SystemExit) as exc:
                cli.main(_argv(command, {**rest, key: BAD[key]}))
            assert exc.value.code == 2
        config.write_text(json.dumps({key: BAD[key]}))
        capsys.readouterr()
        assert cli.main(by_config) == 4
        assert f"invalid configuration: {key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMAND_OPTIONS)
    def test_help_lists_the_command_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        flags = {"--" + key.replace("_", "-") for key in COMMAND_OPTIONS[command]}
        assert set(re.findall(r"--[a-z-]+", text)) == flags | {"--help",
                                                              "--config"}
        shown = {"config": "--config CONFIG +JSON config file; flags override it",
                 "out": "--out OUT +output directory",
                 "loss": "--loss {bce,gmn}", "astra": "--astra {on,off}",
                 "runs": "--runs RUNS +per-run results CSV"}
        for key, pattern in shown.items():
            assert bool(re.search(pattern, text)) == (
                key in ("config", *COMMAND_OPTIONS[command])), key

    def test_readme_table_matches_train_config(self):
        """README's `| key | default | meaning |` table lists every
        TrainConfig field at its default (the loss as its loss/astra
        options), and only TrainConfig fields and option-table keys."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("| key | default | meaning |\n")[1].split("\n\n")[0]
        rows = [line.split("|")[1:3] for line in table.splitlines()[1:]]
        shown = {}
        for keys, defaults in rows:
            shown.update(zip(re.findall(r"`(\w+)`", keys),
                             [d.strip(" `") for d in defaults.split(",")],
                             strict=True))
        loss = TrainConfig.loss
        want = {f.name: json.dumps(f.default) for f in fields(TrainConfig)
                if f.name != "loss"}
        want.update(loss=loss.variant, astra="on" if loss.use_astra else "off")
        assert {key: shown.get(key) for key in want} == want
        assert set(shown) <= set(want) | set(cli.TYPES)

    def test_loss_choices_are_the_loss_variants(self):
        assert cli.CHOICES["loss"] == ("bce", "gmn")
        assert set(cli.CHOICES["loss"]) == {kind.variant for kind in ALL_KINDS}


class TestDivergence:
    """A run whose step overflows stops as diverged, its last good snapshot
    kept and scored."""

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.name)
    def test_train_keeps_last_good_snapshot(self, tmp_path, sparse_dataset,
                                            kind):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"eta": 1e200}))
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # the overflow
            assert cli.main(["train", "--dataset", str(sparse_dataset),
                             "--config", str(config), "--out", str(out),
                             "--loss", kind.variant, "--astra",
                             "on" if kind.use_astra else "off",
                             "--epochs", "5"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["diverged"] is True
        assert summary["best_epoch"] == 0
        assert summary["test_g_mean"] is not None
        checkpoint = json.loads((out / "checkpoint.json").read_text())
        for name in ("w1", "b1", "w2", "b2"):
            assert np.isfinite(checkpoint[name]).all(), name
        assert len((out / "epochs.csv").read_text().splitlines()) == 1

    def test_cv_scores_diverged_runs(self, tmp_path, sparse_dataset):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"eta": 1e200}))
        out = tmp_path / "cv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert cli.main(["cv", "--dataset", str(sparse_dataset), "--config",
                             str(config), "--out", str(out), "--loss", "gmn",
                             "--astra", "on", "--epochs", "3", "--repeats",
                             "1", "--folds", "5"]) == 0
        runs = read_records(experiment.RunResult, out / "runs.csv")
        assert len(runs) == 5
        for run in runs:
            assert run.diverged is True and run.error is None
            assert run.best_epoch == 0
            assert None not in (run.g_mean, run.mcc)


class TestNonFiniteFeatures:
    @pytest.mark.parametrize("command, flags", [
        ("train", ["--epochs", "1"]),
        ("cv", ["--epochs", "1", "--repeats", "1", "--loss", "bce"]),
        ("undersample", ["--keep-positives", "4"]),
    ])
    @pytest.mark.parametrize("suffix", [".txt", ".csv"])
    @pytest.mark.parametrize("what, value", [
        pytest.param(what, value, id=prefix + str(value))
        for what, prefix in (("feature value", ""), ("label", "label-"))
        for value in (np.nan, np.inf, -np.inf)])
    def test_rejected_at_load(self, tmp_path, sparse_dataset, capsys, command,
                              flags, suffix, what, value):
        raw = parse_sparse(sparse_dataset)
        X, labels = raw.X.copy(), raw.labels.copy()
        if what == "label":
            # One nan label was a third label; a whole class of them, or of
            # -inf, trained as negatives.
            labels[6] = value
        else:
            X[6, 1] = value    # a negative: no validation forward reads it
        path = tmp_path / f"bad{suffix}"
        if suffix == ".csv":
            rows = np.column_stack([labels, X])
            path.write_text("label,a,b,c\n\n" + "".join(
                ",".join(map(repr, map(float, row))) + "\n" for row in rows))
        else:
            write_sparse(path, X, labels)
        out = tmp_path / "o"
        assert cli.main([command, "--dataset", str(path), "--out", str(out),
                         *flags]) == 2
        assert (f"parse error: {path}: data row 7 holds a non-finite {what}"
                in capsys.readouterr().err)
        assert not out.exists()


class TestDivergenceUnderWarningsAsErrors:
    """numpy's overflow warning never reaches a diverging run, so under
    warnings-as-errors its runs still come back diverged, not failed."""

    def _main(self, tmp_path, sparse_dataset, command, *flags):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"eta": 1e200}))
        out = tmp_path / command
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main([command, "--dataset", str(sparse_dataset), "--config",
                           str(config), "--out", str(out), "--epochs", "3", *flags])
        return rc, out

    def test_train(self, tmp_path, sparse_dataset):
        rc, out = self._main(tmp_path, sparse_dataset, "train")
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["diverged"], summary["best_epoch"]) == (True, 0)

    def test_cv(self, tmp_path, sparse_dataset):
        rc, out = self._main(tmp_path, sparse_dataset, "cv", "--repeats", "1")
        assert rc == 0
        runs = read_records(experiment.RunResult, out / "runs.csv")
        assert len(runs) == 4 * 5
        assert {(run.diverged, run.error) for run in runs} == {(True, None)}


class TestCommandReadsItsOwnOptions:
    """A command's config file and flags set only what that command reads."""

    def test_undersample_rejects_training_settings(self, tmp_path,
                                                   sparse_dataset, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"epochs": 3, "eta": 0.5}))
        out = tmp_path / "o"
        assert cli.main(["undersample", "--dataset", str(sparse_dataset),
                         "--keep-positives", "4", "--config", str(config),
                         "--out", str(out)]) == 4
        assert ("invalid configuration: unknown config key(s): epochs, eta"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_report_takes_no_seed(self, tmp_path, capsys):
        runs = tmp_path / "runs.csv"
        experiment.write_run_csv([experiment.RunResult(
            m, 0, f, 1, 0, 0, 1, g_mean=1.0, mcc=0.5)
            for m in ("bce", "gmn") for f in range(5)], runs)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            cli.main(["report", "--runs", str(runs), "--out", str(out),
                      "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": 1}))
        assert cli.main(["report", "--runs", str(runs), "--out", str(out),
                         "--config", str(config)]) == 4
        assert "unknown config key(s): seed" in capsys.readouterr().err
        assert not out.exists()


# Runs astra.cli.main with the test-only packages made unimportable.
NUMPY_ONLY = """
import sys
for name in ("scipy", "hypothesis", "pytest"):
    sys.modules[name] = None
from astra.cli import main
data, out = sys.argv[1:]
assert main(["train", "--dataset", data, "--out", out + "/train",
             "--epochs", "2"]) == 0
assert main(["cv", "--dataset", data, "--out", out + "/cv", "--jobs", "2",
             "--repeats", "1", "--epochs", "2"]) == 0
"""


def test_numpy_is_the_only_runtime_dependency(tmp_path, sparse_dataset):
    done = subprocess.run([sys.executable, "-c", NUMPY_ONLY, str(sparse_dataset),
                           str(tmp_path)], env=src_env(), capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "train" / "summary.json").exists()
    assert len((tmp_path / "cv" / "runs.csv").read_text().splitlines()) == 1 + 20
