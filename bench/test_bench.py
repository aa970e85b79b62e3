"""Tests of the benchmark's own parsing, checks and span arithmetic.

    python -m pytest bench/test_bench.py -q
"""

import json

import pytest

import checks
import spans
from spans import Span
from workloads import WORKLOADS, write_sparse


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ---------------------------------------------------------------------------
# Span arithmetic


def test_union_length_merges_overlaps_and_clips():
    assert spans.union_length([(1, 3), (2, 4), (5, 6)], 0, 10) == 4
    assert spans.union_length([(-1, 2), (9, 12)], 0, 10) == 3
    assert spans.union_length([], 0, 10) == 0
    assert spans.union_length([(3, 3), (4, 2)], 0, 10) == 0


def test_self_time_subtracts_covered_child_time():
    s = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("d", 3.5, 6.0, 0),     # overlaps b: the union counts once
        Span("e", 20.0, 21.0, -1),
    ]
    assert spans.self_times(s) == pytest.approx([10 - 5, 3 - 1, 1, 2.5, 1])


def test_tracer_records_parents_tags_and_rows():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    class Set:
        def __init__(self, rows):
            self.X = [[0.0]] * rows

    def forward(model, X):
        clock.now += 1.0
        return len(X)

    fwd = tracer.wrap("network.forward", forward)

    def train(cfg, train_set, val_set):
        fwd(None, train_set.X)
        clock.now += 0.5
        fwd(None, val_set.X)
        return "done"

    assert tracer.wrap("trainer.train", train)(None, Set(3), Set(2)) == "done"
    assert [(s.name, s.parent, s.tag, s.rows) for s in tracer.spans] == [
        ("trainer.train", -1, "", 0),
        ("network.forward", 0, "train", 3),
        ("network.forward", 0, "val", 2),
    ]
    assert spans.self_times(tracer.spans) == pytest.approx([0.5, 1.0, 1.0])


def test_tracer_closes_span_when_the_call_raises():
    tracer = spans.Tracer(FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("f", boom)()
    assert tracer.spans == [Span("f", 0.0, 0.0, -1)]
    assert tracer.wrap("g", lambda: 1)() == 1
    assert tracer.spans[1].parent == -1


def _two_runs():
    """Two train runs of 3 epochs; each epoch: train forward + approx_cm,
    then a val forward.  Run 1's epochs start 1 s apart, run 2's 2 s."""
    out = []

    def add(name, start, end, parent, tag="", rows=0):
        out.append(Span(name, start, end, parent, tag, rows))
        return len(out) - 1

    for base, step in ((0.0, 1.0), (100.0, 2.0)):
        run = add("trainer.train", base, base + 3 * step, -1)
        for k in range(3):
            t = base + k * step
            fwd = add("network.forward", t, t + 0.25, run, "train", 6)
            add("activation.astra_forward", t + 0.1, t + 0.2, fwd)
            add("metrics.approx_cm", t + 0.3, t + 0.4, run)
            add("network.forward", t + 0.5, t + 0.6, run, "val", 2)
    add("activation.astra_forward", 200.0, 201.0, -1)  # outside any run
    add("experiment.wilcoxon_signed_rank", 202.0, 202.5, -1)
    return out


def test_run_index_and_epoch_intervals():
    s = _two_runs()
    runs = spans.run_index(s)
    second = next(i for i, sp in enumerate(s)
                  if sp.name == "trainer.train" and sp.start == 100.0)
    assert runs[:2] == [0, 0]
    assert runs[second:second + 3] == [second] * 3
    assert runs[-2:] == [-1, -1]
    assert sorted(spans.epoch_intervals(s)) == [1.0, 1.0, 2.0, 2.0]


def test_layer_metrics_counts_and_per_epoch_times():
    m = spans.layer_metrics(_two_runs(), pooled_wall_s=4.5, jobs=2)
    assert m["activation.calls_per_epoch"] == (1.0, "count")
    assert m["metrics.approx_cm.calls_per_epoch"] == (1.0, "count")
    assert m["network.forward.rows_per_epoch"] == (8.0, "count")
    assert m["activation.astra_forward.ms_per_epoch"][0] == pytest.approx(100.0)
    assert m["network.forward.train_ms_per_epoch"][0] == pytest.approx(250.0)
    assert m["network.forward.self_ms_per_epoch"][0] == pytest.approx(250.0)
    assert m["trainer.epoch_ms.p50"][0] == pytest.approx(1500.0)
    assert m["trainer.run_s.p50"][0] == pytest.approx(4.5)
    assert m["experiment.wilcoxon_signed_rank.calls"] == (1, "count")
    # busy 3 s + 6 s over 2 workers x 4.5 s
    assert m["experiment.pool_efficiency"][0] == pytest.approx(1.0)
    assert spans.layer_metrics(_two_runs())["experiment.pool_efficiency"][0] == 0.0


def test_percentiles():
    assert spans.percentile([3, 1, 2], 50) == 2
    assert spans.percentile([1, 2, 3, 4], 75) == pytest.approx(3.25)
    xs = list(range(1000))
    assert spans.tail_percentile(xs)[0] == 99.0
    assert spans.tail_percentile(xs[:999])[0] == 95.0
    assert spans.tail_percentile(xs[:40])[0] == 75.0
    assert spans.tail_percentile(xs[:20])[0] == 50.0
    assert spans.tail_percentile(xs[:19]) is None


# ---------------------------------------------------------------------------
# Output parsing and checks

HEADER = "method,repeat,fold,tn,fp,fn,tp,g_mean,mcc,best_epoch,final_b\n"


def _write_cv(out, rows, pairs=6):
    out.mkdir()
    (out / "runs.csv").write_text(HEADER + "".join(rows))
    names = [f"m{i}|m{j}" for i in range(4) for j in range(i + 1, 4)][:pairs]
    report = {"p_values": {m: {n: 0.5 for n in names} for m in ("g_mean", "mcc")}}
    (out / "report.json").write_text(json.dumps(report))


def _row(method, fold, cm=(90, 5, 1, 4), gm=0.8):
    return f"{method},0,{fold},{cm[0]},{cm[1]},{cm[2]},{cm[3]},{gm!r},0.4,7,1.5\n"


def test_check_cv_accepts_good_output(tmp_path):
    out = tmp_path / "cv"
    _write_cv(out, [_row("gmn-astra", 0, gm=0.8), _row("gmn-astra", 1, gm=0.6),
                    _row("bce", 0, gm=0.1)])
    o = checks.check_cv(out, "", 0, expected_runs=3, epochs=10,
                        quality_method="gmn-astra")
    assert o.failed == 0 and o.failed_runs == 0
    assert o.attempted == 3 + len(o.checks)
    assert o.epochs == 30
    assert o.test_gmean == pytest.approx(0.7)


def test_check_cv_counts_zero_cm_rows_and_bad_reports(tmp_path):
    out = tmp_path / "cv"
    _write_cv(out, [_row("gmn", 0), _row("gmn", 1, cm=(0, 0, 0, 0), gm=0.0),
                    _row("gmn", 2, gm=float("nan"))], pairs=5)
    o = checks.check_cv(out, "", 0, expected_runs=3, epochs=10, quality_method="gmn")
    assert o.failed_runs == 1
    assert not o.checks["finite_scores"] and not o.checks["report_pairs"]
    assert o.epochs == 20


def test_check_cv_reads_the_stderr_failure_line_and_missing_output(tmp_path):
    assert checks.failed_runs_reported("x\n2 run(s) failed; see report\n") == 2
    assert checks.failed_runs_reported("all good\n") == 0
    out = tmp_path / "cv"
    _write_cv(out, [_row("bce", 0), _row("bce", 1)])
    o = checks.check_cv(out, "2 run(s) failed; see report\n", 0, 2, 10, "bce")
    assert o.failed_runs == 2
    o = checks.check_cv(tmp_path / "missing", "", 1, 4, 10, "bce")
    assert o.failed_runs == 4 and o.failed == 4 + len(o.checks)


def _write_train(out, epochs=3, gm=0.9, diverged=False, w=1.0):
    out.mkdir()
    (out / "epochs.csv").write_text("epoch,loss\n" + "".join(f"{i},0.1\n" for i in range(epochs)))
    (out / "summary.json").write_text(json.dumps({
        "diverged": diverged, "test_cm": {"tn": 9, "fp": 1, "fn": 0, "tp": 2},
        "test_g_mean": gm, "test_mcc": 0.5}))
    (out / "checkpoint.json").write_text(json.dumps(
        {"w1": [[w, 2.0]], "b1": [0.0], "w2": [1.0], "b2": 0.5}))


def test_check_train(tmp_path):
    _write_train(tmp_path / "ok")
    o = checks.check_train(tmp_path / "ok", "", 0, epochs=3)
    assert (o.failed, o.epochs, o.test_gmean) == (0, 3, 0.9)
    _write_train(tmp_path / "short", epochs=2, gm=None, diverged=True)
    o = checks.check_train(tmp_path / "short", "", 0, epochs=3)
    assert o.failed_runs == 1
    assert not o.checks["epoch_rows"] and not o.checks["finite_scores"]
    _write_train(tmp_path / "inf", w=float("inf"))
    assert not checks.check_train(tmp_path / "inf", "", 0, 3).checks["finite_checkpoint"]


def test_fingerprint_covers_names_and_bytes(tmp_path):
    (tmp_path / "a").write_bytes(b"12")
    (tmp_path / "b").write_bytes(b"3")
    fp = checks.fingerprint(tmp_path, ["a", "b"])
    assert fp == checks.fingerprint(tmp_path, ["a", "b"])
    assert fp != checks.fingerprint(tmp_path, ["b", "a"])
    (tmp_path / "b").write_bytes(b"4")
    assert fp != checks.fingerprint(tmp_path, ["a", "b"])


# ---------------------------------------------------------------------------
# Workload inputs


def _parse(path):
    labels, rows = [], []
    for line in path.read_text().splitlines():
        label, *tokens = line.split()
        labels.append(int(label))
        rows.append({int(i): float(v) for i, v in (t.split(":") for t in tokens)})
    return labels, rows


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_are_seeded(tmp_path, name):
    wl = WORKLOADS[name]
    X, labels = wl.generate(5)
    again, _ = wl.generate(5)
    other, _ = wl.generate(6)
    assert (X == again).all() and not (X == other).all()
    counts = sorted((labels == v).sum() for v in set(labels.tolist()))
    assert counts == ([34, 20000] if name == "skin-cv" else [120, 11880])


def test_write_sparse_round_trips(tmp_path):
    import numpy as np

    X = np.array([[0.1, 0.0, -2.5e-17], [0.0, 0.0, 0.0]])
    write_sparse(tmp_path / "d.txt", X, np.array([1, 2]))
    labels, rows = _parse(tmp_path / "d.txt")
    assert labels == [1, 2]
    assert rows == [{1: 0.1, 3: -2.5e-17}, {}]
