"""Spans recorded around calls into astra's modules, and the per-layer
metrics derived from them.

Run as a script, this is one pass of a workload in a fresh process, with
`jobs=1` so every run happens in this process:

    PYTHONPATH=src python bench/spans.py --mode trace --result r.json -- \
        cv --dataset d.txt --out out/ --epochs 100 --jobs 1

`--mode plain` only times the command, `trace` wraps the public functions
under the names their callers bind and records a span per call, and `memory`
records the peak traced allocation of each `backward_and_step` call.  The
result JSON is written once, at the end.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from collections import defaultdict
from typing import NamedTuple

# (module, attribute, span name): the name a caller binds, so that patching
# it intercepts exactly that caller's calls.  Mlp.copy is patched on the class.
TRACE_POINTS = (
    ("astra.cli", "parse_sparse", "data.parse_sparse"),
    ("astra.cli", "orient_labels", "data.orient_labels"),
    ("astra.cli", "stratified_folds", "data.stratified_folds"),
    ("astra.cli", "fold_split", "data.fold_split"),
    ("astra.cli", "standardize", "data.standardize"),
    ("astra.experiment", "stratified_folds", "data.stratified_folds"),
    ("astra.experiment", "fold_split", "data.fold_split"),
    ("astra.experiment", "standardize", "data.standardize"),
    ("astra.cli", "train", "trainer.train"),
    ("astra.experiment", "train", "trainer.train"),
    ("astra.trainer", "forward", "network.forward"),
    ("astra.trainer", "approx_cm", "metrics.approx_cm"),
    ("astra.losses", "approx_cm", "metrics.approx_cm"),
    ("astra.trainer", "backward_and_step", "network.backward_and_step"),
    ("astra.network", "loss_and_grad", "losses.loss_and_grad"),
    ("astra.network", "astra_forward", "activation.astra_forward"),
    ("astra.network", "astra_backward", "activation.astra_backward"),
    ("astra.network", "z_transform", "activation.z_transform"),
    ("astra.network", "z_transform_backward", "activation.z_transform_backward"),
    ("astra.network.Mlp", "copy", "network.copy"),
    ("astra.experiment", "determine_winners", "experiment.determine_winners"),
    ("astra.experiment", "wilcoxon_signed_rank", "experiment.wilcoxon_signed_rank"),
    ("astra.experiment", "write_run_csv", "experiment.write_run_csv"),
    ("astra.cli", "write_epoch_csv", "trainer.write_epoch_csv"),
    ("astra.cli", "save_checkpoint", "network.save_checkpoint"),
)

ACTIVATION = ("astra_forward", "astra_backward", "z_transform", "z_transform_backward")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int          # index into the span list, -1 at the top
    tag: str = ""        # "train" / "val" on network.forward
    rows: int = 0        # rows of X on network.forward


class Tracer:
    """Keeps spans in memory; a span's parent is the innermost open span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.train_X = None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(None)
            self._open.append(idx)
            tag, rows = self._tag(name, args)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._open.pop()
                self.spans[idx] = Span(name, start, end, parent, tag, rows)
        return traced

    def _tag(self, name, args) -> tuple[str, int]:
        if name == "trainer.train":
            self.train_X = args[1].X
        elif name == "network.forward":
            X = args[1]
            return ("train" if X is self.train_X else "val"), len(X)
        return "", 0


def resolve(path: str):
    module, _, attr = path.rpartition(".")
    obj = sys.modules.get(path)
    if obj is None:
        obj = getattr(sys.modules[module], attr)
    return obj


def install(tracer: Tracer) -> None:
    import astra.cli  # noqa: F401  (loads every module a trace point names)
    for owner, attr, name in TRACE_POINTS:
        target = resolve(owner)
        setattr(target, attr, tracer.wrap(name, getattr(target, attr)))


def install_peak_memory(peaks: list) -> None:
    """Append the peak bytes allocated inside each backward_and_step call."""
    import tracemalloc

    import astra.trainer

    step = astra.trainer.backward_and_step

    @functools.wraps(step)
    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return step(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    astra.trainer.backward_and_step = measured


# ---------------------------------------------------------------------------
# Deriving metrics


def percentile(values, q: float) -> float:
    """q-th percentile, linear between order statistics."""
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values, min_beyond: int = 10,
                    ladder=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)):
    """(q, value) for the highest q in the ladder with at least `min_beyond`
    samples beyond it, or None when there are too few samples."""
    n = len(values)
    for q in ladder:
        if n * (100.0 - q) / 100.0 >= min_beyond - 1e-9:
            return q, percentile(values, q)
    return None


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - union_length(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def run_index(spans) -> list[int]:
    """Index of each span's enclosing trainer.train span, or -1.  A parent is
    always recorded before its children, so one forward pass suffices."""
    out = []
    for i, s in enumerate(spans):
        if s.name == "trainer.train":
            out.append(i)
        else:
            out.append(out[s.parent] if s.parent >= 0 else -1)
    return out


def epoch_intervals(spans, runs=None) -> list[float]:
    """Seconds between consecutive train-set forward calls of the same run."""
    runs = run_index(spans) if runs is None else runs
    starts = defaultdict(list)
    for i, s in enumerate(spans):
        if s.name == "network.forward" and s.tag == "train" and runs[i] >= 0:
            starts[runs[i]].append(s.start)
    return [b - a for seq in starts.values() for a, b in zip(seq, seq[1:])]


def layer_metrics(spans, pooled_wall_s: float | None = None, jobs: int = 1) -> dict:
    """Per-layer metrics from one traced pass, as {name: (value, unit)}.

    Per-epoch figures count only calls made inside a `train` run; an epoch is
    one train-set forward.  `pooled_wall_s` is the untraced wall time of the
    same command run with `jobs` workers; without it there is no pool and
    its efficiency reads 0.
    """
    runs = run_index(spans)
    selfs = self_times(spans)
    in_run = [r >= 0 for r in runs]
    epochs = max(1, sum(1 for s, ok in zip(spans, in_run)
                        if ok and s.name == "network.forward" and s.tag == "train"))
    run_s = [s.end - s.start for s in spans if s.name == "trainer.train"]
    n_runs = max(1, len(run_s))
    ms_per_epoch = 1000.0 / epochs

    def total(name, tag=None, own=False, run_only=True):
        return sum(selfs[i] if own else s.end - s.start
                   for i, s in enumerate(spans)
                   if s.name == name and (tag is None or s.tag == tag)
                   and (in_run[i] or not run_only))

    def calls(name, run_only=True):
        return sum(1 for i, s in enumerate(spans)
                   if s.name == name and (in_run[i] or not run_only))

    m = {}
    for fn in ACTIVATION:
        m[f"activation.{fn}.ms_per_epoch"] = (total(f"activation.{fn}") * ms_per_epoch, "ms")
    m["activation.calls_per_epoch"] = (
        sum(calls(f"activation.{fn}") for fn in ACTIVATION) / epochs, "count")
    m["metrics.approx_cm.calls_per_epoch"] = (calls("metrics.approx_cm") / epochs, "count")
    m["metrics.approx_cm.ms_per_epoch"] = (total("metrics.approx_cm") * ms_per_epoch, "ms")
    m["losses.loss_and_grad.self_ms_per_epoch"] = (
        total("losses.loss_and_grad", own=True) * ms_per_epoch, "ms")
    for tag in ("train", "val"):
        m[f"network.forward.{tag}_ms_per_epoch"] = (
            total("network.forward", tag) * ms_per_epoch, "ms")
    m["network.forward.self_ms_per_epoch"] = (
        total("network.forward", own=True) * ms_per_epoch, "ms")
    rows = sum(s.rows for s, ok in zip(spans, in_run) if ok and s.name == "network.forward")
    m["network.forward.rows_per_epoch"] = (rows / epochs, "count")
    m["network.backward_and_step.self_ms_per_epoch"] = (
        total("network.backward_and_step", own=True) * ms_per_epoch, "ms")
    m["network.copy.calls_per_run"] = (calls("network.copy") / n_runs, "count")
    m["network.copy.ms_per_run"] = (total("network.copy") * 1000.0 / n_runs, "ms")
    m["trainer.train.self_ms_per_epoch"] = (
        total("trainer.train", own=True) * ms_per_epoch, "ms")
    m["trainer.run_s.p50"] = (percentile(run_s, 50), "s")
    m["trainer.run_s.p75"] = (percentile(run_s, 75), "s")
    gaps = [g * 1000.0 for g in epoch_intervals(spans, runs)]
    m["trainer.epoch_ms.p50"] = (percentile(gaps, 50), "ms")
    m["trainer.epoch_ms.p99"] = (percentile(gaps, 99), "ms")
    # Whole-command totals, for layers called once or a few times per command.
    for name in ("data.parse_sparse", "data.orient_labels", "data.stratified_folds",
                 "data.fold_split", "data.standardize", "experiment.determine_winners",
                 "experiment.write_run_csv", "trainer.write_epoch_csv",
                 "network.save_checkpoint"):
        m[f"{name}.ms"] = (total(name, run_only=False) * 1000.0, "ms")
    m["experiment.wilcoxon_signed_rank.calls"] = (
        calls("experiment.wilcoxon_signed_rank", run_only=False), "count")
    m["experiment.pool_efficiency"] = (
        sum(run_s) / (jobs * pooled_wall_s) if pooled_wall_s else 0.0, "ratio")
    return m


# ---------------------------------------------------------------------------
# One pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("plain", "trace", "memory"), required=True)
    parser.add_argument("--result", required=True, help="JSON file to write")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import astra.cli

    result = {}
    tracer = None
    peaks: list = []
    if args.mode == "trace":
        tracer = Tracer()
        install(tracer)
    elif args.mode == "memory":
        install_peak_memory(peaks)
    start = time.perf_counter()
    rc = astra.cli.main(cli_args)
    result["wall_s"] = time.perf_counter() - start
    result["rc"] = rc
    if tracer is not None:
        result["spans"] = [list(s) for s in tracer.spans]
    if args.mode == "memory":
        result["peak_bytes"] = max(peaks, default=0)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
