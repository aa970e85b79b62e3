#!/usr/bin/env python3
"""Benchmark of the `astra` command line on two seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload skin-cv --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 40

`--trace 0` times the real command (`python -m astra.cli` with `src` on the
path) in fresh processes for `--seconds` and reports the end-to-end metrics.
`--trace 1` runs the workload in one process with `jobs=1`, wraps the
public functions of each module and reports per-layer metrics.  `all` runs
both modes on every workload.  Human-readable lines come first; the last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  See bench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import spans
from workloads import WORKLOADS

PROBES_PER_SAMPLE = 2   # set-up probes run before each timed command
MIN_SAMPLES = 3         # commands timed per run, even past --seconds
TIME_LIMIT_S = 170.0    # the whole run ends before this; children are killed
QUALITY_METHOD = "gmn-astra"

HERE = Path(__file__).resolve().parent


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(threads: dict) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": nproc(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": threads,
    }


class WorkloadRun:
    """One workload run: the checkout root, a scratch directory inside it,
    the thread budget, and a deadline every child process must meet."""

    def __init__(self, root: Path, workload, seed: int, trace: bool):
        self.root = root
        self.wl = workload
        self.seed = seed
        self.nproc = nproc()
        self.jobs = workload.jobs(self.nproc)
        self.work = root / ".bench_work" / f"{workload.name}-s{seed}-t{int(trace)}"
        self.deadline = time.monotonic() + TIME_LIMIT_S
        threads = str(workload.blas_threads(self.nproc))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                        TMPDIR=str(self.work))
        self.threads = {"jobs": self.jobs, "OPENBLAS_NUM_THREADS": threads,
                        "OMP_NUM_THREADS": threads}

    def __enter__(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.dataset = self.wl.write_inputs(self.seed, self.work)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def child(self, args: list[str], log: str):
        """Run `python <args>` to completion; return (rc, wall_s, peak_rss_mb,
        stdout, stderr).  ru_maxrss from wait4 covers the child and every
        descendant it waited for, so it is the largest process's peak."""
        out_path, err_path = self.work / f"{log}.out", self.work / f"{log}.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            # Its own process group, so that a kill also reaches pool workers.
            proc = subprocess.Popen([sys.executable, *args], cwd=self.root,
                                    env=self.env, stdout=out, stderr=err,
                                    start_new_session=True)

            def kill():
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

            timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
                out_path.read_text(), err_path.read_text())

    def cli_args(self, out: Path, jobs: int) -> list[str]:
        return self.wl.cli_args(self.seed, self.work, out, jobs)

    def check(self, out: Path, rc: int, stderr: str) -> checks.Outcome:
        if self.wl.command == "cv":
            return checks.check_cv(out, stderr, rc, self.wl.runs_per_command,
                                   self.wl.epochs, QUALITY_METHOD)
        return checks.check_train(out, stderr, rc, self.wl.epochs)

    def fingerprint(self, out: Path) -> str | None:
        try:
            return checks.fingerprint(out, self.wl.fingerprint_files)
        except OSError:
            return None


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, outcome: checks.Outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def end_to_end(s: WorkloadRun, seconds: float) -> tuple[Tally, dict, list[str]]:
    """Alternate set-up probes with timed commands, so that both medians
    come from the same stretch of time on a machine whose speed drifts."""
    tally = Tally()
    setup, walls, rss, epochs, gmeans, fps = [], [], [], [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        for _ in range(PROBES_PER_SAMPLE):
            rc, _, _, stdout, _ = s.child(
                [str(HERE / "setup_probe.py"), str(s.dataset), "5", str(s.seed)], "setup")
            tally.check(rc == 0)
            if rc == 0:
                setup.append(float(stdout.strip()))
        out = s.work / f"out{len(walls)}"
        rc, wall, peak, _, stderr = s.child(
            ["-m", "astra.cli", *s.cli_args(out, s.jobs)], f"cli{len(walls)}")
        outcome = s.check(out, rc, stderr)
        fp = s.fingerprint(out)
        fps.append(fp)
        outcome.checks["fingerprint"] = fp is not None and fp == fps[0]
        tally.add(outcome)
        walls.append(wall)
        rss.append(peak)
        epochs.append(outcome.epochs)
        gmeans.append(outcome.test_gmean)
        shutil.rmtree(out, ignore_errors=True)

    setup_s = statistics.median(setup) if setup else float("nan")
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "epochs_per_s": (statistics.median(e / (w - setup_s) for e, w in zip(epochs, walls)),
                         "epochs/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    tail = spans.tail_percentile(walls)
    notes = [
        f"test_gmean: {statistics.median(gmeans):.6g} (quality guard, not bounded: "
        "bimodal across seeds, see bench/README.md)",
        f"samples: {len(walls)} commands, {len(setup)} set-up probes",
        "wall_s samples: " + " ".join(f"{w:.4f}" for w in walls),
        "setup_s samples: " + " ".join(f"{t:.4f}" for t in setup),
        "wall_s tail: " + (f"p{tail[0]:g} = {tail[1]:.4f} s" if tail else
                           f"none (fewer than 20 samples; max {max(walls):.4f} s)"),
        f"fingerprint: {fps[0]}",
    ]
    return tally, metrics, notes


def traced(s: WorkloadRun, seconds: float) -> tuple[Tally, dict, list[str]]:
    tally = Tally()
    start = time.perf_counter()

    # The timed configuration, untraced: the reference output and the wall
    # time the pool efficiency is measured against.
    ref = s.work / "ref"
    rc, pooled_wall, _, _, stderr = s.child(
        ["-m", "astra.cli", *s.cli_args(ref, s.jobs)], "ref")
    tally.add(s.check(ref, rc, stderr))
    ref_fp = s.fingerprint(ref)
    written = sum(p.stat().st_size for p in ref.iterdir()) if ref.is_dir() else 0

    def one_pass(mode: str, i: int) -> dict:
        out = s.work / f"{mode}{i}"
        result = s.work / f"{mode}{i}.json"
        rc, *_ = s.child([str(HERE / "spans.py"), "--mode", mode, "--result",
                          str(result), "--", *s.cli_args(out, 1)], f"{mode}{i}")
        # jobs=1 (and tracing) must not change a byte of the output.
        tally.check(rc == 0 and ref_fp is not None and s.fingerprint(out) == ref_fp)
        shutil.rmtree(out, ignore_errors=True)
        return json.loads(result.read_text()) if rc == 0 else {}

    peak = one_pass("memory", 0).get("peak_bytes", float("nan"))
    plain_walls, traced_walls, layers = [], [], []
    while not layers or time.perf_counter() - start < seconds:
        i = len(layers)
        plain = one_pass("plain", i)
        trace = one_pass("trace", i)
        if not plain or not trace:
            break
        plain_walls.append(plain["wall_s"])
        traced_walls.append(trace["wall_s"])
        layers.append(spans.layer_metrics(
            [spans.Span(*sp) for sp in trace["spans"]],
            pooled_wall if s.wl.pooled else None, s.jobs))

    metrics = {}
    if layers:
        for name, (_, unit) in layers[0].items():
            metrics[name] = (statistics.median(m[name][0] for m in layers), unit)
        metrics["tracing_overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0, "ratio")
    metrics["network.backward_and_step.peak_kib"] = (peak / 1024.0, "KiB")
    metrics["cli.bytes_written"] = (written, "bytes")
    notes = [f"passes: {len(layers)} traced + {len(plain_walls)} plain (jobs=1), "
             f"1 memory, 1 untraced at jobs={s.jobs} ({pooled_wall:.4f} s)",
             f"fingerprint: {ref_fp}"]
    return tally, metrics, notes


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool):
    wl = WORKLOADS[name]
    with WorkloadRun(root, wl, seed, trace) as s:
        tally, metrics, notes = (traced if trace else end_to_end)(s, seconds)
        env = environment(s.threads)
    mode = "traced per-layer metrics" if trace else "end-to-end metrics"
    print(f"== {name}: {mode}, seed {seed}")
    print(f"   why: {wl.why}")
    for metric, (value, unit) in metrics.items():
        print(f"   {metric:<46} {value:>14.6g} {unit}")
    frac = tally.failed / max(tally.attempted, 1)
    print(f"   {'failed_frac':<46} {frac:>14.6g} ratio ({tally.failed}/{tally.attempted})")
    for line in notes:
        print(f"   {line}")
    print(f"   env: {json.dumps(env, sort_keys=True)}")
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so the running child's process group is
    # killed and reaped and the scratch directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    if not (root / "src" / "astra" / "cli.py").is_file():
        print("bench: src/astra not found; run from the root of an astra checkout",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        plan = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    total = Tally()
    merged = {}
    for name, trace in plan:
        tally, metrics = run_workload(root, name, args.seed, args.seconds, trace)
        total.attempted += tally.attempted
        total.failed += tally.failed
        prefix = f"{name}/" if args.workload == "all" else ""
        merged.update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps({
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in merged.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
