"""weaklab benchmark: one workload per process.

    python3 perfbench/run.py --workload {sweep,train_one,prep,gradcheck} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; the benchmark imports weaklab from the `src/` tree next
to this directory and fails (exit 2, no result) when it is missing. It sets
up several times, each time importing weaklab in a fresh interpreter and
making the workload's inputs from the seed (the median counts as set-up
time), then repeats the workload's operation until `--seconds` have
passed and at least two operations ran, checks every output, and prints
one JSON line as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are speed-normalised. On a machine whose cores are shared with other
jobs, the speed of a core drifts by up to a factor of two over seconds to
minutes, so raw times of identical work spread far more between runs than
any useful regression bound. A fixed probe kernel (small numpy operations
driven by a Python loop, like weaklab's own hot paths) is therefore timed
right before and after every set-up and every operation, and each raw time
is scaled by PROBE_NOMINAL_S over the mean of its two probe times: it reads
in seconds at the speed at which the probe takes PROBE_NOMINAL_S. The raw
times and the probe times are printed on the environment line.

With `--trace 0` the metrics are the end-to-end ones, each the median over
the run's operations. With `--trace 1` operations alternate between untraced
and traced, and the metrics are the per-layer span aggregates per traced
operation (raw seconds) plus the tracing overhead. A line before it records
the environment. The exit code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

SETUP_REPEATS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE_ITERATIONS = 4000
PROBE_NOMINAL_S = 0.06  # about the probe's median time on a 2-core 2.0 GHz x86-64 VM

# name -> unit; direction and bound of each live in BENCHMARK.json
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "accuracy": "fraction",
}


def _cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def probe_seconds() -> float:
    """Wall time of a fixed kernel: the current speed of this core."""
    import numpy as np

    rng = np.random.default_rng(0)
    x, w = rng.random((32, 16)), rng.random((32, 16))
    acc = 0.0
    start = time.perf_counter()
    for i in range(PROBE_ITERATIONS):
        s = x @ w.T
        e = np.exp(s - s.max(axis=1, keepdims=True))
        acc += float((e / e.sum(axis=1, keepdims=True))[0, 0]) + 0.5 * i
    return time.perf_counter() - start


class Probed:
    """Raw and speed-normalised times of a sequence of measured steps,
    each bracketed by probe timings."""

    def __init__(self):
        self.probes = [probe_seconds()]
        self.raw = []
        self.scale = []  # PROBE_NOMINAL_S / mean probe time around each step

    def add(self, raw_times: tuple) -> None:
        self.probes.append(probe_seconds())
        self.raw.append(raw_times)
        self.scale.append(2.0 * PROBE_NOMINAL_S / (self.probes[-2] + self.probes[-1]))

    def median(self, field: int = 0, steps=None) -> float:
        steps = range(len(self.raw)) if steps is None else steps
        return statistics.median(self.raw[i][field] * self.scale[i] for i in steps)


def _environment(args, numpy_version: str, setups: Probed, ops: Probed) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    nproc = len(os.sched_getaffinity(0))
    return {
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "nproc": nproc,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_repeats": len(setups.raw),
        "operations": len(ops.raw),
        "raw_setup_s": [round(s[0], 6) for s in setups.raw],
        "raw_operation_wall_s": [round(o[0], 6) for o in ops.raw],
        "probe_s": [round(p, 6) for p in setups.probes + ops.probes],
        "probe_nominal_s": PROBE_NOMINAL_S,
        "note": (f"{nproc} cores, possibly shared with other jobs; timing noise was not "
                 "controlled at the OS level; times are speed-normalised by the probe"),
    }


def _parse_args(argv):
    p = argparse.ArgumentParser(description="weaklab benchmark")
    p.add_argument("--workload", required=True,
                   choices=("sweep", "train_one", "prep", "gradcheck"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(workload, seconds: float, tracer=None) -> dict:
    """Repeat the operation until `seconds` passed and min_ops ran. With a
    tracer, odd-numbered operations run traced."""
    ops = Probed()
    traced_ops, accuracies = [], []
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while i < workload.min_ops or time.perf_counter() - start < seconds:
        traced = tracer is not None and i % 2 == 1
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        result = None
        try:
            with tracer if traced else contextlib.nullcontext():
                result = workload.run(i)
        except Exception:  # an operation that raises fails; the run goes on
            traceback.print_exc(file=sys.stderr)
        ops.add((time.perf_counter() - t0, _cpu_seconds() - cpu0))
        outcome = None
        if result is not None:
            try:
                outcome = workload.record(i, result)
            except Exception:  # an unreadable output fails the operation too
                traceback.print_exc(file=sys.stderr)
        if outcome is None:
            workload.problems.append(f"{workload.name}: operation {i} failed")
            outcome = (workload.cells, None)
        n_failed, accuracy = outcome
        if traced:
            traced_ops.append(i)
        attempted += workload.cells
        failed += n_failed
        if accuracy is not None:
            accuracies.append(accuracy)
        i += 1
    return {"ops": ops, "traced": traced_ops, "accuracies": accuracies,
            "attempted": attempted, "failed": failed}


def trace_metrics(tracer, workload, m) -> dict:
    ops, traced = m["ops"], m["traced"]
    untraced = [i for i in range(len(ops.raw)) if i not in traced]
    out = tracer.metrics(len(traced))
    for name, per_op in workload.expected_calls().items():
        if name not in tracer.absent and tracer.calls(name) != per_op * len(traced):
            workload.problems.append(
                f"trace incomplete: {name} made {tracer.calls(name)} calls in "
                f"{len(traced)} operations, expected {per_op} each")
    trains = tracer.stats["model.train"][0]
    out["model.steps_per_train"] = (tracer.stats["model.step"][0] / trains if trains else 0.0,
                                    "count")
    out["trace_overhead_frac"] = (ops.median(steps=traced) / ops.median(steps=untraced) - 1.0,
                                  "fraction")
    out["failed_frac"] = (m["failed"] / m["attempted"], "fraction")
    out["trace_absent_spans"] = (float(len(tracer.absent)), "count")
    return out


def end_to_end_metrics(workload, m, setups: Probed) -> dict:
    ops = m["ops"]
    wall = ops.median(0)
    values = {
        "wall_s": wall,
        "cpu_s": ops.median(1),
        "setup_s": setups.median(0),
        "peak_rss_mb": _peak_rss_mb(),
        "work_per_s": workload.work_per_op / wall,
        "accuracy": statistics.median(m["accuracies"]) if m["accuracies"] else 0.0,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def _import_seconds() -> float:
    """Time to start a fresh interpreter and import numpy and weaklab."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, weaklab"], check=True, timeout=120,
                   env=dict(os.environ, PYTHONPATH=str(SRC)))
    return time.perf_counter() - t0


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in BLAS_VARS:  # one process, one BLAS thread
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import numpy
        import weaklab
    except ImportError as exc:
        print(f"perfbench: cannot import weaklab from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(weaklab.__file__).resolve().parent != (SRC / "weaklab").resolve():
        print(f"perfbench: imported weaklab from {weaklab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench_trace
    import bench_workloads

    workdir = Path(__file__).resolve().parent / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = bench_workloads.WORKLOADS[args.workload](args.seed, workdir)
        setups, prints = Probed(), set()
        for _ in range(SETUP_REPEATS):
            import_s = _import_seconds()
            t0 = time.perf_counter()
            workload.setup()
            setups.add((import_s + time.perf_counter() - t0,))
            prints.add(workload.fingerprint())
        if len(prints) != 1:
            workload.problems.append("set-up produced different inputs from the same seed")
        tracer = bench_trace.Tracer() if args.trace else None
        m = measure(workload, args.seconds, tracer)
        if tracer is not None:
            metrics = trace_metrics(tracer, workload, m)
            if tracer.absent:
                print("trace: absent spans: " + " ".join(tracer.absent))
        else:
            metrics = end_to_end_metrics(workload, m, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()

    for problem in workload.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"environment": _environment(args, numpy.__version__, setups, m["ops"])}))
    correct = not workload.problems
    print(json.dumps({
        "correct": correct,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
