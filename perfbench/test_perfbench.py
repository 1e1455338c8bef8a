"""Tests of the benchmark itself: trace completeness, absent spans, the
metric names in BENCHMARK.json and the refusal to run without the source."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import run as bench_run  # noqa: E402
from weaklab import correction, estimation, harness, model  # noqa: E402


def _traced_op(workload):
    workload.setup()
    tracer = bench_trace.Tracer()
    with tracer:
        workload.record(0, workload.run(0))
    assert workload.problems == []
    return tracer


def test_trace_completeness_train_one(tmp_path):
    wl = bench_workloads.TrainOne(3, tmp_path)
    tracer = _traced_op(wl)
    n, bs = len(wl.labels), wl.config.batch_size
    assert tracer.calls("model.step") == wl.EPOCHS * math.ceil(n / bs)
    assert tracer.calls("harness.overall_accuracy") == wl.EPOCHS
    assert tracer.calls("model.train") == 1


def test_trace_completeness_sweep(tmp_path):
    wl = bench_workloads.Sweep(3, tmp_path, epochs=1)
    tracer = _traced_op(wl)
    cfg = harness.load_config(wl.config_path)
    expected = len(cfg.seeds) * (1 + len(cfg.etas) * len(cfg.combinations))
    assert tracer.calls("model.train") == expected == 16
    assert tracer.calls("model.step") == wl.work_per_op
    for name, calls in wl.expected_calls().items():
        assert tracer.calls(name) == calls


def test_every_binding_is_wrapped_and_restored():
    originals = (model.train, model.predict_batch, model.loss_derivative)
    with bench_trace.Tracer():
        assert harness.train is model.train is estimation.train
        assert harness.train is not originals[0]
        assert estimation.predict_batch is model.predict_batch is harness.predict_batch
        assert estimation.predict_batch is not originals[1]
        assert model.loss_derivative is correction.loss_derivative
        assert model.loss_derivative is not originals[2]
    assert (model.train, model.predict_batch, model.loss_derivative) == originals
    assert harness.train is originals[0]


def test_missing_function_is_reported_absent():
    tracer = bench_trace.Tracer(spans=("model.step", "model.no_such_function"))
    with tracer:
        pass
    assert tracer.absent == ["model.no_such_function"]
    metrics = tracer.metrics(1)
    assert metrics["model.no_such_function.calls"] == (0.0, "count")
    assert metrics["model.no_such_function.self_s"] == (0.0, "s")


def test_self_time_excludes_traced_children(tmp_path):
    wl = bench_workloads.TrainOne(4, tmp_path)
    tracer = _traced_op(wl)
    _, total, self_s = tracer.stats["model.train"]
    children = sum(tracer.stats[s][1] for s in (
        "model.lookahead_parameters", "model.forward_batch", "model.batch_weighting",
        "model.backward_batch", "model.step", "harness.overall_accuracy"))
    # forward_batch also runs inside predict_batch, below overall_accuracy
    _, predict_total, predict_self = tracer.stats["model.predict_batch"]
    children -= predict_total - predict_self
    assert 0.0 < self_s < total
    assert abs(total - children - self_s) < 1e-9 * total
    _, step_total, step_self = tracer.stats["model.step"]
    assert step_self == step_total


def test_benchmark_json_lists_the_printed_metrics(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(bench_workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    wl = bench_workloads.GradCheck(0, tmp_path)
    ops = bench_run.Probed()
    ops.add((1.0, 1.0))
    ops.add((1.0, 1.0))
    m = {"ops": ops, "traced": [1], "failed": 0, "attempted": 2}
    printed = bench_run.trace_metrics(bench_trace.Tracer(), wl, m)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in printed.items()}


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gradcheck", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
