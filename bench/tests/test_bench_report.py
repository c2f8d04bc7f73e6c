"""The report names exactly the metrics BENCHMARK.json lists, tape nodes are
fully attributed, and the command fails when a check fails."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np

import run as bench_run
import tracing
import workloads
from aotlab.autodiff import Tape, Tensor
from aotlab.model import Model, ModelConfig
from aotlab.train import denoising_loss

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")


def _spec():
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def test_units_match_benchmark_json():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_layer_metrics_cover_every_per_layer_name():
    assert set(tracing.layer_metrics(tracing.Tracer())) == \
        set(tracing.PER_LAYER_UNITS)


def _fake_run(failures=()):
    run = workloads.Run("train", 0, 1.0, "unused")
    run.ops.update({"steps": 3})
    run.failures = list(failures)
    return run


def test_report_names_exactly_the_listed_metrics():
    spec = _spec()
    e2e = {name: 1.5 for name in workloads.END_TO_END_UNITS}
    layers = {name: 2.5 for name in tracing.PER_LAYER_UNITS}
    for values, key, units in ((e2e, "end_to_end", workloads.END_TO_END_UNITS),
                               (layers, "per_layer", tracing.PER_LAYER_UNITS)):
        report = bench_run.build_report(_fake_run(), values, units)
        assert set(report) == {"correct", "attempted", "failed", "metrics"}
        assert list(report["metrics"]) == [m["name"] for m in spec[key]]
        assert report["correct"] and report["attempted"] == 3


def test_unmeasured_metric_makes_report_incorrect():
    run = _fake_run()
    report = bench_run.build_report(run, {}, workloads.END_TO_END_UNITS)
    assert not report["correct"]


def test_failed_operation_makes_report_incorrect():
    run = _fake_run()
    run.failed, run.errors = 3, ["NumericOverflowError: loss overflowed"]
    e2e = {name: 1.0 for name in workloads.END_TO_END_UNITS}
    report = bench_run.build_report(run, e2e, workloads.END_TO_END_UNITS)
    assert not report["correct"] and report["failed"] == 3


def test_own_metric_does_not_fall_back_to_setup_samples():
    run = _fake_run()
    run.measure(run.side, "train.samples_per_s", 80, 1.0)
    run.measure(run.side, "eval.windows_per_s", 300, 1.0)
    assert np.isnan(run.rate("train.samples_per_s"))
    assert run.rate("eval.windows_per_s") == 300.0
    run.measure(run.own, "train.samples_per_s", 64, 2.0)
    assert run.rate("train.samples_per_s") == 32.0


def test_failed_check_gives_nonzero_exit(monkeypatch, tmp_path, capsys):
    def fake_execute(workload, seed, seconds, trace, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        e2e = {name: 1.0 for name in workloads.END_TO_END_UNITS}
        return _fake_run(["heat frame deviates"]), e2e, {}

    monkeypatch.setattr(workloads, "execute", fake_execute)
    monkeypatch.setattr(bench_run, "RUNS_DIR", str(tmp_path))
    code = bench_run.main(["--workload", "train", "--seed", "0", "--seconds", "1"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and last["correct"] is False


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(SPEC, tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "train",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_every_tape_node_is_attributed():
    cfg = ModelConfig(blocks=1)
    model = Model(cfg, np.random.default_rng(0)).astype(np.float32)
    window = np.random.default_rng(1).standard_normal(
        (2, cfg.t_in, cfg.height, cfg.width, cfg.channels)).astype(np.float32)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with Tape() as tape:
            pred = model.forward(Tensor(window))
            loss = denoising_loss(pred, Tensor(np.zeros_like(pred.data)))
        tape.backward(loss)
    finally:
        tracer.uninstall()
    in_layers, outside, held = tracing.node_accounting(tracer)
    assert held == len(tape) and in_layers + outside == held and outside > 0
    metrics = tracing.layer_metrics(tracer)
    assert sum(metrics[f"{layer}.nodes"] for layer in tracing.LAYERS) \
        + metrics["unscoped.nodes"] == metrics["autodiff.tape_nodes"] == len(tape)
    assert metrics["sinkhorn.nodes"] > 0 and metrics["sinkhorn.bwd_ms"] > 0
