"""Tests of the benchmark itself: complete wrapping, its correctness checks,
repeatable count metrics and the contract of run.py's output."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from difftf import blocks, cli, optim, tape as tape_mod, tf_core, tf_grad  # noqa: E402
from difftf.pem import PemModel  # noqa: E402
from difftf.tape import Tape  # noqa: E402

COUNT_METRICS = (
    "tf_core.lfilter.calls_per_step",
    "tf_core.lfilter.samples_per_step",
    "tf_core.lfilter.flops_per_step",
    "tape.nodes_per_step",
    "optim.final_loss",
)


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *map(str, args)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=cwd)


def _result(workload, seed, trace, seconds=1):
    proc = _bench("--workload", workload, "--seed", seed, "--seconds", seconds, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_install_rebinds_every_binding_and_uninstall_restores():
    originals = {
        (tape_mod, "filter_rows"): tf_core.filter_rows,
        (blocks, "filter_rows"): tf_core.filter_rows,
        (tf_grad, "filter_rows"): tf_core.filter_rows,
        (cli, "train"): optim.train,
        (tf_core, "lfilter"): tf_core.lfilter,
    }
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        assert tracing.unwrapped_references(inst.originals) == []
        for (module, name), fn in originals.items():
            assert getattr(module, name).__wrapped__ is fn
        tf_core.filter_forward(tf_core.TransferFunction(np.ones(2), np.array([0.5]), 1), np.ones(16))
        assert tracer.calls["tf_core.lfilter"] == 1
        assert tracer.counts["tf_core.lfilter.samples"] == 16
        assert tracer.counts["tf_core.lfilter.flops"] == 2 * (3 + 2 - 1) * 16
        assert tracer.self_time["tf_core.filter_rows"] < tracer.inclusive["tf_core.filter_rows"]
        # a binding left behind is reported
        blocks.filter_rows = originals[(blocks, "filter_rows")]
        assert tracing.unwrapped_references(inst.originals) == ["difftf.blocks.filter_rows"]
    finally:
        inst.uninstall()
    for (module, name), fn in originals.items():
        assert getattr(module, name) is fn


def _small_pem(seed=0):
    rng = np.random.default_rng(seed)
    pm = PemModel(blocks.build_wh(2, 2, 4, rng))
    u = rng.standard_normal((1, 200, 1))
    y = np.tanh(u) + 0.1 * rng.standard_normal((1, 200, 1))
    params = [p for _, p in pm.parameters()]

    def build_loss():
        tape = Tape()
        return tape, pm.pem_loss_node(tape, u, y)

    return params, build_loss


def test_gradient_check_rejects_a_wrong_gradient():
    params, build_loss = _small_pem()
    before = [p.value.copy() for p in params]
    ok, err = workloads.directional_gradient_check(params, build_loss, np.random.default_rng(1))
    assert ok and err < 1e-5

    def wrong_gradient():
        tape, loss = build_loss()
        return tape, tape.custom(loss.value, (loss,), lambda g: (1.5 * g,), op="scaled")

    ok, err = workloads.directional_gradient_check(params, wrong_gradient, np.random.default_rng(1))
    assert not ok and err > 0.1
    for p, v in zip(params, before):
        assert np.array_equal(p.value, v)

    run = workloads.Run(workloads.WORKLOADS["wh_pem"], 1, 1, 0, str(ROOT))
    run.untraced.attempted = 10
    run.checks["gradient_first_step"] = (ok, "")
    assert run.failed == 1 and not run.correct


def test_norm_scales_step_times_to_reference_speed():
    fast = workloads.Phase(step_s=[0.010, 0.020, 0.030], ref_s=[0.001, 0.002, 0.003])
    slow = workloads.Phase(step_s=[0.015, 0.030, 0.045], ref_s=[0.0015, 0.003, 0.0045])
    assert fast.p(50) == pytest.approx(20.0) and slow.p(50) == pytest.approx(30.0)
    assert fast.norm_ms == pytest.approx(20.0 * workloads.REFERENCE_MS / 2.0)
    assert slow.norm_ms == pytest.approx(fast.norm_ms)


def test_reference_kernel_calls_no_difftf_code():
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        assert workloads.ReferenceKernel()() > 0
    finally:
        inst.uninstall()
    assert not tracer.spans


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_count_metrics_repeat_exactly(workload):
    first = _result(workload, 5, trace=1)
    second = _result(workload, 5, trace=1)
    names = [m["name"] for m in _spec()["per_layer"]]
    assert first["correct"] and second["correct"]
    assert sorted(first["metrics"]) == sorted(names)
    assert first["metrics"]["tf_core.lfilter.calls_per_step"]["value"] > 0
    for name in COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_second_seed_runs_cleanly_with_every_end_to_end_metric():
    result = _result("wh_pem", 6, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "wh_pem", "--seed", 1, "--seconds", 1, "--trace", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
