"""Self-tests of the benchmark, at tiny sizes.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import statistics
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import hostspeed
from gemfilter import kernels, model, runner, strategies
from tracer import Tracer
from workloads import STRATEGIES, WORKLOADS

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    "prompt-long": (64, 32, 3),
    "decode-long": (64, 32, 5),
    "needle-8k": (129, 32, 3),
    "needle-2k": (129, 32, 5),
}


def tiny(name):
    return WORKLOADS[name].shrunk(*TINY[name])


def units(metrics):
    return {m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_each_workload_runs_at_tiny_size(name, trace, tmp_path):
    record = bench.run_benchmark(tiny(name), 5, 0.05, trace, tmp_path)
    result = record["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 * len(STRATEGIES)
    assert sorted(record["requests"]) == sorted(STRATEGIES)
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units(expected)
    if WORKLOADS[name].model == "copy":
        assert record["needle"] == {"coverage_min": 1.0, "min_distance_max": 0}


def test_every_e2e_metric_appears_with_unit():
    names = {"setup_s", "tokens_per_s"} | {
        f"{metric}.{s}" for metric in ("prompt_s", "gen_ms_per_token", "peak_mib") for s in STRATEGIES
    }
    assert len(names) == 14
    assert set(bench.E2E_UNITS) == names and all(bench.E2E_UNITS.values())
    assert units(BENCHMARK["end_to_end"]) == bench.E2E_UNITS
    assert units(BENCHMARK["per_layer"]) == bench.LAYER_UNITS
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


def test_corrupted_output_token_counts_as_one_failed_request(tmp_path, monkeypatch):
    real = runner.run_generation
    calls = []

    untimed = len(STRATEGIES) * (bench.SETUP_REPEATS + 1)  # warm-ups and memory pass
    corrupted = untimed + 2

    def corrupt_one(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(None)
        if len(calls) == corrupted:
            result.output_tokens[0] = (result.output_tokens[0] + 1) % 256
        return result

    monkeypatch.setattr(runner, "run_generation", corrupt_one)
    record = bench.run_benchmark(tiny("decode-long"), 5, 0.05, False, tmp_path)
    result = record["result"]
    assert len(calls) > corrupted
    assert result["failed"] == 1 and not result["correct"]
    assert result["attempted"] == len(calls)
    assert record["failures"][0]["failures"] == ["output tokens differ from the warm-up request"]


def test_traced_run_leaves_engine_attributes_identical(tmp_path):
    modules = (model, strategies, kernels)
    before = [dict(vars(m)) for m in modules]
    classes = (model.LayerKV, strategies.CompressedLayerKV)
    class_before = [dict(vars(c)) for c in classes]
    bench.run_benchmark(tiny("prompt-long"), 5, 0.05, True, tmp_path)
    for owner, old in zip(modules + classes, before + class_before):
        new = vars(owner)
        assert new.keys() == old.keys()
        assert all(new[k] is v for k, v in old.items())


def test_tracer_patches_every_binding_while_installed():
    original = kernels.matmul
    with Tracer() as tracer:
        assert model.matmul is strategies.matmul is kernels.matmul
        assert kernels.matmul is not original
        kernels.matmul(kernels.np.ones((2, 3)), kernels.np.ones((3, 4)), tag="proj")
    assert model.matmul is strategies.matmul is kernels.matmul is original
    assert [s[0] for s in tracer.spans] == ["kernels.matmul"] and tracer.spans[0][5] == "proj"


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans += [
        ["outer", 0.0, 10.0, -1, 1, None],
        ["inner", 1.0, 4.0, 0, 1, None],
        ["inner", 5.0, 6.0, 0, 1, None],
        ["outer", 20.0, 21.0, -1, 2, None],
    ]
    agg = tracer.aggregate([1])
    assert agg["outer"]["s"] == 10.0 and agg["outer"]["self_s"] == 6.0
    assert agg["inner"]["calls"] == 2 and agg["inner"]["self_s"] == 4.0


def test_restore_reports_a_binding_left_behind():
    tracer = Tracer()
    tracer.install()
    saved = model.embed
    model.embed = lambda *a: None
    try:
        with pytest.raises(RuntimeError, match="embed"):
            tracer.restore()
    finally:
        model.embed = saved


def test_exits_nonzero_without_the_engine(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "needle-8k", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_times_are_scaled_by_the_reference_slowdown(tmp_path, monkeypatch):
    monkeypatch.setattr(hostspeed.HostSpeed, "measure", lambda self: 2 * hostspeed.REFERENCE_S)
    record = bench.run_benchmark(tiny("needle-2k"), 5, 0.05, False, tmp_path)
    metrics = record["result"]["metrics"]
    for name, spread in record["spread"].items():
        factor = 2.0 if name == "tokens_per_s" else 0.5
        assert metrics[name]["value"] == pytest.approx(factor * spread["unscaled_median"])
    assert record["host_scale_median"] == 0.5
    assert metrics["setup_s"]["value"] == pytest.approx(0.5 * statistics.median(record["setup"]["unscaled_s"]))
