"""One benchmark run: set-up, memory pass, and timed (or traced) rounds.

A run is a closed loop with one client in one process.  A round sends one
request per strategy, in an order drawn from the seed, and each request
waits for the previous one.  With ``trace=False`` the run reports the
end-to-end metrics; with ``trace=True`` it alternates untraced and traced
rounds and reports the per-layer metrics, the tracing overhead among them.

Every time a metric reports is scaled to the reference host speed of
``hostspeed.py``: on a shared host a co-tenant can halve the speed of this
process's CPU for tens of seconds, so the benchmark times a fixed reference
workload around each request and set-up part and scales by its slowdown.  The
record keeps the unscaled medians too.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import random
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np
from gemfilter.counting import GENERATION, PROMPT

from gate import Gate, Request
from hostspeed import HostSpeed
from tracer import Tracer
from workloads import STRATEGIES, Workload, build_inputs, params_record

MIB = 2**20
SETUP_REPEATS = 5
SETUP = -1  # request id of the spans recorded while setting up
MATMUL_TAGS = ("attn_score", "attn_value", "proj", "mlp", "logits")

E2E_UNITS = {
    "setup_s": "s",
    **{f"prompt_s.{s}": "s" for s in STRATEGIES},
    **{f"gen_ms_per_token.{s}": "ms/token" for s in STRATEGIES},
    **{f"peak_mib.{s}": "MiB" for s in STRATEGIES},
    "tokens_per_s": "tokens/s",
}

# Span totals reported per round: (span name, field, unit).
SPAN_METRICS = (
    ("kernels.matmul", "calls", "count"),
    ("model.run_layer", "s", "s"),
    ("model.run_layer", "self_s", "s"),
    ("model.prefill", "s", "s"),
    ("model.apply_rope", "s", "s"),
    ("kernels.rms_norm_rows", "s", "s"),
    ("model.decode_step", "s", "s"),
    ("model.decode_step", "self_s", "s"),
    ("model.decode_step", "calls", "count"),
    ("model.LayerKV.append", "s", "s"),
    ("model.LayerKV.append", "calls", "count"),
    ("strategies.decode_with_compressed", "s", "s"),
    ("strategies.decode_with_compressed", "self_s", "s"),
    ("strategies.decode_with_compressed", "calls", "count"),
    ("strategies.CompressedLayerKV.append", "s", "s"),
    ("strategies.compressed_prefill", "s", "s"),
    ("strategies.retained_indices", "s", "s"),
    ("selection.select_indices", "s", "s"),
    ("selection.selection_scores", "s", "s"),
    ("kernels.topk_indices", "s", "s"),
    ("kernels.pool_1d", "s", "s"),
    ("model.greedy_generate", "s", "s"),
    ("costmodel.verify_counters", "s", "s"),
)
# Span totals reported per set-up build.
SETUP_SPAN_METRICS = (
    ("modelio.load_model", "s", "s"),
    ("testmodels.make_model", "s", "s"),
)

LAYER_UNITS = {
    **{f"kernels.matmul.s.{tag}": "s" for tag in MATMUL_TAGS},
    "kernels.matmul.gflops": "GFLOP/s",
    **{f"{span}.{field}": unit for span, field, unit in SPAN_METRICS + SETUP_SPAN_METRICS},
    "strategies.kept_fraction": "ratio",
    **{f"counting.prompt_flops.{s}": "FLOP" for s in STRATEGIES},
    **{f"counting.gen_flops.{s}": "FLOP" for s in STRATEGIES},
    **{f"counting.kv_bytes_peak.{s}": "B" for s in STRATEGIES},
    "runner.prompt_ratio.full_over_gemfilter": "ratio",
    "runner.prompt_ratio.m_over_r": "ratio",
    "trace.overhead_frac": "ratio",
}


def openblas_threads() -> int | None:
    """The thread count OpenBLAS reports, or None when it cannot be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_record() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_used": openblas_threads(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def run_round(gate: Gate, host: HostSpeed, order, tracer: Tracer | None = None) -> list[Request]:
    requests = []
    for strategy in order:
        if tracer is not None:
            tracer.request += 1
        (req, result), req.scale = host.timed(gate.run, strategy)
        requests.append(gate.check(req, result))
    return requests


def memory_pass(gate: Gate, order) -> tuple[dict[str, float], list[Request]]:
    """One request per strategy under tracemalloc, timed by no metric.

    Only allocations made after tracing starts are seen, so a peak is the
    request's own transient and retained memory, not the model's weights.
    """
    peaks, requests = {}, []
    tracemalloc.start()
    try:
        for strategy in order:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run = gate.run(strategy)
            peaks[strategy] = (tracemalloc.get_traced_memory()[1] - base) / MIB
            requests.append(gate.check(*run))
    finally:
        tracemalloc.stop()
    return peaks, requests


def _passed(requests, strategy):
    """The strategy's requests that passed the gate (all of them if none did;
    the run then reports correct=false anyway)."""
    mine = [r for r in requests if r.strategy == strategy]
    return [r for r in mine if r.ok] or mine


def e2e_samples(wl: Workload, rounds, scaled: bool = True) -> dict[str, list[float]]:
    """Per-request (per-round for ``tokens_per_s``) samples of each timing."""
    requests = [r for rnd in rounds for r in rnd]

    def scale(r) -> float:
        return r.scale if scaled else 1.0

    samples = {}
    for s in STRATEGIES:
        mine = _passed(requests, s)
        samples[f"prompt_s.{s}"] = [r.prompt_s * scale(r) for r in mine]
        samples[f"gen_ms_per_token.{s}"] = [1000.0 * r.gen_s * scale(r) / wl.gen_tokens(s) for r in mine]
    samples["tokens_per_s"] = [
        sum(len(r.output_tokens) for r in rnd) / sum(r.wall * scale(r) for r in rnd) for rnd in rounds
    ]
    return samples


def e2e_metrics(setup_s: float, samples, peaks) -> dict[str, float]:
    metrics = {"setup_s": setup_s}
    metrics.update({name: statistics.median(values) for name, values in samples.items()})
    metrics.update({f"peak_mib.{s}": peaks[s] for s in STRATEGIES})
    return metrics


def layer_metrics(wl, inputs, tracer, traced_rounds, untraced_rounds) -> dict[str, float]:
    traced = [r for rnd in traced_rounds for r in rnd]
    untraced = [r for rnd in untraced_rounds for r in rnd]
    n_rounds = len(traced_rounds)
    ids = range(tracer.request + 1)
    agg = tracer.aggregate(ids)
    setup = tracer.aggregate([SETUP])

    def total(table, span, field):
        return table.get(span, {}).get(field, 0)

    metrics: dict[str, float] = {}
    by_tag = total(agg, "kernels.matmul", "by_detail") or {}
    for tag in MATMUL_TAGS:
        metrics[f"kernels.matmul.s.{tag}"] = by_tag.get(tag, 0.0) / n_rounds
    matmul_s = total(agg, "kernels.matmul", "s")
    metrics["kernels.matmul.gflops"] = sum(r.flops for r in traced) / matmul_s / 1e9 if matmul_s else 0.0
    for span, field, _unit in SPAN_METRICS:
        metrics[f"{span}.{field}"] = total(agg, span, field) / n_rounds
    for span, field, _unit in SETUP_SPAN_METRICS:
        metrics[f"{span}.{field}"] = total(setup, span, field) / SETUP_REPEATS
    sizes = total(agg, "strategies.retained_indices", "details") or []
    scored = sum(n for _kept, n in sizes)
    metrics["strategies.kept_fraction"] = sum(k for k, _n in sizes) / scored if scored else 0.0
    for s in STRATEGIES:
        ref = _passed(traced, s)[0]
        metrics[f"counting.prompt_flops.{s}"] = ref.flops_by_phase[PROMPT]
        metrics[f"counting.gen_flops.{s}"] = ref.flops_by_phase[GENERATION]
        metrics[f"counting.kv_bytes_peak.{s}"] = ref.kv_bytes_peak
    prompt = {s: statistics.median(r.prompt_s for r in _passed(untraced, s)) for s in STRATEGIES}
    metrics["runner.prompt_ratio.full_over_gemfilter"] = prompt["full"] / prompt["gemfilter"]
    metrics["runner.prompt_ratio.m_over_r"] = inputs.weights.config.n_layers / wl.r
    traced_wall = sum(r.wall * r.scale for r in traced) / n_rounds
    untraced_wall = sum(r.wall * r.scale for r in untraced) / len(untraced_rounds)
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return metrics


def memory_report(requests, peaks) -> dict:
    modeled = {s: _passed(requests, s)[0].modeled_bytes / MIB for s in STRATEGIES}
    holds = peaks["gemfilter"] < min(peaks["snapkv"], peaks["h2o"]) and max(
        peaks["snapkv"], peaks["h2o"]
    ) < peaks["full"]
    return {"measured_mib": peaks, "modeled_kv_plus_weights_mib": modeled, "ordering_holds": holds}


def run_benchmark(wl: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run one workload and return the full record; ``record["result"]`` is
    the one-line summary (correct, attempted, failed, metrics)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    tracer = Tracer() if trace else None
    host = HostSpeed()
    gate = Gate(wl, build_inputs(wl, seed, out_dir))

    def build():
        start = time.perf_counter()
        if tracer is not None:
            tracer.request = SETUP
            with tracer:
                gate.inputs = build_inputs(wl, seed, out_dir)
        else:
            gate.inputs = build_inputs(wl, seed, out_dir)
        return time.perf_counter() - start

    def set_up():
        """Build the inputs and send one warm-up request per strategy, each
        part between reference runs, like a timed request."""
        build_s, scale = host.timed(build)
        runs = []
        for strategy in rng.sample(STRATEGIES, len(STRATEGIES)):
            (req, result), req.scale = host.timed(gate.run, strategy)
            runs.append((req, result))
        return build_s, scale, runs

    # Set-up, repeated; the first warm-ups' outputs become the references.
    setup_times, unscaled_setup_times, warm = [], [], []
    for _ in range(SETUP_REPEATS):
        build_s, scale, runs = set_up()
        checked = [gate.check(*r) for r in runs] if gate.references else gate.adopt_references(runs)
        setup_times.append(build_s * scale + sum(r.wall * r.scale for r in checked))
        unscaled_setup_times.append(build_s + sum(r.wall for r in checked))
        warm += checked
    setup_s = statistics.median(setup_times)
    peaks, measured = memory_pass(gate, rng.sample(STRATEGIES, len(STRATEGIES)))
    warm += measured

    record = {
        "workload": wl.name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": host_record(),
        "params": params_record(wl, gate.inputs.weights),
        "inputs": gate.inputs.record,
        "setup": {"scaled_s": setup_times, "unscaled_s": unscaled_setup_times},
    }
    deadline = time.perf_counter() + seconds
    if tracer is None:
        rounds = []
        while not rounds or time.perf_counter() < deadline:
            rounds.append(run_round(gate, host, rng.sample(STRATEGIES, len(STRATEGIES))))
        requests = [r for rnd in rounds for r in rnd]
        samples = e2e_samples(wl, rounds)
        metrics = e2e_metrics(setup_s, samples, peaks)
        unscaled = e2e_samples(wl, rounds, scaled=False)
        record["spread"] = {
            name: {
                "samples": len(values),
                "median": statistics.median(values),
                "unscaled_median": statistics.median(unscaled[name]),
            }
            for name, values in samples.items()
        }
    else:
        tracer.request = 0
        untraced_rounds, traced_rounds = [], []
        while not traced_rounds or time.perf_counter() < deadline:
            untraced_rounds.append(run_round(gate, host, rng.sample(STRATEGIES, len(STRATEGIES))))
            with tracer:
                traced_rounds.append(run_round(gate, host, rng.sample(STRATEGIES, len(STRATEGIES)), tracer))
        requests = [r for rnd in untraced_rounds + traced_rounds for r in rnd]
        metrics = layer_metrics(wl, gate.inputs, tracer, traced_rounds, untraced_rounds)
        record["rounds"] = {"untraced": len(untraced_rounds), "traced": len(traced_rounds)}
        record["missing_trace_targets"] = tracer.missing
        tracer.write(out_dir / f"spans-{wl.name}-seed{seed}.json")
    record["memory"] = memory_report(warm, peaks)
    record["timed"] = [
        {
            "strategy": r.strategy,
            "wall": r.wall,
            "prompt_s": r.prompt_s,
            "gen_s": r.gen_s,
            "scale": r.scale,
        }
        for r in requests
    ]
    record["host_scale_median"] = statistics.median(r.scale for r in requests)

    needle = [r.needle for r in warm + requests if r.needle is not None]
    if needle:
        record["needle"] = {
            "coverage_min": min(c for c, _d in needle),
            "min_distance_max": max(d for _c, d in needle),
        }
    record["requests"] = {
        s: {"attempted": a, "succeeded": a - f, "failed": f} for s, (a, f) in sorted(gate.tally.items())
    }
    record["failures"] = [
        {"strategy": r.strategy, "failures": r.failures} for r in warm + requests if r.failures
    ]
    units = LAYER_UNITS if trace else E2E_UNITS
    record["result"] = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(out_dir / f"{wl.name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)
    return record
