"""gemfilter benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload prompt-long --seed 1 --seconds 10 --trace 0

Builds every input from the seed, runs the workload through the engine's
public API, checks every request, and prints a readable report followed by
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from a traced run.  The full record (host, inputs,
per-strategy request counts, memory report) and, when tracing, every span
are written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
MAX_BLAS_THREADS = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def format_report(record: dict) -> str:
    lines = [
        f"gemfilter benchmark: workload={record['workload']} seed={record['seed']} "
        f"seconds={record['seconds']} trace={int(record['trace'])}",
        f"why: {record['why']}",
        "host: " + " ".join(f"{k}={v}" for k, v in record["host"].items()),
        "params: " + " ".join(f"{k}={v}" for k, v in record["params"].items()),
    ]
    if record["inputs"]:
        lines.append("inputs: " + " ".join(f"{k}={v}" for k, v in record["inputs"].items()))
    lines.append(f"{'strategy':<10} {'attempted':>9} {'succeeded':>9} {'failed':>6}")
    for strategy, c in record["requests"].items():
        lines.append(f"{strategy:<10} {c['attempted']:>9} {c['succeeded']:>9} {c['failed']:>6}")
    for failure in record["failures"]:
        lines.append(f"FAILED {failure['strategy']}: {'; '.join(failure['failures'])}")
    if "needle" in record:
        lines.append(
            f"needle: selection.needle_coverage={record['needle']['coverage_min']} "
            f"selection.needle_min_distance={record['needle']['min_distance_max']}"
        )
    memory = record.get("memory")
    if memory:
        lines.append(f"{'strategy':<10} {'peak MiB':>10} {'modeled MiB (KV + weights)':>27}")
        for s, peak in memory["measured_mib"].items():
            lines.append(f"{s:<10} {peak:>10.2f} {memory['modeled_kv_plus_weights_mib'][s]:>27.3f}")
        verdict = "holds" if memory["ordering_holds"] else "does NOT hold"
        lines.append(f"measured memory ordering gemfilter < snapkv/h2o < full: {verdict}")
    if record.get("missing_trace_targets"):
        lines.append("trace targets missing (metrics read 0): " + ", ".join(record["missing_trace_targets"]))
    scaled = "span times are unscaled" if record["trace"] else "times are scaled to the reference host speed"
    lines.append(f"{scaled}; median host scale {record['host_scale_median']:.3f}")
    for name, m in record["result"]["metrics"].items():
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS reads its thread count when numpy loads, so set it before any import.
    threads = min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    src = ROOT / "src"
    if not (src / "gemfilter" / "__init__.py").is_file():
        print(f"error: engine source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from bench import run_benchmark
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    record = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), OUT_DIR)
    print(format_report(record))
    print(json.dumps(record["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
