"""One request through the public API, and the correctness gate it must pass.

A request is one ``runner.run_generation`` call for one (strategy, prompt)
pair, timed from outside the engine.  The gate checks four things:

* counters: ``costmodel.verify_counters`` against ``cost_table`` is exact;
* determinism: the output tokens equal the warm-up request's;
* phase walls: prompt plus generation wall do not exceed the outside wall,
  so work cannot leave the phases unnoticed;
* needle workload only: gemfilter's selection covers the whole needle
  (coverage 1.0, distance 0) and its continuation equals full's.

A request that raises or fails a check is counted as failed; it never stops
the benchmark.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field

from gemfilter import costmodel, needle, runner
from gemfilter.counting import GENERATION, PROMPT

from workloads import STRATEGIES, Inputs, Workload


@dataclass
class Request:
    strategy: str
    wall: float  # seconds, measured around run_generation
    scale: float = 1.0  # turns this request's times into times at the reference host speed
    prompt_s: float = 0.0  # the engine's prompt-phase wall time
    gen_s: float = 0.0  # the engine's generation-phase wall time
    output_tokens: list[int] = field(default_factory=list)
    flops: int = 0
    kv_bytes_peak: int = 0
    modeled_bytes: int = 0  # max over phases of KV peak plus touched weight bytes
    flops_by_phase: dict[str, int] = field(default_factory=dict)
    needle: tuple[float, int] | None = None  # (coverage, min distance)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


class Gate:
    """Runs requests for one workload and checks each against the references."""

    def __init__(self, wl: Workload, inputs: Inputs) -> None:
        self.wl = wl
        self.inputs = inputs
        self.table = costmodel.cost_table(
            costmodel.CostParams.from_weights(
                inputs.weights, n=len(inputs.prompt), k=wl.k, t=wl.t, r=wl.r
            )
        )
        self.configs = {
            s: runner.RunConfig(
                strategy=runner.Strategy(s),
                max_new_tokens=wl.t,
                select_k=wl.k,
                filter_layer=wl.r,
            )
            for s in STRATEGIES
        }
        self.references: dict[str, list[int]] = {}
        self.tally: dict[str, list[int]] = {}  # strategy -> [attempted, failed]

    def run(self, strategy: str) -> tuple[Request, "runner.RunResult | None"]:
        """Time one request; an exception becomes a failed request."""
        rc = self.configs[strategy]
        start = time.perf_counter()
        try:
            result = runner.run_generation(self.inputs.weights, self.inputs.prompt, rc)
        except Exception:  # a failing request is counted, not fatal
            wall = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            return Request(strategy, wall, failures=["raised"]), None
        return Request(strategy, time.perf_counter() - start), result

    def check(self, req: Request, result: "runner.RunResult | None") -> Request:
        """Fill in the request's measurements, apply the gate, and tally it."""
        counts = self.tally.setdefault(req.strategy, [0, 0])
        counts[0] += 1
        if result is not None:
            self._check(req, result)
        if req.failures:
            counts[1] += 1
        return req

    def _check(self, req: Request, result: "runner.RunResult") -> None:
        snap = result.session.snapshot()
        req.prompt_s = snap[PROMPT].wall_time
        req.gen_s = snap[GENERATION].wall_time
        req.output_tokens = [int(t) for t in result.output_tokens]
        req.flops = result.session.total_flops
        req.flops_by_phase = {p: c.matmul_flops for p, c in snap.items()}
        req.kv_bytes_peak = max(c.kv_bytes_peak for c in snap.values())
        req.modeled_bytes = max(c.kv_bytes_peak + c.weight_bytes_touched for c in snap.values())

        report = costmodel.verify_counters({req.strategy: snap}, self.table)
        if not report.ok:
            bad = ", ".join(f"{e.phase}/{e.term}" for e in report.mismatches)
            req.failures.append(f"counters differ from cost_table: {bad}")
        if len(req.output_tokens) != self.wl.t:
            req.failures.append(f"emitted {len(req.output_tokens)} tokens, expected {self.wl.t}")
        reference = self.references.get(req.strategy)
        if reference is not None and req.output_tokens != reference:
            req.failures.append("output tokens differ from the warm-up request")
        if req.prompt_s + req.gen_s > req.wall:
            req.failures.append(
                f"phase walls {req.prompt_s + req.gen_s:.6f}s exceed request wall {req.wall:.6f}s"
            )
        if self.inputs.needle_span is not None and req.strategy == "gemfilter":
            self._check_needle(req, result)

    def _check_needle(self, req: Request, result: "runner.RunResult") -> None:
        if result.selection is None:
            req.failures.append("gemfilter returned no selection")
            return
        coverage, distance = needle.coverage_and_distance(
            result.selection.indices, self.inputs.needle_span
        )
        req.needle = (float(coverage), int(distance))
        if coverage != 1.0 or distance != 0:
            req.failures.append(f"needle coverage {coverage} distance {distance}")
        full = self.references.get("full")
        if full is not None and req.output_tokens != full:
            req.failures.append("gemfilter continuation differs from full")

    def adopt_references(self, runs) -> list[Request]:
        """Take the warm-up runs' outputs as references, then gate the runs.

        The references are set only after every warm-up ran, so the warm-ups
        are gated like any other request (gemfilter against full's output).
        """
        for req, result in runs:
            if result is not None:
                self.references[req.strategy] = [int(t) for t in result.output_tokens]
        return [self.check(req, result) for req, result in runs]

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.tally.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.tally.values())
