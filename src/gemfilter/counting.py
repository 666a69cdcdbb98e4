"""Per-run cost accounting.

A :class:`CostSession` collects exact work counters for one generation run,
split into the two phases of autoregressive inference: the prompt computation
pass and the iterative generation loop.  Only matrix products are counted
(one multiply-add = 2 FLOPs); elementwise work (norms, rotations, softmax,
activations) is excluded by convention so that the closed-form cost model can
be checked as exact integer identities.

Sessions are installed ambiently (a context variable), so the numeric kernels
and model code report work without threading a counter argument through every
call.  Concurrent runs each activate their own session; nothing is shared.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

PROMPT = "prompt"
GENERATION = "generation"
PHASES = (PROMPT, GENERATION)

# Matmul categories. "attn_score" is Q.K^T, "attn_value" is probs.V,
# "proj" covers the q/k/v/o projections, "logits" the output embedding.
TAGS = ("attn_score", "attn_value", "proj", "mlp", "logits", "other")


@dataclass
class PhaseCost:
    """Final counters for one phase of one run."""

    phase: str
    matmul_flops: int = 0
    flops_by_tag: dict[str, int] = field(default_factory=dict)
    kv_bytes_peak: int = 0
    weight_bytes_touched: int = 0
    wall_time: float = 0.0


class _Tally:
    __slots__ = ("flops", "kv_peak", "layers", "wall")

    def __init__(self) -> None:
        self.flops: dict[str, int] = {}
        self.kv_peak = 0
        self.layers: dict[int, int] = {}  # layer idx -> weight bytes
        self.wall = 0.0


class CostSession:
    """Accumulates exact FLOP, byte, and wall-time counters for one run.

    A session starts in the prompt phase; drivers switch phases with
    :meth:`in_phase`.  Counters are plain integers so equality checks against
    the predicted cost table are exact.
    """

    def __init__(self) -> None:
        self._tallies: dict[str, _Tally] = {}
        self._phase = PROMPT

    def _tally(self, phase: str | None = None) -> _Tally:
        name = self._phase if phase is None else phase
        tally = self._tallies.get(name)
        if tally is None:
            tally = self._tallies[name] = _Tally()
        return tally

    @contextmanager
    def in_phase(self, name: str):
        if name not in PHASES:
            raise ValueError(f"unknown phase {name!r}")
        prev = self._phase
        self._phase = name
        start = time.perf_counter()
        try:
            yield self
        finally:
            self._tally(name).wall += time.perf_counter() - start
            self._phase = prev

    def count_matmul(self, tag: str, m: int, k: int, n: int) -> None:
        flops = 2 * m * k * n
        tally = self._tally()
        tally.flops[tag] = tally.flops.get(tag, 0) + flops

    def note_kv_bytes(self, live_bytes: int) -> None:
        """Checkpoint the currently live KV storage; tracks the per-phase peak."""
        tally = self._tally()
        if live_bytes > tally.kv_peak:
            tally.kv_peak = live_bytes

    def touch_layer(self, layer_idx: int, weight_bytes: int) -> None:
        """Record that a transformer layer's weights were read this phase."""
        self._tally().layers[layer_idx] = weight_bytes

    def phase_cost(self, phase: str) -> PhaseCost:
        tally = self._tallies.get(phase)
        if tally is None:
            return PhaseCost(phase=phase)
        return PhaseCost(
            phase=phase,
            matmul_flops=sum(tally.flops.values()),
            flops_by_tag=dict(tally.flops),
            kv_bytes_peak=tally.kv_peak,
            weight_bytes_touched=sum(tally.layers.values()),
            wall_time=tally.wall,
        )

    def snapshot(self) -> dict[str, PhaseCost]:
        return {phase: self.phase_cost(phase) for phase in PHASES}

    @property
    def total_flops(self) -> int:
        return sum(sum(t.flops.values()) for t in self._tallies.values())

    @contextmanager
    def activate(self):
        token = _ACTIVE.set(self)
        try:
            yield self
        finally:
            _ACTIVE.reset(token)


_ACTIVE: ContextVar[CostSession | None] = ContextVar("gemfilter_cost_session", default=None)


def count_matmul(tag: str, m: int, k: int, n: int) -> None:
    session = _ACTIVE.get()
    if session is not None:
        session.count_matmul(tag, m, k, n)


def note_kv_bytes(live_bytes: int) -> None:
    session = _ACTIVE.get()
    if session is not None:
        session.note_kv_bytes(live_bytes)


def touch_layer(layer_idx: int, weight_bytes: int) -> None:
    session = _ACTIVE.get()
    if session is not None:
        session.touch_layer(layer_idx, weight_bytes)
