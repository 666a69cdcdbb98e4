"""Per-run cost accounting.

A :class:`CostSession` collects exact work counters for one generation run,
split into the two phases of autoregressive inference: the prompt computation
pass and the iterative generation loop.  Only matrix products are counted
(one multiply-add = 2 FLOPs); elementwise work (norms, rotations, softmax,
activations) is excluded by convention so that the closed-form cost model can
be checked as exact integer identities.

Sessions are installed ambiently (a context variable), so the model code,
which charges every product it runs, reports work without threading a counter
argument through every call.  Concurrent runs each activate their own
session; nothing is shared.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace

PROMPT = "prompt"
GENERATION = "generation"
PHASES = (PROMPT, GENERATION)


@dataclass(slots=True)
class PhaseCost:
    """Exact counters for one phase of one run, measured or predicted.

    A :class:`CostSession` accumulates one per phase and
    :func:`~gemfilter.costmodel.cost_table` predicts one per strategy and
    phase; wall time is measured only.  Tags: ``attn_score`` is Q.K^T,
    ``attn_value`` probs.V, ``proj`` the q/k/v/o projections, ``mlp`` the
    MLP and ``logits`` the output embedding, each charged by
    :mod:`gemfilter.model` where it runs the product.
    """

    phase: str
    flops_by_tag: dict[str, int] = field(default_factory=dict)
    kv_bytes_peak: int = 0
    weight_bytes_touched: int = 0
    wall_time: float = 0.0

    @property
    def matmul_flops(self) -> int:
        return sum(self.flops_by_tag.values())

    @property
    def total_bytes(self) -> int:
        return self.kv_bytes_peak + self.weight_bytes_touched


class CostSession:
    """Accumulates exact FLOP, byte, and wall-time counters for one run.

    A session starts in the prompt phase; drivers switch phases with
    :meth:`in_phase`.  Counters are plain integers so equality checks against
    the predicted cost table are exact.
    """

    # A session's own bytes count in every run's traced memory peak, so it
    # has slots and makes a phase's counters when that phase is first entered.
    __slots__ = ("_costs", "_layers", "_phase")

    def __init__(self) -> None:
        self._costs = {PROMPT: PhaseCost(PROMPT)}
        self._layers = {PROMPT: 0}  # per phase, a bit per layer read
        self._phase = PROMPT

    @contextmanager
    def in_phase(self, name: str):
        if name not in PHASES:
            raise ValueError(f"unknown phase {name!r}")
        if name not in self._costs:
            self._costs[name] = PhaseCost(name)
            self._layers[name] = 0
        prev = self._phase
        self._phase = name
        start = time.perf_counter()
        try:
            yield self
        finally:
            self._costs[name].wall_time += time.perf_counter() - start
            self._phase = prev

    def count_matmul(self, tag: str, m: int, k: int, n: int) -> None:
        by_tag = self._costs[self._phase].flops_by_tag
        by_tag[tag] = by_tag.get(tag, 0) + 2 * m * k * n

    def note_kv_bytes(self, live_bytes: int) -> None:
        """Checkpoint the currently live KV storage; tracks the per-phase peak."""
        cost = self._costs[self._phase]
        if live_bytes > cost.kv_bytes_peak:
            cost.kv_bytes_peak = live_bytes

    def touch_layer(self, layer_idx: int, weight_bytes: int) -> None:
        """Record that a transformer layer's weights were read this phase."""
        bit = 1 << layer_idx
        if not self._layers[self._phase] & bit:
            self._layers[self._phase] |= bit
            self._costs[self._phase].weight_bytes_touched += weight_bytes

    def phase_cost(self, phase: str) -> PhaseCost:
        cost = self._costs.get(phase, PhaseCost(phase))
        return replace(cost, flops_by_tag=dict(cost.flops_by_tag))

    def snapshot(self) -> dict[str, PhaseCost]:
        return {phase: self.phase_cost(phase) for phase in PHASES}

    @property
    def total_flops(self) -> int:
        return sum(cost.matmul_flops for cost in self._costs.values())

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
