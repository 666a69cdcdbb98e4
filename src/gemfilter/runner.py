"""Strategy dispatch: one instrumented generation run per call.

Phase discipline lives here, for every strategy.  Full, snapkv and h2o: the
prompt pass bills the prompt phase, the first output token comes from that
pass's logits, and each further token is one decode step in the generation
phase.  Gemfilter: the filter pass bills the prompt phase, and everything
about the second pass over the kept tokens, its prefill included, bills the
generation phase.  Every run gets a private :class:`CostSession`, so
concurrent runs never share counters.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .counting import GENERATION, PROMPT, CostSession
from .errors import ConfigurationError, ContractViolation
from .kernels import argmax
from .model import ModelWeights, greedy_decode, greedy_generate, prefill
from .selection import SelectionResult, decode_selection, select_indices
from .strategies import EvictionPolicyParams, cache_bytes, compressed_prefill


class Strategy(str, Enum):
    FULL = "full"
    GEMFILTER = "gemfilter"
    SNAPKV = "snapkv"
    H2O = "h2o"

    @classmethod
    def parse(cls, name: str) -> "Strategy":
        try:
            return cls(name.lower())
        except ValueError:
            raise ConfigurationError(
                f"unknown strategy {name!r}; expected one of {[s.value for s in cls]}"
            ) from None


@dataclass(frozen=True)
class RunConfig:
    strategy: Strategy
    max_new_tokens: int = 16
    select_k: int = 64
    filter_layer: int = 1
    pool_kernel: int = 5
    pool_mode: str = "avg"
    include_first: bool = False
    eviction: EvictionPolicyParams = field(default_factory=EvictionPolicyParams)


@dataclass
class RunResult:
    output_tokens: list[int]
    session: CostSession
    selection: SelectionResult | None = None


def run_generation(weights: ModelWeights, tokens, rc: RunConfig) -> RunResult:
    t = rc.max_new_tokens
    if t < 0:
        raise ContractViolation("max_new_tokens must be >= 0")
    # Decoding t tokens after kept prompt positions writes positions up to
    # kept + t - 2; reject an overrun before any layer runs.  Gemfilter's
    # second pass restarts at position 0 over min(k, n) tokens.  Empty and
    # overlong prompts are left to the prompt-length check.
    n, max_seq = np.size(tokens), weights.config.max_seq
    kept = min(rc.select_k, n) if rc.strategy is Strategy.GEMFILTER else n
    if 1 <= n <= max_seq and t >= 1 and kept + t - 1 > max_seq:
        raise ContractViolation(
            f"kept prompt length {kept} + max_new_tokens {t} - 1 exceeds max_seq {max_seq}"
        )
    session = CostSession()
    with session.activate():
        if rc.strategy is Strategy.GEMFILTER:
            out, sel = _select_then_generate(weights, tokens, rc, session)
        else:
            out, sel = _prompt_then_decode(weights, tokens, rc, session), None
    return RunResult(output_tokens=out, session=session, selection=sel)


def _select_then_generate(weights, tokens, rc, session):
    """Filter pass over the prompt, then full-model greedy over the kept tokens."""
    with session.in_phase(PROMPT):
        sel = select_indices(
            weights, tokens, rc.filter_layer, rc.select_k,
            rc.pool_kernel, rc.include_first, rc.pool_mode,
        )
    if rc.max_new_tokens == 0:
        return [], sel
    sub = decode_selection(tokens, sel)
    with session.in_phase(GENERATION):
        return greedy_generate(weights, sub, rc.max_new_tokens), sel


def _prompt_then_decode(weights, tokens, rc, session) -> list[int]:
    """Full or evicted prompt caches, then greedy decode against them."""
    t = rc.max_new_tokens
    with session.in_phase(PROMPT):
        if rc.strategy is Strategy.FULL:
            pre = prefill(tokens, weights, want_logits=t >= 1)
            caches, logits = pre.caches, pre.logits
            del pre  # its hidden rows and last-layer Q/K are not decoded against
        else:
            caches, logits = compressed_prefill(
                tokens, weights, rc.strategy.value, rc.select_k, rc.eviction, want_logits=t >= 1
            )
        if t == 0:
            return []
        first = argmax(logits)
    with session.in_phase(GENERATION):
        session.note_kv_bytes(cache_bytes(caches))
        return [first] + greedy_decode(weights, caches, first, t - 1)


def deterministic_run_id(strategy: str, tokens, params: dict) -> str:
    """Stable id derived from the run inputs; keeps metrics byte-reproducible."""
    payload = json.dumps(
        {"strategy": strategy, "tokens": list(map(int, tokens)), "params": params},
        sort_keys=True,
    ).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def metrics_document(
    *,
    weights: ModelWeights,
    tokens,
    rc: RunConfig,
    result: RunResult,
    include_wall_times: bool = True,
    include_scores: bool = False,
) -> dict:
    """One metrics record per run (serialized as one NDJSON line)."""
    cfg = weights.config
    params = {
        "n": int(np.asarray(tokens).size),
        "k": rc.select_k,
        "t": rc.max_new_tokens,
        "r": rc.filter_layer,
        "m": cfg.n_layers,
        "h": cfg.n_heads,
        "d": cfg.head_dim,
    }
    doc: dict = {
        "run_id": deterministic_run_id(rc.strategy.value, tokens, params),
        "strategy": rc.strategy.value,
        "params": params,
        "phase_costs": [],
        "output_tokens": [int(t) for t in result.output_tokens],
    }
    wall_times = {}
    for phase, cost in result.session.snapshot().items():
        entry = {
            "phase": phase,
            "matmul_flops": cost.matmul_flops,
            "flops_by_tag": cost.flops_by_tag,
            "kv_bytes_peak": cost.kv_bytes_peak,
            "weight_bytes_touched": cost.weight_bytes_touched,
        }
        if include_wall_times:
            entry["wall_time"] = cost.wall_time
        wall_times[phase] = cost.wall_time
        doc["phase_costs"].append(entry)
    if result.selection is not None:
        selection = {"indices": [int(i) for i in result.selection.indices]}
        if include_scores:
            selection["scores"] = [float(s) for s in result.selection.raw_scores]
        doc["selection"] = selection
    if include_wall_times:
        doc["wall_times"] = wall_times
    return doc


def write_metrics(path, docs) -> None:
    """Append newline-delimited JSON documents (UTF-8)."""
    with open(path, "a", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
