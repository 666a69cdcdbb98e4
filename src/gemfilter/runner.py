"""One instrumented generation run per call, the same pipeline for every strategy.

Every strategy runs its prompt pass (:func:`~gemfilter.model.prefill`, with
the eviction and scored rows :func:`~gemfilter.strategies.prompt_pass` maps
it to), takes its first token from the logits of that pass's last hidden
row (:func:`~gemfilter.model.logits_from_hidden`, in the pass's phase), and
decodes the rest with :func:`~gemfilter.model.greedy_decode` against the
caches the pass kept.  The prompt pass bills the prompt phase and the
decode the generation phase.  Gemfilter differs in one way: its filter pass
(the same prefill stopped at layer ``r - 1``, plus layer ``r``'s Q/K) bills
the prompt phase, and its kept tokens replace the prompt, whose pass then
bills the generation phase (and is skipped when no token is asked for).
Every run gets a private :class:`CostSession`, so concurrent runs never
share counters.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from .counting import GENERATION, PROMPT, CostSession
from .errors import ContractViolation
from .kernels import argmax
from .model import ModelWeights, greedy_decode, logits_from_hidden, prefill
from .selection import SelectionResult, decode_selection, select_indices
# RunConfig and Strategy are importable from here too, where runs are made.
from .strategies import RunConfig, Strategy, prompt_pass


@dataclass
class RunResult:
    output_tokens: list[int]
    session: CostSession
    selection: SelectionResult | None = None


def run_generation(weights: ModelWeights, tokens, rc: RunConfig) -> RunResult:
    t = rc.max_new_tokens
    filters, evict, score_rows = prompt_pass(rc, np.size(tokens), weights.config.max_seq)
    session = CostSession()
    out, sel, phase = [], None, PROMPT
    with session.activate():
        if filters:
            with session.in_phase(PROMPT):
                sel = select_indices(weights, tokens, rc)
            tokens, phase = decode_selection(tokens, sel), GENERATION
        if t or not filters:
            with session.in_phase(phase):
                pre = prefill(tokens, weights, evict=evict, score_rows=score_rows)
                caches = pre.caches
                out = [argmax(logits_from_hidden(pre.hidden[-1], weights))] if t else []
                del pre  # its hidden rows are not decoded against
        if t:
            with session.in_phase(GENERATION):
                session.note_kv_bytes(sum(cache.nbytes for cache in caches))
                out += greedy_decode(weights, caches, out[0], t - 1)
    return RunResult(output_tokens=out, session=session, selection=sel)


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
    """One metrics record per run (serialized as one NDJSON line).

    ``params`` names the prompt length ``n``, every setting of ``rc`` but
    the strategy and every field of the model's config, each by its field
    name, and ``run_id`` hashes them all with the strategy and the tokens.
    """
    params = {"n": int(np.size(tokens)), **rc.settings(), **weights.config.to_dict()}
    doc: dict = {
        "run_id": deterministic_run_id(rc.strategy.value, tokens, params),
        "strategy": rc.strategy.value,
        "params": params,
        "phase_costs": [],
        "output_tokens": [int(t) for t in result.output_tokens],
    }
    wall_times = {}
    for phase, cost in result.session.snapshot().items():
        entry = {**asdict(cost), "matmul_flops": cost.matmul_flops}
        if not include_wall_times:
            del entry["wall_time"]
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
    try:
        fh = open(path, "a", encoding="utf-8")
    except OSError as exc:
        raise ContractViolation(f"cannot write metrics file {str(path)!r}: {exc.strerror}") from exc
    with fh:
        for doc in docs:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
