"""Synthetic needle-in-a-haystack harness.

A needle token sequence is planted at a controlled depth inside a filler
haystack, a query token is appended, and the selection path is asked to find
it.  Scoring is exact rather than graded: per filter layer we report the
fraction of needle positions the selection covered and the minimum absolute
index distance from any selected position to the needle span (0 means the
span was hit).  When a single filter layer is given, the harness also checks
whether two-pass generation reproduces the full model's continuation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import check_field_types, is_integer
from .errors import ConfigurationError, ContractViolation
from .model import ModelWeights, check_filter_layer, check_prompt_length
from .runner import RunConfig, Strategy, run_generation
from .strategies import prompt_pass

METRIC_NOTE = (
    "exact metrics: coverage = |needle indices in selection| / needle length; "
    "min_distance = min absolute index distance from selection to the needle span "
    "(0 = overlap); no graded scoring"
)


@dataclass(frozen=True)
class NeedleSpec:
    haystack_len: int
    depth_percent: float
    needle: tuple[int, ...]
    query_token: int
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        if not isinstance(self.needle, tuple) or not all(map(is_integer, self.needle)):
            raise ConfigurationError(
                f"needle must be a tuple of integer token ids, got {self.needle!r}"
            )
        if self.seed < 0:
            raise ContractViolation(f"seed must be >= 0, got {self.seed}")
        if self.haystack_len < 1:
            raise ContractViolation("haystack_len must be >= 1")
        if not 0 <= self.depth_percent <= 100:
            raise ContractViolation("depth_percent must lie in [0, 100]")
        if not self.needle:
            raise ContractViolation("needle must be non-empty")
        if len(self.needle) > self.haystack_len:
            raise ContractViolation("needle must fit inside the haystack")

    @property
    def insertion_index(self) -> int:
        return int(self.depth_percent / 100.0 * (self.haystack_len - len(self.needle)))


def build_needle_prompt(spec: NeedleSpec, vocab_size: int) -> tuple[list[int], tuple[int, int]]:
    """Build the prompt and needle span: haystack with the needle spliced in,
    then the query token appended as the final position.

    Filler tokens are drawn (seeded) from byte ids not used by the needle or
    the query, so the needle is the only content matching the query.
    """
    for tid in (*spec.needle, spec.query_token):
        if not 0 <= tid < vocab_size:
            raise ContractViolation(f"token id {tid} outside vocabulary of size {vocab_size}")
    forbidden = set(spec.needle) | {spec.query_token}
    pool = [t for t in range(min(vocab_size, 256)) if t not in forbidden]
    if not pool:
        raise ContractViolation("no filler tokens available outside the needle alphabet")
    rng = np.random.default_rng(spec.seed)
    filler = rng.choice(np.asarray(pool, dtype=np.int64), size=spec.haystack_len)
    start = spec.insertion_index
    tokens = filler.copy()
    tokens[start : start + len(spec.needle)] = np.asarray(spec.needle, dtype=np.int64)
    prompt = tokens.tolist() + [spec.query_token]
    return prompt, (start, start + len(spec.needle))


@dataclass
class NeedleLayerResult:
    layer: int
    coverage: float
    min_distance: int


@dataclass
class NeedleReport:
    """A needle run's scores, with the settings its gemfilter runs used.

    ``rc`` is the first layer's run: ``filter_layer`` is ``r_list[0]`` and
    ``max_new_tokens`` the tokens that run generated.
    """

    spec: NeedleSpec
    rc: RunConfig
    layer_results: list[NeedleLayerResult]
    generation_match: bool | None = None

    def to_dict(self) -> dict:
        return {
            "metric_note": METRIC_NOTE,
            "haystack_len": self.spec.haystack_len,
            "depth_percent": self.spec.depth_percent,
            "needle_len": len(self.spec.needle),
            **self.rc.settings(),
            "layers": [
                {"layer": lr.layer, "coverage": lr.coverage, "min_distance": lr.min_distance}
                for lr in self.layer_results
            ],
            "generation_match": self.generation_match,
        }


def coverage_and_distance(indices: np.ndarray, span: tuple[int, int]) -> tuple[float, int]:
    start, end = span
    if not len(indices):
        raise ContractViolation("coverage_and_distance expects at least one index")
    inside = np.count_nonzero((indices >= start) & (indices < end))
    distance = 0 if inside else int(np.maximum(start - indices, indices - (end - 1)).min())
    return inside / (end - start), distance


def needle_run(spec: NeedleSpec, weights: ModelWeights, r_list, rc: RunConfig) -> NeedleReport:
    """Score the selection path against a planted needle.

    ``rc`` gives the selection settings and ``max_new_tokens``; every run is
    gemfilter's, at each filter layer of ``r_list`` in turn, so ``rc``'s
    strategy and filter layer are not read.  For every layer: run the
    gemfilter prompt phase and record the selection's coverage and distance.
    With a single layer, that run also generates ``rc.max_new_tokens``
    tokens, which are compared against full-model generation on the same
    prompt.  Each planned run's filter layer and decode bound
    (:func:`~gemfilter.strategies.prompt_pass`) are checked before the first runs.
    """
    if not r_list:
        raise ContractViolation("r_list must name at least one filter layer")
    cfg, n = weights.config, spec.haystack_len + 1  # haystack plus query
    check_prompt_length(n, cfg)
    # A single layer's selection run also generates, for the two-pass check.
    t = rc.max_new_tokens if len(r_list) == 1 else 0
    first = replace(rc, strategy=Strategy.GEMFILTER, max_new_tokens=t, filter_layer=r_list[0])
    runs = [replace(first, filter_layer=r) for r in r_list]
    full = [replace(first, strategy=Strategy.FULL)] if t else []
    for run in runs + full:
        check_filter_layer(run.filter_layer, cfg)
        prompt_pass(run, n, cfg.max_seq)
    prompt, span = build_needle_prompt(spec, cfg.vocab_size)
    results = []
    for run in runs:
        gem = run_generation(weights, prompt, run)
        coverage, dist = coverage_and_distance(gem.selection.indices, span)
        results.append(NeedleLayerResult(run.filter_layer, coverage, dist))
    full_tokens = [run_generation(weights, prompt, run).output_tokens for run in full]
    match = gem.output_tokens == full_tokens[0] if full else None
    return NeedleReport(spec=spec, rc=first, layer_results=results, generation_match=match)
