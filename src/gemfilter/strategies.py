"""Prompt-phase KV cache compression baselines.

Two eviction families differ only in which positions they keep.  Both read
one score vector per query head from the prompt pass
(:func:`~gemfilter.model.run_layer`): the attention mass each key receives
from the last ``score_rows`` queries.

* SnapKV-style: the rows are the trailing observation window; smooth the
  scores with 1-D pooling, keep the best prefix positions plus the window
  itself.
* H2O-style: the rows are the whole prompt (cumulative column sums); keep
  the heaviest prefix positions plus a recency window.

Both keep an independent index set per layer and per kv-head (contrast with
the single global set the early-layer selection path uses).  Eviction is a
per-head gather from a full :class:`~gemfilter.model.LayerKV` into a smaller
one, so the evicted caches decode through the same
:func:`~gemfilter.model.decode_step` as full ones.  Retained keys keep their
original rotary positions; the observation window and the recency window
always keep position n - 1, so decode appends new tokens at positions n,
n+1, ... and the positional span grows to n + t.

:func:`compressed_prefill` is the one compression path: it evicts layer by
layer so that at most one layer's full KV is ever live alongside the
compressed caches, which is exactly the peak the closed-form memory model
charges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .kernels import pool_1d, topk_indices
from .model import LayerKV, ModelWeights, prefill


@dataclass(frozen=True)
class EvictionPolicyParams:
    observation_window: int = 32
    pool_kernel: int = 5
    recent_keep: int = 32
    pool_mode: str = "avg"
    # When False, the observation window is kept on top of the budget instead
    # of counting against it (SnapKV only).
    window_in_budget: bool = True

    def __post_init__(self) -> None:
        if self.observation_window < 1:
            raise ConfigurationError("observation_window must be >= 1")
        if self.pool_kernel < 1 or self.pool_kernel % 2 == 0:
            raise ConfigurationError("pool_kernel must be odd and >= 1")
        if self.recent_keep < 1:
            raise ConfigurationError("recent_keep must be >= 1")
        if self.pool_mode not in ("avg", "max"):
            raise ConfigurationError("pool_mode must be 'avg' or 'max'")


def cache_bytes(caches) -> int:
    """Exact bytes of key+value storage held by a list of layer caches."""
    return sum(cache.nbytes for cache in caches or ())


def snapkv_retained_indices(
    window_scores: np.ndarray, k: int, params: EvictionPolicyParams
) -> np.ndarray:
    """Ascending retained positions for one kv-head from window attention scores.

    Scores are pooled with :func:`~gemfilter.kernels.pool_1d` in
    ``params.pool_mode``; the best ``k - window`` prefix positions join the
    always-kept observation window.
    """
    n = window_scores.shape[0]
    w = params.observation_window
    if n < w:
        raise ContractViolation(f"prompt length {n} shorter than observation window {w}")
    budget = min(k, n)
    if budget >= n:
        return np.arange(n, dtype=np.int64)
    if k < w:
        raise ConfigurationError(f"budget k={k} smaller than observation window {w}")
    pooled = pool_1d(window_scores, params.pool_kernel, params.pool_mode)
    prefix = pooled[: n - w]
    n_prefix = (budget - w) if params.window_in_budget else min(k, n - w)
    picked = topk_indices(prefix, n_prefix) if n_prefix > 0 else np.empty(0, dtype=np.int64)
    window_positions = np.arange(n - w, n, dtype=np.int64)
    return np.sort(np.concatenate([picked, window_positions]))


def h2o_retained_indices(
    col_scores: np.ndarray, k: int, params: EvictionPolicyParams
) -> np.ndarray:
    """Ascending retained positions for one kv-head from cumulative column sums."""
    n = col_scores.shape[0]
    r = params.recent_keep
    budget = min(k, n)
    if budget >= n:
        return np.arange(n, dtype=np.int64)
    if k < r:
        raise ConfigurationError(f"budget k={k} smaller than recent_keep {r}")
    prefix = col_scores[: n - r]
    picked = topk_indices(prefix, budget - r) if budget - r > 0 else np.empty(0, dtype=np.int64)
    recent = np.arange(n - r, n, dtype=np.int64)
    return np.sort(np.concatenate([picked, recent]))


def _retained_indices(method: str):
    """The keep rule of ``method``.

    Resolved by name on each call, so wrappers installed on the module
    attributes (span tracing) see every call.
    """
    if method == "snapkv":
        return snapkv_retained_indices
    if method == "h2o":
        return h2o_retained_indices
    raise ConfigurationError(f"unknown compression method {method!r}")


def evict_layer(
    cache: LayerKV, scores: np.ndarray, k: int, params: EvictionPolicyParams, method: str
) -> LayerKV:
    """One layer's evicted cache: each kv-head keeps its own retained rows.

    ``scores`` is ``(n_heads, n)``; the query heads of each kv-head group are
    summed into that kv-head's score vector.
    """
    select = _retained_indices(method)
    per_kv = scores.reshape(cache.keys.shape[0], -1, scores.shape[1]).sum(axis=1)
    return cache.gather(np.stack([select(head, k, params) for head in per_kv]))


def compressed_prefill(
    tokens,
    weights: ModelWeights,
    method: str,
    k: int,
    params: EvictionPolicyParams,
    *,
    want_logits: bool = True,
) -> tuple[list[LayerKV], np.ndarray | None]:
    """Prompt pass that evicts each layer's KV as soon as the layer finishes.

    Peak live KV is one layer's full cache plus all compressed layers, the
    same quantity the cost model's prompt-memory row charges.  SnapKV scores
    keys from the observation window's rows, H2O from every prompt row.
    """
    _retained_indices(method)  # reject an unknown method before any layer runs
    pre = prefill(
        tokens,
        weights,
        want_logits=want_logits,
        evict=partial(evict_layer, k=k, params=params, method=method),
        score_rows=params.observation_window if method == "snapkv" else len(tokens),
    )
    return pre.caches, pre.logits
