"""Prompt-phase KV cache compression baselines.

Two eviction families are implemented against the same cache contract:

* SnapKV-style: score every key by the attention mass it receives from the
  trailing observation window, smooth the scores with 1-D average pooling,
  keep the best prefix positions plus the window itself.
* H2O-style: score every key by its cumulative attention column sum over the
  whole prompt, keep the heaviest prefix positions plus a recency window.

Both keep an independent index set per layer and per kv-head (contrast with
the single global set the early-layer selection path uses).  Eviction is a
per-head gather from a full :class:`~gemfilter.model.LayerKV` into a smaller
one, so the evicted caches decode through the same
:func:`~gemfilter.model.decode_step` as full ones.  Retained keys keep their
original rotary positions; the observation window and the recency window
always keep position n - 1, so decode appends new tokens at positions n,
n+1, ... and the positional span grows to n + t.

:func:`compressed_prefill` evicts layer by layer so that at most one layer's
full KV is ever live alongside the compressed caches, which is exactly the
peak the closed-form memory model charges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .kernels import pool_1d, topk_indices
from .model import LayerAttnStats, LayerKV, ModelWeights, prefill


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


def _group_scores(per_head: np.ndarray, n_kv_heads: int) -> np.ndarray:
    """Sum per-query-head score vectors within each kv-head group."""
    h, n = per_head.shape
    if h % n_kv_heads != 0:
        raise ConfigurationError("query heads must divide evenly into kv heads")
    groups = h // n_kv_heads
    return per_head.reshape(n_kv_heads, groups, n).sum(axis=1)


def snapkv_retained_indices(
    window_scores: np.ndarray, k: int, params: EvictionPolicyParams
) -> np.ndarray:
    """Ascending retained positions for one kv-head from window attention scores.

    Scores are pooled with :func:`avg_pool_1d`; the best ``k - window`` prefix
    positions join the always-kept observation window.
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


def evict_layer(
    cache: LayerKV, stats: LayerAttnStats, k: int, params: EvictionPolicyParams, method: str
) -> LayerKV:
    """One layer's evicted cache: each kv-head keeps its own retained rows."""
    if method == "snapkv":
        per_head, select = stats.window_sums, snapkv_retained_indices
    elif method == "h2o":
        per_head, select = stats.col_sums, h2o_retained_indices
    else:
        raise ConfigurationError(f"unknown compression method {method!r}")
    per_kv = _group_scores(per_head, cache.keys.shape[0])
    return cache.gather(np.stack([select(scores, k, params) for scores in per_kv]))


def snapkv_compress(
    caches: list[LayerKV], stats: list[LayerAttnStats], k: int, params: EvictionPolicyParams
) -> list[LayerKV]:
    """Compress full prompt caches using observation-window attention scores."""
    return _compress(caches, stats, k, params, "snapkv")


def h2o_compress(
    caches: list[LayerKV], stats: list[LayerAttnStats], k: int, params: EvictionPolicyParams
) -> list[LayerKV]:
    """Compress full prompt caches using cumulative attention column sums."""
    return _compress(caches, stats, k, params, "h2o")


def _compress(caches, stats, k, params, method) -> list[LayerKV]:
    if not caches or len(caches) != len(stats):
        raise ContractViolation("compression needs one stats record per cached layer")
    if k < 1:
        raise ContractViolation("cache budget k must be >= 1")
    return [evict_layer(cache, st, k, params, method) for cache, st in zip(caches, stats)]


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
    same quantity the cost model's prompt-memory row charges.
    """
    window = params.observation_window if method == "snapkv" else 1
    pre = prefill(
        tokens,
        weights,
        want_logits=want_logits,
        stats_window=window,
        evict=partial(evict_layer, k=k, params=params, method=method),
    )
    return pre.caches, pre.logits
