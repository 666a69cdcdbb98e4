"""The four strategies, their one settings object, and the positions each keeps.

In the paper the strategies differ only in which prompt positions survive,
and :func:`prompt_pass` is the one place they are told apart.  Full keeps
every position.  Gemfilter keeps one global top-k set, chosen by a filter
pass over the first ``r`` layers (:func:`~gemfilter.selection.select_indices`),
and its kept tokens replace the prompt.  SnapKV and H2O keep a set per layer
and per kv-head: the observation window plus the best prefix positions by
the window rows' attention, smoothed by 1-D pooling (snapkv), or a recency
window plus the heaviest prefix positions by every row's attention (h2o).

Both eviction rules read one score vector per kv-head from the prompt pass
(:func:`~gemfilter.model.prefill`): the attention mass each key receives
from the last ``score_rows`` queries.  Each layer is evicted, by a per-head
gather into a smaller :class:`~gemfilter.model.LayerKV`, as soon as it
finishes, so at most one full layer is live next to the evicted ones, and
evicted caches decode through the same :func:`~gemfilter.model.decode_step`
as full ones.  Retained keys keep their original rotary positions; both
windows keep position n - 1, so decode resumes at position n.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .kernels import check_pooling, pool_1d, topk_indices
from .model import LayerKV


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
    """Every setting of one generation run; a strategy reads the ones it needs.

    ``pool_kernel``/``pool_mode`` smooth gemfilter's selection scores and
    snapkv's window scores.  With ``window_in_budget`` False, snapkv keeps its
    observation window on top of the budget instead of inside it.
    """

    strategy: Strategy
    max_new_tokens: int = 16
    select_k: int = 64
    filter_layer: int = 1
    pool_kernel: int = 5
    pool_mode: str = "avg"
    include_first: bool = False
    observation_window: int = 32
    recent_keep: int = 32
    window_in_budget: bool = True

    def __post_init__(self) -> None:
        if self.observation_window < 1:
            raise ConfigurationError("observation_window must be >= 1")
        check_pooling(self.pool_kernel, self.pool_mode)
        if self.recent_keep < 1:
            raise ConfigurationError("recent_keep must be >= 1")
        if self.max_new_tokens < 0:
            raise ContractViolation("max_new_tokens must be >= 0")
        # The upper bound of filter_layer needs the model: select_indices checks it.
        if self.select_k < 1:
            raise ContractViolation("selection budget k must be >= 1")
        if self.filter_layer < 1:
            raise ContractViolation(f"filter layer {self.filter_layer} must be >= 1")

    @property
    def snapkv_extra_rows(self) -> int:
        """Rows snapkv keeps beyond ``select_k``: its window, when outside the budget."""
        return 0 if self.window_in_budget else self.observation_window


def check_budget(k: int, n: int, window: int, name: str) -> None:
    """Reject a budget ``k`` below the ``window`` positions always kept, unless ``k >= n``."""
    if k < n and k < window:
        raise ConfigurationError(f"budget k={k} smaller than {name} {window}")


def snapkv_retained_indices(window_scores: np.ndarray, k: int, rc: RunConfig) -> np.ndarray:
    """Ascending retained positions for one kv-head from window attention scores.

    Scores are pooled with :func:`~gemfilter.kernels.pool_1d` in
    ``rc.pool_mode``; the best ``k - window`` prefix positions join the
    always-kept observation window.
    """
    n = window_scores.shape[0]
    w = rc.observation_window
    if n < w:
        raise ContractViolation(f"prompt length {n} shorter than observation window {w}")
    if k >= n:
        return np.arange(n, dtype=np.int64)
    check_budget(k, n, w, "observation window")
    pooled = pool_1d(window_scores, rc.pool_kernel, rc.pool_mode)
    prefix = pooled[: n - w]
    n_prefix = (k - w) if rc.window_in_budget else min(k, n - w)
    picked = topk_indices(prefix, n_prefix) if n_prefix > 0 else np.empty(0, dtype=np.int64)
    window_positions = np.arange(n - w, n, dtype=np.int64)
    return np.sort(np.concatenate([picked, window_positions]))


def h2o_retained_indices(col_scores: np.ndarray, k: int, rc: RunConfig) -> np.ndarray:
    """Ascending retained positions for one kv-head from cumulative column sums."""
    n = col_scores.shape[0]
    r = rc.recent_keep
    if k >= n:
        return np.arange(n, dtype=np.int64)
    check_budget(k, n, r, "recent_keep")
    prefix = col_scores[: n - r]
    picked = topk_indices(prefix, k - r) if k - r > 0 else np.empty(0, dtype=np.int64)
    recent = np.arange(n - r, n, dtype=np.int64)
    return np.sort(np.concatenate([picked, recent]))


def evict_layer(cache: LayerKV, scores: np.ndarray, keep) -> LayerKV:
    """One layer's evicted cache: each kv-head keeps the rows ``keep`` picks for it.

    ``scores`` is ``(n_heads, n)``; the query heads of each kv-head group are
    summed into that kv-head's score vector, which ``keep`` maps to ascending
    retained positions.
    """
    per_kv = scores.reshape(cache.keys.shape[0], -1, scores.shape[1]).sum(axis=1)
    return cache.gather(np.stack([keep(head) for head in per_kv]))


def prompt_pass(rc: RunConfig, n: int):
    """How ``rc.strategy`` runs over an ``n``-token prompt.

    Returns ``(filters, evict, score_rows, window)``.  ``filters``: a filter
    pass first replaces the prompt with its kept tokens.  ``evict`` and
    ``score_rows`` go to :func:`~gemfilter.model.prefill`.  ``window`` is the
    ``(size, name)`` of the positions eviction always keeps, for
    :func:`check_budget`, or None.  The keep rules are looked up by name on
    each call, so wrappers installed on the module attributes (span tracing)
    see every call.
    """
    if rc.strategy is Strategy.SNAPKV:
        def evict(cache, scores):
            return evict_layer(
                cache, scores, lambda head: snapkv_retained_indices(head, rc.select_k, rc)
            )
        return False, evict, rc.observation_window, (rc.observation_window, "observation window")
    if rc.strategy is Strategy.H2O:
        def evict(cache, scores):
            return evict_layer(
                cache, scores, lambda head: h2o_retained_indices(head, rc.select_k, rc)
            )
        return False, evict, n, (rc.recent_keep, "recent_keep")
    return rc.strategy is Strategy.GEMFILTER, None, 0, None
