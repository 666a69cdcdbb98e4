"""The four strategies, their one settings object, and the positions each keeps.

In the paper the strategies differ only in which prompt positions survive,
and :func:`prompt_pass` is the one place they are told apart.  Full keeps
every position.  Gemfilter keeps one global top-k set, chosen by a filter
pass over the first ``r`` layers (:func:`~gemfilter.selection.select_indices`),
and its kept tokens replace the prompt.  SnapKV and H2O keep a set per layer
and per kv-head through one rule, :func:`keep_positions`: a trailing window
plus the best positions before it, the window being ``RunConfig.window``
for both.  SnapKV scores with the window rows' attention (its observation
window), smoothed by 1-D average pooling; H2O scores with every row's
attention (the window is its recent window).

Both rules read one score vector per kv-head from the prompt pass
(:func:`~gemfilter.model.prefill`): the attention mass each key receives
from the last ``score_rows`` queries.  Each layer is evicted, by a per-head
gather into a smaller :class:`~gemfilter.model.LayerKV`, as soon as it
finishes, so at most one full layer is live next to the evicted ones, and
evicted caches decode through the same :func:`~gemfilter.model.decode_step`
as full ones, from position n, their kept keys rotated at their own positions.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .config import check_field_types
from .errors import ConfigurationError, ContractViolation
from .kernels import check_pooling, pool_1d, topk_indices


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

    ``select_k`` is the number of prompt positions kept: gemfilter's global
    set, and each snapkv/h2o layer's set per kv-head, window included.
    ``pool_kernel`` average-pools gemfilter's selection scores and snapkv's
    window scores.  ``window`` is the trailing span snapkv and h2o always
    keep, and the rows snapkv scores with.  Every field is checked once,
    here, its type first.
    """

    strategy: Strategy
    max_new_tokens: int = 16
    select_k: int = 64
    filter_layer: int = 1
    pool_kernel: int = 5
    window: int = 32

    def __post_init__(self) -> None:
        if not isinstance(self.strategy, Strategy):
            raise ConfigurationError(
                f"strategy must be a Strategy, got {self.strategy!r}; Strategy.parse reads a name"
            )
        check_field_types(self)
        if self.window < 1:
            raise ConfigurationError("window must be >= 1")
        check_pooling(self.pool_kernel)
        if self.max_new_tokens < 0:
            raise ContractViolation("max_new_tokens must be >= 0")
        # The upper bound of filter_layer needs the model: check_filter_layer checks it.
        if self.select_k < 1:
            raise ContractViolation("selection budget k must be >= 1")
        if self.filter_layer < 1:
            raise ContractViolation(f"filter layer {self.filter_layer} must be >= 1")

    def settings(self) -> dict:
        """Every setting but the strategy, by field name: what a run record names."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "strategy"}


def keep_positions(scores: np.ndarray, budget: int, window: int) -> np.ndarray:
    """The one keep rule: the ascending positions a kv-head keeps of ``n = len(scores)``.

    Every position when ``budget >= n``; otherwise the last ``window``
    positions plus the ``budget - window`` best-scoring positions before
    them, ties going to the lower index.
    """
    n = len(scores)
    if budget >= n:
        return np.arange(n, dtype=np.int64)
    if budget < window:
        raise ContractViolation(f"budget {budget} below the {window} positions always kept")
    kept = np.zeros(n, dtype=bool)
    kept[n - window :] = True
    if budget > window:
        kept[topk_indices(scores[: n - window], budget - window)] = True
    return np.flatnonzero(kept)


def snapkv_retained_indices(window_scores: np.ndarray, rc: RunConfig) -> np.ndarray:
    """snapkv's positions for one kv-head: its window plus the best pooled prefix.

    The window rows' attention is average-pooled with
    :func:`~gemfilter.kernels.pool_1d` over every position, window included.
    """
    pooled = pool_1d(window_scores, rc.pool_kernel)
    return keep_positions(pooled, rc.select_k, rc.window)


def h2o_retained_indices(col_scores: np.ndarray, rc: RunConfig) -> np.ndarray:
    """h2o's positions for one kv-head: its recent window plus the heaviest prefix."""
    return keep_positions(col_scores, rc.select_k, rc.window)


def prompt_pass(rc: RunConfig, n: int, max_seq: int):
    """How ``rc.strategy`` runs over an ``n``-token prompt: ``(filters, evict, score_rows)``.

    ``filters``: a filter pass first replaces the prompt with its kept tokens.
    ``evict`` and ``score_rows`` go to :func:`~gemfilter.model.prefill`.  The
    table of keep rules is built on each call from the module attributes, so
    wrappers installed on them (span tracing) are what runs.  Rejected here,
    before any layer runs: first a decode past ``max_seq`` (gemfilter's
    second pass restarts at position 0 over ``min(k, n)`` tokens), then a
    budget ``select_k`` below ``rc.window``, which snapkv and h2o always keep
    (full and gemfilter keep no window).  Empty, overlong and
    shorter-than-window prompts are left to prefill's checks.
    """
    filters = rc.strategy is Strategy.GEMFILTER
    k, t, w = rc.select_k, rc.max_new_tokens, rc.window
    rule, score_rows = {
        Strategy.SNAPKV: (snapkv_retained_indices, w),
        Strategy.H2O: (h2o_retained_indices, n),
    }.get(rc.strategy, (None, 0))
    if 1 <= n <= max_seq:
        kept = min(k, n) if filters else n
        if t >= 1 and kept + t - 1 > max_seq:
            raise ContractViolation(
                f"kept prompt length {kept} + max_new_tokens {t} - 1 exceeds max_seq {max_seq}"
            )
        if rule is not None and score_rows <= n and k < min(n, w):
            raise ConfigurationError(
                f"budget k={k} smaller than the {w} positions {rc.strategy.value} always keeps"
            )
    if rule is None:
        return filters, None, 0

    def evict(cache, scores):
        return cache.gather(np.stack([rule(head, rc) for head in scores]))

    return False, evict, score_rows
