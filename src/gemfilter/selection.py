"""Early-layer token selection.

The filter pass is the first ``r`` (``RunConfig.filter_layer``) layers of
the same model: :func:`~gemfilter.model.prefill` runs the first ``r - 1``
in full, keeping no cache (none at all when ``r = 1``), then only the
opening of layer ``r`` runs: its RMS-norm, fused Q/K/V product and rotation
(:func:`~gemfilter.model.project_qkv`).  It scores every key position by the
summed last-row attention of layer ``r`` across all heads, and keeps the top
``k`` (``RunConfig.select_k``) positions as one global, sorted index set.
Layer ``r``'s attention and MLP never run: the scores need only its keys and
last-row query.  The scores read layer ``r``'s head-major keys in the layout
a cache holds them: under grouped-query attention each kv-head's keys are
contracted with the query heads of its group, the grouping attention itself
uses.  The second pass (driven by :func:`gemfilter.runner.run_generation`)
re-runs the full model over just the selected sub-sequence with fresh
positions 0..k-1 (the rotary embedding is recomputed, so the positional span
shrinks to k + t) and generates greedily.

Selection scores are raw inner products summed over heads: no softmax and no
1/sqrt(d) scale.  The scale alone would not change the top-k, since it
multiplies every head's scores by the same constant, and neither would a
softmax of a single head, which is strictly increasing.  Once heads are
summed, though, a per-head softmax reweights each head by its own
normaliser, so summed probabilities can keep a different set than summed
raw products; raw products are this engine's scoring rule, not an
equivalent of the probabilities.  The score readout is not charged to the
FLOP counters; only model matmuls are counted, and the filter pass's cost is
exactly the ``r - 1``-layer share of a full prompt pass plus layer ``r``'s
Q/K/V product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import note_kv_bytes
from .errors import ContractViolation
from .kernels import pool_1d, topk_indices
from .model import F32, ModelWeights, _chunks, check_filter_layer, prefill, project_qkv
from .strategies import RunConfig


@dataclass
class SelectionResult:
    """A single global index set: ascending positions, plus the raw scores."""

    indices: np.ndarray  # (min(k, n),) int64, strictly increasing
    raw_scores: np.ndarray  # (n,) pooled head-summed scores
    budget: int

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64)
        n = self.raw_scores.shape[0]
        if idx.ndim != 1 or idx.size != min(self.budget, n):
            raise ContractViolation("selection must keep min(budget, n) indices")
        if idx.size and (idx[0] < 0 or idx[-1] >= n):
            raise ContractViolation("selection index out of range")
        if idx.size > 1 and not np.all(np.diff(idx) > 0):
            raise ContractViolation("selection indices must be strictly increasing")
        self.indices = idx


def selection_scores(last_q: np.ndarray, keys: np.ndarray, pool_kernel: int) -> np.ndarray:
    """Average-pooled, head-summed inner products of the last query against all keys.

    ``last_q`` is the final position's per-head query ``(h, head_dim)`` and
    ``keys`` the head-major key matrix ``(h_kv, n, head_dim)``, as the cache
    holds it: query head ``j * g + i`` reads kv-head ``j``, so the query heads
    are grouped as ``(h_kv, g, head_dim)`` and contracted with the keys in
    float64 without copying a key per query head.  Heads are summed before
    pooling.
    """
    last_q = np.asarray(last_q)
    keys = np.asarray(keys)
    if last_q.ndim != 2 or keys.ndim != 3:
        raise ContractViolation("selection_scores expects (h, d) query and (h_kv, n, d) keys")
    h, d = last_q.shape
    if keys.shape[0] < 1 or h % keys.shape[0] or keys.shape[2] != d:
        raise ContractViolation(
            f"head layout mismatch: query {last_q.shape} vs keys {keys.shape}"
        )
    grouped = last_q.reshape(keys.shape[0], -1, d).astype(np.float64)
    scores = np.einsum("jnd,jgd->n", keys, grouped)
    return pool_1d(scores, pool_kernel)


def select_indices(weights: ModelWeights, tokens, rc: RunConfig) -> SelectionResult:
    """Run the ``rc.filter_layer``-layer filter pass and pick the top ``rc.select_k`` positions.

    Four steps: check the filter layer against the model; run the ``r - 1``
    layers before it through :func:`~gemfilter.model.prefill`, which checks
    the prompt and keeps no cache (at ``r = 1`` it only embeds); run only
    :func:`~gemfilter.model.project_qkv` of the filter layer, in prefill's
    row chunks, its keys filling one contiguous head-major ``(h_kv, n,
    head_dim)`` buffer, the layout a cache holds, so the float64 score sums
    match a full layer's bit for bit; and score with the last row's query.
    Only that query outlives its chunk, so the pass holds one chunk's
    product at a time.  Layers past it are never touched.  A budget larger
    than the prompt clamps to selecting everything.  The pooling and the
    lower bounds of ``k`` and ``r`` are :class:`RunConfig`'s to check.
    """
    cfg, r, k = weights.config, rc.filter_layer, rc.select_k
    check_filter_layer(r, cfg)
    x = prefill(tokens, weights, upto_layer=r - 1, evict=lambda cache, scores: None).hidden
    n, h = x.shape[0], cfg.n_heads
    keys = np.empty((cfg.n_kv_heads, n, cfg.head_dim), dtype=F32)
    for lo, hi in _chunks(n):
        qk = project_qkv(x[lo:hi], weights, r - 1, lo)[0]
        keys[:, lo:hi] = qk[:, h:].transpose(1, 0, 2)
        last_q = qk[-1, :h].copy()
        del qk  # drop the chunk's Q/K/V product before the next one is made
    del x
    note_kv_bytes(keys.nbytes)
    scores = selection_scores(last_q, keys, rc.pool_kernel)
    kept = topk_indices(scores, min(k, n))
    return SelectionResult(indices=np.sort(kept), raw_scores=scores, budget=k)


def decode_selection(tokens, sel: SelectionResult) -> list[int]:
    """The selected sub-sequence in original order, for display and reuse."""
    ids = np.asarray(tokens, dtype=np.int64)
    if sel.indices.size and (sel.indices[0] < 0 or sel.indices[-1] >= ids.size):
        raise ContractViolation("selection indices out of range for this sequence")
    return [int(t) for t in ids[sel.indices]]
