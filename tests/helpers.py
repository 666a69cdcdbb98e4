"""Shared test builders and brute-force oracles.

pytest does not collect this module (no ``test_`` prefix); test files import
it by name, since ``tests/`` is on ``sys.path`` both under pytest and when a
test file runs as a script.
"""

import math
import tracemalloc

import numpy as np

from gemfilter.config import ModelConfig
from gemfilter.model import embed, project_qkv
from gemfilter.runner import RunConfig, Strategy, run_generation
from gemfilter.testmodels import copy_model_config, make_copy_model


def config(m=2, h=2, hk=2, dh=8, vocab=64, hidden=32, use_rope=True, max_seq=4096):
    """A model shape with ``d_model = h * dh``."""
    return ModelConfig(
        n_layers=m,
        n_heads=h,
        n_kv_heads=hk,
        head_dim=dh,
        d_model=h * dh,
        vocab_size=vocab,
        hidden_mlp=hidden,
        use_rope=use_rope,
        max_seq=max_seq,
    )


def copy_weights():
    """The copy model at its default shape."""
    return make_copy_model(copy_model_config())


def snapshots(weights, tokens, **settings):
    """Each strategy's session snapshot after one run of ``tokens``, by strategy name."""
    return {
        s.value: run_generation(weights, tokens, RunConfig(s, **settings)).session.snapshot()
        for s in Strategy
    }


def traced_peak(fn, *args):
    """``fn(*args)`` and tracemalloc's peak over the call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def prompt_queries(w, tokens):
    """Layer 0's post-rotation queries ``(n, n_heads, head_dim)`` over the whole
    prompt, from one :func:`project_qkv` call: the rows prefill's first chunk
    projects when the prompt is one chunk."""
    return project_qkv(embed(tokens, w), w, 0, 0)[0][:, : w.config.n_heads]


# ---------------------------------------------------------------- oracles


def causal_probs(q, k):
    """One head's causal softmax ``(nq, nk)``, one row at a time, float64:
    query ``i`` sits at position ``nk - nq + i`` and sees the keys up to it."""
    q, k = np.asarray(q, dtype=np.float64), np.asarray(k, dtype=np.float64)
    nq, d = q.shape
    offset = k.shape[0] - nq
    probs = np.zeros((nq, k.shape[0]))
    for i in range(nq):
        limit = offset + i + 1
        scores = np.asarray([q[i] @ k[j] for j in range(limit)]) / math.sqrt(d)
        exps = np.exp(scores - scores.max())
        probs[i, :limit] = exps / exps.sum()
    return probs


def attention_oracle(q, k, v):
    """Causal attention of one query head: :func:`causal_probs` times the values."""
    probs, v = causal_probs(q, k), np.asarray(v, dtype=np.float64)
    offset = len(v) - len(q)
    return np.asarray(
        [sum(probs[i, j] * v[j] for j in range(offset + i + 1)) for i in range(len(q))]
    )


def pool_oracle(v, kernel):
    """Direct zero-padded window sum divided by the kernel size."""
    half = kernel // 2
    out = np.zeros(len(v))
    for i in range(len(v)):
        total = 0.0
        for j in range(max(0, i - half), min(len(v), i + half + 1)):
            total += float(v[j])
        out[i] = total / kernel
    return out


def topk_oracle(v, k):
    """Full sort by (-value, index)."""
    return sorted(range(len(v)), key=lambda i: (-float(v[i]), i))[:k]


def _keep(scores, k, window):
    """The trailing ``window`` positions plus the best ``k - window`` before them."""
    n = len(scores)
    return sorted(topk_oracle(scores[: n - window], k - window) + list(range(n - window, n)))


def snapkv_oracle(probs_per_head, k, window, kernel):
    """Brute-force retained set from explicit per-head probability matrices."""
    n = probs_per_head[0].shape[0]
    scores = np.zeros(n)
    for probs in probs_per_head:
        scores += probs[n - window :].sum(axis=0)
    return _keep(pool_oracle(scores, kernel), k, window)


def h2o_oracle(probs_per_head, k, recent):
    n = probs_per_head[0].shape[0]
    scores = np.zeros(n)
    for probs in probs_per_head:
        scores += probs.sum(axis=0)
    return _keep(scores, k, recent)
