"""The row-chunked prompt pass: bit parity across chunk sizes, and traced memory."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gemfilter import model
from gemfilter.costmodel import CostParams, cost_table
from gemfilter.counting import PROMPT
from gemfilter.model import ROW_BLOCK, logits_from_hidden, prefill
from gemfilter.runner import RunConfig, Strategy, run_generation
from gemfilter.selection import select_indices
from gemfilter.strategies import prompt_pass
from gemfilter.testmodels import copy_model_config, make_copy_model, make_random_model
from helpers import config, copy_weights, traced_peak

C = 64  # the chunk size the parity tests compare against one whole-prompt chunk


def chunk_bounds(n):
    return list(model._chunks(n))


def test_chunks_cover_the_prompt_and_merge_a_one_row_tail(monkeypatch):
    monkeypatch.setattr(model, "CHUNK_ROWS", C)
    assert model.CHUNK_ROWS % ROW_BLOCK == 0
    assert chunk_bounds(1) == [(0, 1)]
    assert chunk_bounds(C) == [(0, C)]
    assert chunk_bounds(C + 1) == [(0, C + 1)]
    assert chunk_bounds(C + 2) == [(0, C), (C, C + 2)]
    assert chunk_bounds(2 * C + 1) == [(0, C), (C, 2 * C + 1)]
    for n in range(1, 4 * C):
        bounds = chunk_bounds(n)
        assert [lo for lo, _ in bounds[1:]] == [hi for _, hi in bounds[:-1]]
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(lo % C == 0 for lo, _ in bounds)
        assert n == 1 or all(hi - lo > 1 for lo, hi in bounds)


def observe(w, tokens, strategy, gathered_rows):
    """Every observable of one run, and of the same prompt pass with its evictions.

    ``gathered_rows`` is the gather spy's list: the rows each eviction of the
    run and of the pass kept per head are read from it.
    """
    start = len(gathered_rows)
    n = len(tokens)
    window = min(4, n)
    rc = RunConfig(
        strategy, max_new_tokens=3, select_k=16, filter_layer=2,
        window=window, pool_kernel=3,
    )
    result = run_generation(w, tokens, rc)
    counters = {
        phase: (cost.flops_by_tag, cost.kv_bytes_peak, cost.weight_bytes_touched)
        for phase, cost in result.session.snapshot().items()
    }
    sel = result.selection
    _, evict, score_rows = prompt_pass(rc, n, w.config.max_seq)
    layers = []

    def spy(cache, scores):
        kept = cache if evict is None else evict(cache, scores)
        layers.append(
            (
                None if scores is None else scores.copy(),
                cache.keys.copy(), cache.values.copy(), cache.next_position,
                None if kept is None else (kept.next_position, kept.keys, kept.values),
            )
        )
        return kept

    pre = prefill(tokens, w, evict=spy, score_rows=score_rows)
    return {
        "tokens": result.output_tokens,
        "counters": counters,
        "selection": None if sel is None else (sel.indices, sel.raw_scores),
        "layers": layers,
        "kept_rows": gathered_rows[start:],
        "hidden": pre.hidden,
        "logits": logits_from_hidden(pre.hidden[-1], w),
    }


def assert_bit_equal(a, b, path="run"):
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape, path
        assert a.tobytes() == b.tobytes(), path
    elif isinstance(a, (tuple, list)):
        assert type(a) is type(b) and len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_bit_equal(x, y, f"{path}[{i}]")
    elif isinstance(a, dict):
        assert list(a) == list(b), path
        for key in a:
            assert_bit_equal(a[key], b[key], f"{path}.{key}")
    else:
        assert a == b, path


@pytest.mark.parametrize("h, hk", [(4, 4), (4, 2), (4, 1)], ids=["g1", "g2", "g4"])
@pytest.mark.parametrize("n", [1, C - 1, C, C + 1, C + 2, 2 * C + 1])
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_chunked_pass_bit_equals_one_chunk(monkeypatch, gathered_rows, strategy, n, h, hk):
    """64-row chunks give the bits of one whole-prompt chunk: tokens, selection,
    eviction scores and kept positions per head, caches, hidden rows, counters.
    At n = C + 1 and C + 2 the 4-row snapkv window straddles a chunk boundary."""
    cfg = config(m=2, h=h, hk=hk, dh=8, vocab=64, hidden=24, max_seq=512)
    w = make_random_model(cfg, 3 + hk)
    tokens = np.random.default_rng(n).integers(0, 64, n).tolist()
    monkeypatch.setattr(model, "CHUNK_ROWS", C)
    chunked = observe(w, tokens, strategy, gathered_rows)
    monkeypatch.setattr(model, "CHUNK_ROWS", 4 * C)
    whole = observe(w, tokens, strategy, gathered_rows)
    assert_bit_equal(chunked, whole)


# The ROADMAP profile model.
PROFILE = config(m=8, h=4, hk=2, dh=16, vocab=260, hidden=128, max_seq=8192)


def traced_request_peak(w, tokens, rc):
    """tracemalloc's peak over one whole request: prompt pass and generation."""
    tracemalloc.start()
    try:
        run_generation(w, tokens, rc)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_excess(w, n, strategy):
    """A prompt-only run's tracemalloc peak minus cost_table's modeled KV peak."""
    rc = RunConfig(strategy, max_new_tokens=0, select_k=256, filter_layer=3)
    tokens = np.random.default_rng(n).integers(0, 256, n).tolist()
    peak = traced_request_peak(w, tokens, rc)
    params = CostParams.from_weights(w, n=n, k=256, t=0, r=3)
    return peak - cost_table(params)[strategy.value][PROMPT].kv_bytes_peak


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_traced_prompt_memory_grows_like_the_modeled_kv(strategy):
    """From n = 1024 to 2048, what the prompt pass holds beyond the modeled KV
    bytes grows by at most the residual stream (n x d_model float32), one
    head's (ROW_BLOCK, n) float32 score block, the prompt's int64 token ids,
    and 4 KiB of interpreter objects; snapkv and h2o also hold their float64
    eviction accumulators, one row per query head and the per-kv-head sums.
    Transients with one row per prompt token (whole-prompt Q/K/V or MLP rows)
    or one score block per head break it."""
    cfg = PROFILE
    w = make_random_model(cfg, 1)
    # Fill the rotary table first: a model keeps it, so it is no run's transient.
    run_generation(w, [i % 256 for i in range(2048)], RunConfig(strategy, max_new_tokens=0))
    small, large = (traced_excess(w, n, strategy) for n in (1024, 2048))
    grown = 1024
    evicting = strategy in (Strategy.SNAPKV, Strategy.H2O)
    allowed = (
        grown * cfg.d_model * 4
        + ROW_BLOCK * grown * 4
        + grown * 8
        + evicting * (cfg.n_heads + cfg.n_kv_heads) * grown * 8
        + 4096
    )
    assert large - small <= allowed, (large - small, allowed)


# Whole requests on the benchmark's two shapes: name -> (weights, n, k, r).
REQUEST_SHAPES = {
    "copy-n2049": (copy_weights, 2049, 64, 1),
    "profile-n1024": (lambda: make_random_model(PROFILE, 1), 1024, 256, 3),
}


@pytest.mark.parametrize("shape", list(REQUEST_SHAPES))
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_decoding_adds_to_a_request_peak_only_the_rows_it_decodes(strategy, shape):
    """From t = 1 to t = 64, a request's traced peak grows by at most the K/V
    of the 63 rows it decodes into each layer's kv-heads, plus 4 KiB of
    interpreter objects.  Growing the caches for those rows
    copies one part of one layer at a time; a copy that holds a whole layer
    twice breaks it on the copy model, where one layer's keys outweigh what
    the prompt pass holds beyond its caches."""
    build, n, k, r = REQUEST_SHAPES[shape]
    w = build()
    cfg = w.config
    tokens = np.random.default_rng(n).integers(0, 256, n).tolist()
    rc = RunConfig(strategy, max_new_tokens=64, select_k=k, filter_layer=r)
    run_generation(w, tokens, rc)  # fill the rotary table: a model keeps it
    one, many = (
        traced_request_peak(w, tokens, replace(rc, max_new_tokens=t)) for t in (1, 64)
    )
    row = cfg.n_layers * cfg.n_kv_heads * 2 * cfg.head_dim * 4
    allowed = 63 * row + 4096
    assert many - one <= allowed, (many - one, allowed)


def test_the_filter_pass_holds_one_chunks_product():
    """The r = 1 filter pass on the copy model at n = 2049 holds at most the
    residual stream, the filter layer's keys, the largest chunk's normed rows
    and ``h_kv * head_dim``-wide key product, one query row, the prompt's
    int64 ids and 4 KiB of interpreter objects.  Holding a chunk's product
    while the next one is made, a V product, or a Q product over more than
    the last row breaks it."""
    cfg = copy_model_config()
    w = make_copy_model(cfg)
    n = 2049
    tokens = np.random.default_rng(n).integers(0, 256, n).tolist()
    rc = RunConfig(Strategy.GEMFILTER, select_k=64, filter_layer=1)
    _, peak = traced_peak(select_indices, w, tokens, rc)
    rows = max(hi - lo for lo, hi in model._chunks(n))
    kv_width = cfg.n_kv_heads * cfg.head_dim
    allowed = 4 * (
        n * cfg.d_model
        + cfg.n_kv_heads * n * cfg.head_dim
        + rows * (cfg.d_model + kv_width)
        + cfg.d_model
    ) + 8 * n + 4096
    assert peak <= allowed, (peak, allowed)


def test_a_chunk_holds_one_query_sized_array_through_attention(monkeypatch):
    """Through a 256-row chunk's attention, run_layer holds its Q copy and
    attention holds one head's score block, one block's value product, the
    buffer numpy's ufuncs take to broadcast a row statistic over the block
    in place (``np.getbufsize()`` elements) and 4 KiB of interpreter objects:
    the output overwrites the Q copy, so no second Q-sized array exists."""
    cfg = PROFILE
    w = make_random_model(cfg, 1)
    rows = model.CHUNK_ROWS
    x = model.embed(np.arange(rows) % cfg.vocab_size, w)
    cache = model.LayerKV.empty(cfg.n_kv_heads, cfg.head_dim, rows)
    w.rope(0, rows)  # fill the rotary table: a model keeps it
    attention, seen = model._attention, {}

    def traced_attention(*args, **kwargs):
        tracemalloc.reset_peak()
        out = attention(*args, **kwargs)
        seen["peak"] = tracemalloc.get_traced_memory()[1]
        return out

    monkeypatch.setattr(model, "_attention", traced_attention)
    tracemalloc.start()
    try:
        model.run_layer(x, w, 0, cache)
    finally:
        tracemalloc.stop()
    query = rows * cfg.n_heads * cfg.head_dim * 4
    score_block = ROW_BLOCK * rows * 4
    value_block = ROW_BLOCK * cfg.head_dim * 4
    allowed = query + score_block + value_block + np.getbufsize() * 4 + 4096
    assert seen["peak"] <= allowed, (seen["peak"], allowed)
