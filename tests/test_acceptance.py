"""Acceptance suite: every exit criterion at its stated tolerance.

Each test is one criterion; the terminal summary (see conftest) prints one
PASS/FAIL line per criterion.  The heavyweight instrumented runs at
(n, k, t, r, m, h) = (4096, 256, 32, 3, 8, 4) are shared across the counter
and memory criteria via a module-scoped fixture.
"""

import numpy as np
import pytest

from gemfilter.counting import PROMPT
from gemfilter.costmodel import CostParams, cost_table, verify_counters
from gemfilter.kernels import pool_1d, topk_indices
from gemfilter.model import _attention, decode_step, logits_from_hidden, prefill
from gemfilter.needle import NeedleSpec, needle_run
from gemfilter.runner import RunConfig, Strategy, run_generation
from gemfilter.strategies import prompt_pass
from gemfilter.testmodels import copy_model_config, make_copy_model, make_random_model
from helpers import (
    attention_oracle,
    causal_probs,
    config,
    h2o_oracle,
    pool_oracle,
    prompt_queries,
    snapkv_oracle,
    snapshots,
    topk_oracle,
)

F32 = np.float32


# -------------------------------------------------------------------------
# Shared heavyweight runs: (n, k, t, r, m, h) = (4096, 256, 32, 3, 8, 4)
# -------------------------------------------------------------------------

BIG = dict(n=4096, k=256, t=32, r=3, m=8, h=4)


@pytest.fixture(scope="module")
def big_runs():
    cfg = config(
        m=BIG["m"], h=BIG["h"], hk=2, dh=16, vocab=260, hidden=128, max_seq=BIG["n"] + BIG["t"] + 1
    )
    weights = make_random_model(cfg, 2024)
    tokens = np.random.default_rng(99).integers(0, cfg.vocab_size, size=BIG["n"]).tolist()
    measured = snapshots(
        weights, tokens, max_new_tokens=BIG["t"], select_k=BIG["k"], filter_layer=BIG["r"],
        window=32, pool_kernel=5,
    )
    params = CostParams.from_weights(weights, n=BIG["n"], k=BIG["k"], t=BIG["t"], r=BIG["r"])
    return weights, measured, params


# -------------------------------------------------------------------------
# Criterion: k = n equivalence (exact, >= 20 random seeded models)
# -------------------------------------------------------------------------


def test_k_equals_n_equivalence():
    runs = 0
    rng = np.random.default_rng(7)
    for m in (2, 4, 8):
        for h in (2, 4):
            for d_model in (64, 128):
                dh = d_model // h
                hk = h // 2 if h > 1 else 1
                cfg = config(m=m, h=h, hk=hk, dh=dh, vocab=260, hidden=2 * h * dh, max_seq=256)
                for seed in (0, 1):
                    w = make_random_model(cfg, 1000 * m + 10 * h + d_model + seed)
                    n = int(rng.integers(12, 40))
                    prompt = rng.integers(0, cfg.vocab_size, size=n).tolist()
                    full = RunConfig(Strategy.FULL, max_new_tokens=16)
                    reference = run_generation(w, prompt, full).output_tokens
                    rc = RunConfig(
                        Strategy.GEMFILTER, max_new_tokens=16, select_k=n,
                        filter_layer=max(1, m // 2),
                    )
                    run = run_generation(w, prompt, rc)
                    assert run.output_tokens == reference, f"m={m} h={h} d={d_model} seed={seed}"
                    assert run.selection.indices.tolist() == list(range(n))
                    runs += 1
    assert runs >= 20


# -------------------------------------------------------------------------
# Criterion: top-k and pooling oracles, 1000 randomized trials each
# -------------------------------------------------------------------------


def test_topk_and_pooling_oracles():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        k = int(rng.integers(1, n + 1))
        v = rng.integers(-6, 7, size=n).astype(np.float64)
        assert topk_indices(v, k).tolist() == topk_oracle(v, k)

    for _ in range(1000):
        n = int(rng.integers(1, 40))
        kernel = int(rng.choice([1, 3, 5, 7, 9]))
        v = rng.standard_normal(n)
        np.testing.assert_allclose(pool_1d(v, kernel), pool_oracle(v, kernel), atol=1e-6)


# -------------------------------------------------------------------------
# Criterion: attention brute-force equivalence and exact causality
# -------------------------------------------------------------------------


def test_attention_brute_force_equivalence():
    rng = np.random.default_rng(13)
    for n in range(1, 9):
        for _ in range(5):
            d = int(rng.choice([4, 8, 16]))
            q = rng.standard_normal((n, d)).astype(F32)
            k = rng.standard_normal((n, d)).astype(F32)
            v = rng.standard_normal((n, d)).astype(F32)
            out = _attention(q[None, None], k[None], v[None], out=np.empty((1, 1, n, d), F32))[0, 0]
            np.testing.assert_allclose(out, attention_oracle(q, k, v), atol=1e-6)

    # causality: perturbing token j never changes hidden states before j
    cfg = config(m=2, h=2, hk=2, dh=8, vocab=260, max_seq=64)
    w = make_random_model(cfg, 17)
    tokens = list(range(16))
    ref = prefill(tokens, w).hidden
    for j in (3, 8, 15):
        mutated = list(tokens)
        mutated[j] = 259
        out = prefill(mutated, w).hidden
        assert np.array_equal(out[:j], ref[:j])


# -------------------------------------------------------------------------
# Criterion: decode/prefill consistency (logits 1e-4, tokens exact)
# -------------------------------------------------------------------------


def test_decode_prefill_consistency():
    for seed in range(10):
        cfg = config(m=2, h=2, hk=1, dh=8, vocab=260, max_seq=64)
        w = make_random_model(cfg, seed)
        rng = np.random.default_rng(500 + seed)
        prompt = rng.integers(0, cfg.vocab_size, size=10).tolist()
        pre = prefill(prompt, w)
        seq = list(prompt)
        nxt = int(np.argmax(logits_from_hidden(pre.hidden[-1], w)))
        for _ in range(8):
            seq.append(nxt)
            incremental = decode_step(nxt, pre.caches, w)
            reference = logits_from_hidden(prefill(seq, w).hidden[-1], w)
            np.testing.assert_allclose(incremental, reference, atol=1e-4)
            assert int(np.argmax(incremental)) == int(np.argmax(reference))
            nxt = int(np.argmax(incremental))


# -------------------------------------------------------------------------
# Criterion: exact counter identities at (4096, 256, 32, 3, 8, 4)
# -------------------------------------------------------------------------


def test_counter_identities_at_scale(big_runs):
    weights, measured, params = big_runs
    report = verify_counters(measured, cost_table(params))
    assert report.ok, report.format_text()
    gem_prompt = measured["gemfilter"][PROMPT]
    assert gem_prompt.weight_bytes_touched == BIG["r"] * weights.per_layer_bytes


# -------------------------------------------------------------------------
# Criterion: prompt-phase wall-time ratio tracks the prompt FLOP ratio
# -------------------------------------------------------------------------


def _prompt_wall_ratio(weights, tokens, r, reps=3):
    """Full over gemfilter prompt time, each the best of ``reps`` runs: host
    load only ever adds time, so the fastest run of each is the least noisy."""
    best = {}
    for _ in range(reps):
        for strategy, extra in (
            (Strategy.FULL, {}),
            (Strategy.GEMFILTER, {"filter_layer": r}),
        ):
            rc = RunConfig(strategy=strategy, max_new_tokens=0, select_k=64, **extra)
            result = run_generation(weights, tokens, rc)
            wall = result.session.phase_cost(PROMPT).wall_time
            best[strategy.value] = min(wall, best.get(strategy.value, wall))
    return best["full"] / best["gemfilter"]


def _prompt_flop_ratio(weights, n, r):
    """cost_table's full/gemfilter prompt FLOP ratio for a prompt-only run."""
    table = cost_table(CostParams.from_weights(weights, n=n, k=64, t=0, r=r))
    return table["full"][PROMPT].matmul_flops / table["gemfilter"][PROMPT].matmul_flops


def test_prompt_speed_ratio():
    # warm the BLAS threads before timing
    a = np.ones((256, 256), dtype=F32)
    (a @ a).sum()

    cfg = config(m=8, h=2, hk=2, dh=16, vocab=260, hidden=64, max_seq=4200)
    w = make_random_model(cfg, 31)
    tokens = np.random.default_rng(1).integers(0, 260, size=4096).tolist()
    ratio = _prompt_wall_ratio(w, tokens, r=3)
    expected = _prompt_flop_ratio(w, len(tokens), r=3)
    assert 8 / 3 < expected < 8 / 2
    assert abs(ratio - expected) <= 0.25 * expected, f"ratio {ratio:.2f} vs {expected:.2f}"

    cfg2 = config(m=32, h=2, hk=2, dh=16, vocab=260, hidden=64, max_seq=1100)
    w2 = make_random_model(cfg2, 32)
    tokens2 = np.random.default_rng(2).integers(0, 260, size=1024).tolist()
    ratio2 = _prompt_wall_ratio(w2, tokens2, r=13)
    expected2 = _prompt_flop_ratio(w2, len(tokens2), r=13)
    assert 32 / 13 < expected2 < 32 / 12
    assert abs(ratio2 - expected2) <= 0.25 * expected2, f"ratio {ratio2:.2f} vs {expected2:.2f}"


# -------------------------------------------------------------------------
# Criterion: prompt-phase memory ordering and closed forms at n = 4096
# -------------------------------------------------------------------------


def test_memory_ordering(big_runs):
    weights, measured, params = big_runs
    cfg = weights.config
    B = 4
    n, k = BIG["n"], BIG["k"]
    w_bytes = weights.per_layer_bytes

    def total(method):
        cost = measured[method][PROMPT]
        return cost.kv_bytes_peak + cost.weight_bytes_touched

    full_expected = cfg.n_layers * w_bytes + 2 * cfg.n_layers * cfg.n_kv_heads * n * cfg.head_dim * B
    snap_expected = (
        cfg.n_layers * w_bytes
        + 2 * cfg.n_kv_heads * n * cfg.head_dim * B
        + 2 * cfg.n_layers * cfg.n_kv_heads * k * cfg.head_dim * B
    )
    gem_expected = BIG["r"] * w_bytes + 2 * cfg.n_kv_heads * n * cfg.head_dim * B
    assert total("full") == full_expected
    assert total("snapkv") == snap_expected
    assert total("h2o") == snap_expected
    assert total("gemfilter") == gem_expected
    assert total("gemfilter") < total("snapkv") < total("full")


# -------------------------------------------------------------------------
# Criterion: synthetic needle recovery across lengths and depths
# -------------------------------------------------------------------------


def test_synthetic_needle_recovery():
    cfg = copy_model_config(n_layers=2, n_heads=2, head_dim=64, max_seq=16500)
    weights = make_copy_model(cfg)
    for haystack_len in (512, 2048, 8192):
        for depth in (0, 25, 50, 75, 100):
            spec = NeedleSpec(
                haystack_len=haystack_len,
                depth_percent=depth,
                needle=(98,) * 8,
                query_token=98,
                seed=depth,
            )
            rc = RunConfig(Strategy.GEMFILTER, select_k=64, max_new_tokens=4)
            report = needle_run(spec, weights, [1], rc)
            result = report.layer_results[0]
            assert result.coverage == 1.0, (haystack_len, depth)
            assert result.min_distance == 0, (haystack_len, depth)
            assert report.generation_match is True, (haystack_len, depth)


# -------------------------------------------------------------------------
# Criterion: SnapKV / H2O small-instance oracles
# -------------------------------------------------------------------------


def test_snapkv_h2o_small_instance_oracles(gathered_rows):
    window, kernel = 3, 3
    for n in (8, 12, 16):
        cfg = config(m=1, h=2, hk=2, dh=8, vocab=260, max_seq=64)
        w = make_random_model(cfg, 600 + n)
        tokens = list(range(n))
        pre, q = prefill(tokens, w), prompt_queries(w, tokens)
        for k in (6, n):
            evicted, kept = {}, {}
            for strategy in (Strategy.SNAPKV, Strategy.H2O):
                rc = RunConfig(strategy, select_k=k, window=window, pool_kernel=kernel)
                _, evict, score_rows = prompt_pass(rc, n, w.config.max_seq)
                evicted[strategy] = prefill(tokens, w, evict=evict, score_rows=score_rows).caches
                kept[strategy] = gathered_rows[-1]  # the one layer's kept rows
            snap, heavy = kept[Strategy.SNAPKV], kept[Strategy.H2O]
            for kvh in range(cfg.n_kv_heads):
                probs = causal_probs(q[:, kvh, :], pre.caches[0].keys[kvh])
                if k >= n:
                    assert snap[kvh].tolist() == list(range(n))
                    assert heavy[kvh].tolist() == list(range(n))
                    assert np.array_equal(
                        evicted[Strategy.SNAPKV][0].keys[kvh], pre.caches[0].keys[kvh]
                    )
                    continue
                assert snap[kvh].tolist() == snapkv_oracle([probs], k, window, kernel)
                assert heavy[kvh].tolist() == h2o_oracle([probs], k, window)
