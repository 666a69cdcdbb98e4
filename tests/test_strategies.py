"""Compression strategy tests: brute-force score oracles on small instances."""

import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

from gemfilter.cli import main
from gemfilter.counting import CostSession
from gemfilter.errors import ConfigurationError, ContractViolation
from gemfilter import kernels, model, runner, selection, strategies
from gemfilter.model import LayerKV, decode_step, logits_from_hidden, prefill
from gemfilter.modelio import save_model
from gemfilter.runner import RunConfig, Strategy, run_generation
from gemfilter.strategies import (
    h2o_retained_indices,
    keep_positions,
    prompt_pass,
    snapkv_retained_indices,
)
from gemfilter.testmodels import copy_model_config, make_copy_model, make_random_model
from helpers import causal_probs, config, h2o_oracle, prompt_queries, snapkv_oracle

F32 = np.float32


def eviction(rc, n):
    """The per-layer eviction :func:`prompt_pass` maps ``rc`` to over ``n`` prompt tokens."""
    return prompt_pass(rc, n, max_seq=4096)[1]


def dummy_caches(n, hk=2, dh=4, layers=1, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(layers):
        out.append(
            LayerKV(
                keys=rng.standard_normal((hk, n, dh)).astype(F32),
                values=rng.standard_normal((hk, n, dh)).astype(F32),
                next_position=n,
            )
        )
    return out


# ------------------------------------------------------------- index rules


class TestRetainedIndexRules:
    def test_snapkv_budget_covers_everything(self):
        scores = np.asarray([5.0, 1.0, 3.0, 2.0], dtype=np.float64)
        for k in (4, 9):
            params = RunConfig(Strategy.SNAPKV, select_k=k, window=2, pool_kernel=1)
            assert snapkv_retained_indices(scores, params).tolist() == [0, 1, 2, 3]

    def test_snapkv_keeps_window_and_top_prefix(self):
        scores = np.asarray([0.0, 9.0, 0.0, 1.0, 0.0, 0.0], dtype=np.float64)
        params = RunConfig(Strategy.SNAPKV, select_k=3, window=2, pool_kernel=1)
        assert snapkv_retained_indices(scores, params).tolist() == [1, 4, 5]
        # The window counts inside select_k: one more kept position is the next best.
        params = replace(params, select_k=4)
        assert snapkv_retained_indices(scores, params).tolist() == [1, 3, 4, 5]

    def test_snapkv_window_larger_than_budget_rejected(self):
        params = RunConfig(Strategy.SNAPKV, select_k=3, window=4, pool_kernel=1)
        with pytest.raises(ContractViolation):
            snapkv_retained_indices(np.zeros(10), params)
        with pytest.raises(ConfigurationError, match="budget k=3 smaller than the 4 positions"):
            prompt_pass(params, 10, max_seq=64)

    def test_snapkv_prompt_shorter_than_window_rejected(self):
        params = RunConfig(Strategy.SNAPKV, select_k=2, window=8, pool_kernel=1)
        with pytest.raises(ContractViolation):
            snapkv_retained_indices(np.zeros(4), params)

    def test_snapkv_subset_monotone_in_k(self):
        rng = np.random.default_rng(0)
        scores = rng.standard_normal(40)
        params = RunConfig(Strategy.SNAPKV, window=4, pool_kernel=5)
        prev: set[int] = set()
        for k in range(4, 41, 3):
            kept = set(snapkv_retained_indices(scores, replace(params, select_k=k)).tolist())
            assert prev <= kept
            prev = kept

    def test_h2o_keeps_recent_and_heavy(self):
        scores = np.asarray([1.0, 7.0, 2.0, 5.0, 0.0, 0.0], dtype=np.float64)
        params = RunConfig(Strategy.H2O, select_k=4, window=2)
        assert h2o_retained_indices(scores, params).tolist() == [1, 3, 4, 5]

    def test_h2o_uniform_scores_tie_break_low_indices(self):
        params = RunConfig(Strategy.H2O, select_k=6, window=3)
        kept = h2o_retained_indices(np.full(10, 0.25), params)
        assert kept.tolist() == [0, 1, 2, 7, 8, 9]

    def test_h2o_recent_larger_than_budget_rejected(self):
        params = RunConfig(Strategy.H2O, select_k=4, window=5)
        with pytest.raises(ContractViolation):
            h2o_retained_indices(np.zeros(10), params)
        with pytest.raises(ConfigurationError, match="budget k=4 smaller than the 5 positions"):
            prompt_pass(params, 10, max_seq=64)

    def test_both_rules_are_one_keep_rule(self):
        rng = np.random.default_rng(4)
        scores = rng.random(20)
        snap = RunConfig(Strategy.SNAPKV, select_k=7, window=3, pool_kernel=1)
        h2o = RunConfig(Strategy.H2O, select_k=7, window=3)
        expected = keep_positions(scores, 7, 3)
        assert snapkv_retained_indices(scores, snap).tolist() == expected.tolist()
        assert h2o_retained_indices(scores, h2o).tolist() == expected.tolist()


@pytest.mark.parametrize(
    "field", ["window_in_budget", "observation_window", "recent_keep", "pool_mode", "include_first"]
)
def test_deleted_settings_are_not_fields(field):
    """Each strategy reads one window and average-pools; no knob survives beside them."""
    with pytest.raises(TypeError):
        RunConfig(Strategy.SNAPKV, **{field: 2})


# ------------------------------------------------------------- compressors


class TestCompressAgainstBruteForce:
    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_snapkv_matches_probability_oracle(self, gathered_rows, n):
        """End to end on a 1-layer model: engine scores vs explicit attention."""
        cfg = config(m=1, h=2, hk=2, dh=8, hidden=16, max_seq=64)
        w = make_random_model(cfg, n)
        tokens = list(range(n))
        window, k = 3, 6
        rc = RunConfig(Strategy.SNAPKV, select_k=k, window=window, pool_kernel=3)
        pre, q = prefill(tokens, w), prompt_queries(w, tokens)
        _, evict, score_rows = prompt_pass(rc, n, w.config.max_seq)
        prefill(tokens, w, evict=evict, score_rows=score_rows)

        # Oracle recomputes each head's probabilities from the layer's q and cached k.
        groups = cfg.n_heads // cfg.n_kv_heads
        for kvh in range(cfg.n_kv_heads):
            probs = [
                causal_probs(q[:, qh, :], pre.caches[0].keys[qh // groups])
                for qh in range(kvh * groups, (kvh + 1) * groups)
            ]
            expected = snapkv_oracle(probs, k, window, 3)
            assert gathered_rows[0][kvh].tolist() == expected

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_h2o_matches_probability_oracle(self, gathered_rows, n):
        cfg = config(m=1, h=2, hk=1, dh=8, hidden=16, max_seq=64)
        w = make_random_model(cfg, 100 + n)
        tokens = list(range(n))
        k, recent = 6, 2
        rc = RunConfig(Strategy.H2O, select_k=k, window=recent)
        pre, q = prefill(tokens, w), prompt_queries(w, tokens)
        _, evict, score_rows = prompt_pass(rc, n, w.config.max_seq)
        prefill(tokens, w, evict=evict, score_rows=score_rows)
        probs = [
            causal_probs(q[:, qh, :], pre.caches[0].keys[0])
            for qh in range(cfg.n_heads)
        ]
        expected = h2o_oracle(probs, k, recent)
        assert gathered_rows[0][0].tolist() == expected

    def test_k_equals_n_identity_retention(self, gathered_rows):
        caches = dummy_caches(8)
        scores = np.random.default_rng(1).random((2, 8))
        rc = RunConfig(Strategy.SNAPKV, select_k=8, window=2, pool_kernel=3)
        layer = eviction(rc, 8)(caches[0], scores)
        for kvh in range(2):
            assert gathered_rows[0][kvh].tolist() == list(range(8))
            assert np.array_equal(layer.keys[kvh], caches[0].keys[kvh])
            assert np.array_equal(layer.values[kvh], caches[0].values[kvh])

    def test_one_hot_window_attention_key_retained_every_head(self, gathered_rows):
        n, target = 10, 2
        window_sums = np.zeros((2, n))
        window_sums[:, target] = 1.0
        caches = dummy_caches(n)
        rc = RunConfig(Strategy.SNAPKV, select_k=3, window=2, pool_kernel=1)
        eviction(rc, n)(caches[0], window_sums)
        for kvh in range(2):
            assert target in gathered_rows[0][kvh].tolist()

    def test_disjoint_heads_get_different_sets(self, gathered_rows):
        n = 12
        window_sums = np.zeros((2, n))
        window_sums[0, 1] = 5.0
        window_sums[1, 7] = 5.0
        caches = dummy_caches(n)
        rc = RunConfig(Strategy.SNAPKV, select_k=3, window=2, pool_kernel=1)
        eviction(rc, n)(caches[0], window_sums)
        a, b = gathered_rows[0].tolist()
        assert a != b
        assert 1 in a and 7 in b

    def test_per_head_sets_independent_of_other_heads(self, gathered_rows):
        n = 16
        rng = np.random.default_rng(2)
        base = rng.random((2, n))
        caches = dummy_caches(n)
        rc = RunConfig(Strategy.SNAPKV, select_k=8, window=4, pool_kernel=3)
        evict = eviction(rc, n)
        evict(caches[0], base)
        tweaked = base.copy()
        tweaked[1] = rng.random(n)
        evict(caches[0], tweaked)
        first, second = gathered_rows
        assert np.array_equal(first[0], second[0])

    def test_budget_exactness_random(self, gathered_rows):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(6, 30))
            k = int(rng.integers(4, n + 4))
            caches = dummy_caches(n, seed=int(rng.integers(0, 10**6)))
            for strategy in (Strategy.SNAPKV, Strategy.H2O):
                rc = RunConfig(
                    strategy, select_k=k, window=2, pool_kernel=3
                )
                layer = eviction(rc, n)(caches[0], rng.random((2, n)))
                assert len(layer) == min(k, n) and layer.next_position == n
                for idx in gathered_rows[-1]:
                    assert idx.shape[0] == min(k, n)
                    assert np.all(np.diff(idx) > 0)


# ------------------------------------------------------------- decode


class TestCompressedDecode:
    def test_k_equals_n_decode_bit_exact(self):
        cfg = config(m=2, h=4, hk=2, dh=8, hidden=16, max_seq=128)
        w = make_random_model(cfg, 5)
        tokens = list(range(10))
        rc = RunConfig(
            Strategy.SNAPKV, select_k=len(tokens), window=2, pool_kernel=1
        )
        pre = prefill(tokens, w)
        _, evict, score_rows = prompt_pass(rc, len(tokens), w.config.max_seq)
        compressed = prefill(tokens, w, evict=evict, score_rows=score_rows).caches
        for step_token in (3, 9, 1):
            full_logits = decode_step(step_token, pre.caches, w)
            comp_logits = decode_step(step_token, compressed, w)
            assert np.array_equal(full_logits, comp_logits)

    def test_sparse_attention_instance_close_logits(self):
        """Dropping keys that receive (almost) no attention barely moves logits."""
        cfg = copy_model_config(n_layers=1, n_heads=1, head_dim=128, max_seq=2048)
        w = make_copy_model(cfg)
        n = 32
        tokens = [97] * n
        needle_positions = [10, 11, 12, 13]
        for p in needle_positions:
            tokens[p] = 98
        tokens.append(98)  # query token matches the needle
        pre = prefill(tokens, w)
        full_logits = decode_step(98, pre.caches, w)

        keep = sorted(set(needle_positions) | set(range(len(tokens) - 8, len(tokens))))
        rows = np.tile(np.asarray(keep), (cfg.n_kv_heads, 1))
        layers = [cache.gather(rows) for cache in prefill(tokens, w).caches]
        comp_logits = decode_step(98, layers, w)
        np.testing.assert_allclose(comp_logits, full_logits, atol=1e-2)

    @pytest.mark.parametrize("strategy", [Strategy.SNAPKV, Strategy.H2O], ids=lambda s: s.value)
    @pytest.mark.parametrize(
        "n, k, window",
        [(1, 1, 1), (1, 4, 1), (6, 1, 1), (6, 3, 1), (6, 3, 3), (6, 6, 2), (6, 9, 4), (13, 5, 1)],
    )
    def test_an_evicted_cache_resumes_at_the_prompt_length(self, strategy, n, k, window):
        """Every kept cache resumes at n, as the full one does, whichever rows
        it kept.  Layer 0's first decoded K row depends only on the token and
        its position, so it is byte-equal to the full run's."""
        cfg = config(m=2, h=4, hk=2, dh=8, hidden=16, max_seq=64)
        w = make_random_model(cfg, 17)
        tokens = np.random.default_rng(n + k).integers(0, cfg.vocab_size, n).tolist()
        rc = RunConfig(strategy, select_k=k, window=window, pool_kernel=3)
        _, evict, score_rows = prompt_pass(rc, n, cfg.max_seq)
        kept = prefill(tokens, w, evict=evict, score_rows=score_rows).caches
        full = prefill(tokens, w).caches
        assert [len(c) for c in kept] == [min(k, n)] * cfg.n_layers
        assert [c.next_position for c in kept] == [n] * cfg.n_layers
        decode_step(5, kept, w)
        decode_step(5, full, w)
        assert kept[0].keys[:, -1].tobytes() == full[0].keys[:, -1].tobytes()
        assert [c.next_position for c in kept] == [n + 1] * cfg.n_layers

    def test_compressed_cache_bytes_closed_form(self):
        cfg = config(m=2, h=2, hk=2, dh=4, hidden=16, max_seq=64)
        w = make_random_model(cfg, 7)
        tokens = list(range(12))
        k = 4
        rc = RunConfig(Strategy.SNAPKV, select_k=k, window=2, pool_kernel=1)
        _, evict, score_rows = prompt_pass(rc, len(tokens), w.config.max_seq)
        compressed = prefill(tokens, w, evict=evict, score_rows=score_rows).caches
        expected = 2 * cfg.n_layers * cfg.n_kv_heads * k * cfg.head_dim * 4
        assert sum(c.nbytes for c in compressed) == expected

    def test_streaming_prefill_matches_full_then_compress(self, gathered_rows):
        cfg = config(m=3, h=2, hk=2, dh=8, hidden=16, max_seq=128)
        w = make_random_model(cfg, 8)
        tokens = list(range(20))
        rc = RunConfig(Strategy.SNAPKV, select_k=8, window=4, pool_kernel=3)
        pre = prefill(tokens, w)
        _, evict, score_rows = prompt_pass(rc, len(tokens), w.config.max_seq)
        evicted = prefill(tokens, w, evict=evict, score_rows=score_rows)
        streamed = evicted.caches
        np.testing.assert_array_equal(
            logits_from_hidden(evicted.hidden[-1], w), logits_from_hidden(pre.hidden[-1], w)
        )
        assert len(gathered_rows) == cfg.n_layers
        for full, kept, layer_rows in zip(pre.caches, streamed, gathered_rows):
            assert kept.next_position == full.next_position == len(tokens)
            for kvh in range(cfg.n_kv_heads):
                rows = layer_rows[kvh]
                assert np.array_equal(kept.keys[kvh], full.keys[kvh][rows])
                assert np.array_equal(kept.values[kvh], full.values[kvh][rows])

    def test_streaming_prefill_kv_peak_is_one_layer_plus_compressed(self):
        cfg = config(m=3, h=2, hk=2, dh=8, hidden=16, max_seq=256)
        w = make_random_model(cfg, 9)
        n, k = 32, 8
        rc = RunConfig(Strategy.SNAPKV, select_k=k, window=4, pool_kernel=3)
        _, evict, score_rows = prompt_pass(rc, n, w.config.max_seq)
        session = CostSession()
        with session.activate():
            prefill(list(range(n)), w, evict=evict, score_rows=score_rows)
        peak = session.phase_cost("prompt").kv_bytes_peak
        expected = (
            2 * cfg.n_kv_heads * n * cfg.head_dim * 4
            + 2 * cfg.n_layers * cfg.n_kv_heads * k * cfg.head_dim * 4
        )
        assert peak == expected


def test_unknown_strategy_rejected_before_any_layer_runs(tmp_path, capsys, monkeypatch):
    model_path = tmp_path / "m.gfm"
    save_model(model_path, make_random_model(config(m=2, hidden=16), 10))
    calls = []
    monkeypatch.setattr(CostSession, "count_matmul", lambda self, *args: calls.append(args))
    argv = ["generate", "--model", str(model_path), "--prompt-random", "8", "--strategy", "bogus"]
    assert main(argv) == 1
    assert "ConfigurationError" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("name", [s.value for s in Strategy])
def test_strategy_given_as_a_name_rejected(name):
    """A name would match no strategy in prompt_pass and silently run the full cache."""
    with pytest.raises(ConfigurationError, match="Strategy.parse"):
        RunConfig(name)
    assert RunConfig(Strategy.parse(name)).strategy is Strategy(name)


# The module attributes span tracing wraps, and so must see every call.
CALLED_BY_NAME = (
    (strategies, "snapkv_retained_indices"),
    (strategies, "h2o_retained_indices"),
    (runner, "select_indices"),
    (model, "prefill"),
    (model, "run_layer"),
    (model, "project_qkv"),
    (model, "project_heads"),
    (model, "decode_step"),
    (kernels, "pool_1d"),
    (kernels, "topk_indices"),
)


@pytest.mark.parametrize("strategy", list(Strategy))
def test_traced_functions_are_called_by_module_attribute(monkeypatch, strategy):
    """Each target is replaced wherever a gemfilter module binds it, as a tracer does.

    A call through a reference captured before the run (a default argument, a
    table of functions) would bypass the spy and leave a count short.
    """
    calls = {name: [] for _, name in CALLED_BY_NAME}
    for owner, name in CALLED_BY_NAME:
        real = getattr(owner, name)

        def spy(*args, _calls=calls[name], _real=real, **kwargs):
            _calls.append(args)
            return _real(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "gemfilter":
                continue
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, spy)
    m, hk, n, t = 2, 2, 24, 3
    rc = RunConfig(
        strategy, max_new_tokens=t, select_k=8,
        window=4, pool_kernel=3,
    )
    run_generation(make_random_model(config(m=m, h=4, hk=hk, hidden=16), 11), list(range(n)), rc)

    per_head = m * hk
    expected = {
        "snapkv_retained_indices": per_head if strategy is Strategy.SNAPKV else 0,
        "h2o_retained_indices": per_head if strategy is Strategy.H2O else 0,
        "select_indices": int(strategy is Strategy.GEMFILTER),
        "prefill": 1 + int(strategy is Strategy.GEMFILTER),
        "decode_step": t - 1,
        "pool_1d": {Strategy.GEMFILTER: 1, Strategy.SNAPKV: per_head}.get(strategy, 0),
        "topk_indices": {Strategy.FULL: 0, Strategy.GEMFILTER: 1}.get(strategy, per_head),
    }
    assert {name: len(calls[name]) for name in expected} == expected
    assert calls["run_layer"]
    # Every layer opens with project_qkv, which projects through project_heads;
    # the one-chunk filter pass calls project_heads alone, for its keys and query.
    assert len(calls["project_qkv"]) == len(calls["run_layer"])
    filter_calls = 2 * int(strategy is Strategy.GEMFILTER)
    assert len(calls["project_heads"]) == len(calls["run_layer"]) + filter_calls
    for name in ("snapkv_retained_indices", "h2o_retained_indices"):
        assert all(len(args[0]) == n for args in calls[name])


# ------------------------------------------------------------- cache bytes


class TestCacheBytes:
    def test_full_cache_closed_form(self):
        # Oracle: K and V each hold n*h_kv*head_dim f32 elements per layer.
        m, hk, n, dh = 2, 2, 8, 4
        caches = dummy_caches(n, hk=hk, dh=dh, layers=m)
        oracle = sum(c.keys.nbytes + c.values.nbytes for c in caches)
        assert sum(c.nbytes for c in caches) == oracle == 2 * m * hk * n * dh * 4 == 1024

    def test_compressed_to_half_budget(self):
        m, hk, k, dh = 2, 2, 4, 4
        caches = dummy_caches(k, hk=hk, dh=dh, layers=m)
        assert sum(c.nbytes for c in caches) == 2 * m * hk * k * dh * 4 == 512


@pytest.mark.parametrize("strategy", list(Strategy))
def test_decode_holds_no_prompt_pass_result(monkeypatch, strategy):
    """Decoding keeps the caches and first logits, not a prompt pass's hidden rows or Q/K."""
    results, alive_at_decode = [], []

    def spy_prefill(*args, real=model.prefill, **kwargs):
        pre = real(*args, **kwargs)
        results.append(weakref.ref(pre))
        return pre

    def spy_decode(*args, real=model.greedy_decode):
        alive_at_decode.append([ref() is not None for ref in results])
        return real(*args)

    for module in (model, runner, selection):
        monkeypatch.setattr(module, "prefill", spy_prefill)
    for module in (model, runner):
        monkeypatch.setattr(module, "greedy_decode", spy_decode)
    weights = make_random_model(config(m=2, hidden=16), 0)
    rc = RunConfig(
        strategy, max_new_tokens=3, select_k=4,
        window=2, pool_kernel=3,
    )
    assert len(run_generation(weights, list(range(12)), rc).output_tokens) == 3
    assert results and alive_at_decode == [[False] * len(results)]
