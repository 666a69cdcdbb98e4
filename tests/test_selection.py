"""Selection-path tests: score construction, index sets, two-pass generation."""

import numpy as np
import pytest

from gemfilter import model
from gemfilter.costmodel import CostParams, cost_table, verify_counters
from gemfilter.counting import GENERATION, PROMPT, CostSession
from gemfilter.errors import ContractViolation
from gemfilter.kernels import rms_norm_rows, topk_indices
from gemfilter.model import LayerKV, embed, prefill, project_qkv, run_layer
from gemfilter.runner import RunConfig, Strategy, run_generation
from gemfilter.selection import (
    SelectionResult,
    decode_selection,
    select_indices,
    selection_scores,
)
from gemfilter.strategies import prompt_pass
from gemfilter.testmodels import copy_model_config, make_copy_model, make_random_model
from helpers import config, traced_peak

F32 = np.float32


# ---------------------------------------------------------------- scores


class TestSelectionScores:
    def test_single_head_orthogonal_construction(self):
        """K row t equals the query; every other row is orthogonal to it."""
        n, d = 8, 4
        target = 5
        q = np.zeros((1, d), dtype=F32)
        q[0, 0] = 1.0
        keys = np.zeros((1, n, d), dtype=F32)
        keys[0, :, 1] = 1.0  # orthogonal direction
        keys[0, target] = [1.0, 0.0, 0.0, 0.0]
        scores = selection_scores(q, keys, pool_kernel=1)
        assert int(np.argmax(scores)) == target
        # Oracle: explicit inner products.
        expected = [float(np.dot(q[0], keys[0, i])) for i in range(n)]
        np.testing.assert_allclose(scores, expected, atol=1e-7)

    def test_duplicated_heads_scale_scores_not_ranking(self):
        rng = np.random.default_rng(0)
        n, d, h = 10, 6, 3
        q1 = rng.standard_normal((1, d)).astype(F32)
        k1 = rng.standard_normal((n, 1, d)).astype(F32).transpose(1, 0, 2)
        qh = np.tile(q1, (h, 1))
        kh = np.tile(k1, (h, 1, 1))
        s1 = selection_scores(q1, k1, pool_kernel=1)
        sh = selection_scores(qh, kh, pool_kernel=1)
        np.testing.assert_allclose(sh, h * s1, rtol=1e-6)
        # One kv-head serving all h query heads: the same sum.
        np.testing.assert_allclose(selection_scores(qh, k1, pool_kernel=1), h * s1, rtol=1e-6)
        assert np.argsort(-sh, kind="stable").tolist() == np.argsort(-s1, kind="stable").tolist()

    def test_pooling_spreads_spike(self):
        q = np.zeros((1, 4), dtype=F32)
        q[0, 0] = 1.0
        keys = np.zeros((1, 9, 4), dtype=F32)
        keys[0, 4, 0] = 5.0
        pooled = selection_scores(q, keys, pool_kernel=5)
        np.testing.assert_allclose(pooled[2:7], 1.0, atol=1e-7)
        np.testing.assert_allclose(pooled[:2], 0.0, atol=1e-7)
        np.testing.assert_allclose(pooled[7:], 0.0, atol=1e-7)

    def test_head_count_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            selection_scores(np.zeros((2, 4), dtype=F32), np.zeros((3, 5, 4), dtype=F32), 1)

    def test_positive_query_scaling_keeps_topk(self):
        rng = np.random.default_rng(1)
        q = rng.standard_normal((2, 8)).astype(F32)
        keys = rng.standard_normal((16, 2, 8)).astype(F32).transpose(1, 0, 2)
        base = selection_scores(q, keys, pool_kernel=3)
        scaled = selection_scores(2.0 * q, keys, pool_kernel=3)
        top_base = np.argsort(-base, kind="stable")[:6]
        top_scaled = np.argsort(-scaled, kind="stable")[:6]
        assert top_base.tolist() == top_scaled.tolist()


# ---------------------------------------------------------------- select


def gem_rc(r, k, **settings):
    """A gemfilter RunConfig filtering at layer ``r`` with budget ``k``."""
    return RunConfig(Strategy.GEMFILTER, filter_layer=r, select_k=k, **settings)


def full_filter_layer(w, tokens, r):
    """Layers 1..r run in full, each as prefill runs it: ``run_layer`` over
    its chunks into one cache.  Returns layer r's last-row query, projected
    by ``project_qkv`` as ``run_layer`` projects the last chunk, and keys."""
    cfg, n = w.config, len(tokens)
    x = embed(tokens, w)
    for li in range(r):
        cache = LayerKV.empty(cfg.n_kv_heads, cfg.head_dim, n)
        for lo, hi in model._chunks(n):
            q = project_qkv(x[lo:hi], w, li, lo)[0][:, : cfg.n_heads]
            run_layer(x[lo:hi], w, li, cache)
    return q[-1], cache.keys


def narrow_filter_layer(w, tokens, r):
    """Layers 1..r-1 run in full, as prefill runs them; then layer r's keys
    and last-row query, each from its own product of the normed rows: ``wk``
    over prefill's chunks, ``wq`` over the last row alone, each rotated at its
    rows' positions.  Returns that query and the keys, head-major and
    contiguous as a cache holds them."""
    cfg, n = w.config, len(tokens)
    lw = w.layers[r - 1]
    x = prefill(tokens, w, upto_layer=r - 1).hidden

    def project(rows, weight, start):
        heads = rms_norm_rows(rows, lw.attn_norm, cfg.norm_eps) @ weight
        heads = heads.reshape(len(rows), -1, cfg.head_dim)
        rotary = w.rope(start, start + len(rows))
        if rotary is not None:
            pairs = heads.view(np.complex64)
            pairs *= rotary
        return heads

    keys = np.concatenate([project(x[lo:hi], lw.wk, lo) for lo, hi in model._chunks(n)])
    return project(x[-1:], lw.wq, n - 1)[0], np.ascontiguousarray(keys.transpose(1, 0, 2))


def rounding_bound(w, tokens, r, pool_kernel):
    """How far the narrow and fused products' raw scores may lie apart, per position.

    Both evaluate each query and key element as a float32 dot product of the
    same normed row with the same weight column, ``d = d_model`` terms long,
    in different orders: each is within ``gamma_d * A`` of the exact one,
    ``A = |normed row| @ |weight column|`` and ``gamma_d = d u / (1 - d u)``
    (``u = 2**-24``), so they differ by at most ``2 gamma_d A``.  The rotation
    mixes a pair, bounded by ``A_even + A_odd``, and rounds each part once
    (``2 u`` of that sum more).  So every element differs by at most
    ``c * A_pair``, with ``c = 2 gamma_d + 2 u`` and ``A_pair`` the pair sum,
    and the pooled head-summed scores by ``(2 c + c**2)`` times the pooled
    scores of ``A_pair``.
    """
    cfg, n = w.config, len(tokens)
    lw, d, u = w.layers[r - 1], cfg.d_model, 2.0**-24
    x = prefill(tokens, w, upto_layer=r - 1).hidden

    def magnitude(rows, weight):
        normed = np.abs(rms_norm_rows(rows, lw.attn_norm, cfg.norm_eps)).astype(np.float64)
        a = (normed @ np.abs(weight).astype(np.float64)).reshape(len(rows), -1, cfg.head_dim)
        return np.repeat(a[..., 0::2] + a[..., 1::2], 2, axis=-1)

    gamma = d * u / (1 - d * u)
    c = 2 * gamma + 2 * u
    q_bound, k_bound = magnitude(x[-1:], lw.wq)[0], magnitude(x, lw.wk).transpose(1, 0, 2)
    return (2 * c + c * c) * selection_scores(q_bound, k_bound, pool_kernel)


class TestSelectIndices:
    def test_k_at_least_n_selects_everything(self):
        w = make_random_model(config(), 2)
        sel = select_indices(w, list(range(9)), gem_rc(r=1, k=50))
        assert sel.indices.tolist() == list(range(9))

    def test_prompt_flops_are_r_over_m_of_full_prefill(self):
        """Filtering at layer 3 of 4 costs 2/4 of a full prefill plus layer 3's
        key product over every row and query product over the last one; the
        filter layer's V product, attention and MLP never run."""
        cfg = config(m=4)
        w = make_random_model(cfg, 3)
        tokens = list(range(24))
        s_sel, s_full = CostSession(), CostSession()
        with s_sel.activate():
            select_indices(w, tokens, gem_rc(r=3, k=8))
        with s_full.activate():
            prefill(tokens, w)
        sel_cost = s_sel.phase_cost(PROMPT)
        full_cost = s_full.phase_cost(PROMPT)
        d, kv = cfg.d_model, cfg.n_kv_heads * cfg.head_dim
        filter_proj = 2 * len(tokens) * d * kv + 2 * d * d
        assert set(sel_cost.flops_by_tag) == set(full_cost.flops_by_tag)
        for tag, flops in full_cost.flops_by_tag.items():
            extra = filter_proj if tag == "proj" else 0
            assert flops * 2 == (sel_cost.flops_by_tag[tag] - extra) * 4

    def test_filter_pass_touches_only_r_layers_of_weights(self):
        cfg = config(m=4)
        w = make_random_model(cfg, 4)
        session = CostSession()
        with session.activate():
            select_indices(w, list(range(16)), gem_rc(r=2, k=4))
        assert session.phase_cost(PROMPT).weight_bytes_touched == 2 * w.per_layer_bytes

    def test_copy_model_needle_subset(self):
        cfg = copy_model_config(n_layers=1)
        w = make_copy_model(cfg)
        kernel = 5
        needle = [98] * 6
        tokens = [97] * 40 + needle + [97] * 40 + [98]
        k = len(needle) + 2 * (kernel // 2)  # needle plus pooling spill
        sel = select_indices(w, tokens, gem_rc(r=1, k=k, pool_kernel=kernel))
        needle_positions = set(range(40, 46))
        assert needle_positions <= set(sel.indices.tolist())

    def test_r_out_of_range(self):
        w = make_random_model(config(m=2), 0)
        with pytest.raises(ContractViolation):
            select_indices(w, [1, 2, 3], gem_rc(r=3, k=2))

    @pytest.mark.parametrize("n", [1, 5, 64, 65])
    @pytest.mark.parametrize("h, hk", [(4, 4), (4, 2), (4, 1), (8, 2)])
    def test_scores_match_expanded_key_oracle(self, h, hk, n):
        """Under GQA, kv-head j serves query heads j*g .. j*g+g-1 (g = h / hk)."""
        cfg = config(m=2, h=h, hk=hk, dh=8)
        w = make_random_model(cfg, 30 + h + hk)
        tokens = np.random.default_rng(n).integers(0, cfg.vocab_size, n).tolist()
        q, keys = (a.astype(np.float64) for a in narrow_filter_layer(w, tokens, 2))
        expanded = [keys[qh // (h // hk)] for qh in range(h)]  # (n, d) per query head
        raw = sum((expanded[qh] * q[qh]).sum(axis=1) for qh in range(h))
        half = 2  # pool_kernel = 5
        windows = [raw[max(i - half, 0) : i + half + 1] for i in range(n)]
        oracle = np.asarray([win.sum() / 5 for win in windows])
        sel = select_indices(w, tokens, gem_rc(r=2, k=4))
        np.testing.assert_allclose(sel.raw_scores, oracle, rtol=1e-12, atol=0)
        top = np.argsort(-oracle, kind="stable")[: min(4, n)]
        assert sel.indices.tolist() == sorted(top.tolist())

    def test_indices_always_strictly_ascending(self):
        rng = np.random.default_rng(5)
        w = make_random_model(config(), 6)
        for _ in range(10):
            n = int(rng.integers(4, 30))
            k = int(rng.integers(1, n + 3))
            tokens = rng.integers(0, 64, size=n).tolist()
            sel = select_indices(w, tokens, gem_rc(r=1, k=k))
            assert np.all(np.diff(sel.indices) > 0) or sel.indices.size <= 1
            assert sel.indices.size == min(k, n)


# ---------------------------------------------------------------- truncated filter layer


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 255, 256, 257, 258, 513])
@pytest.mark.parametrize("use_rope", [True, False], ids=["rope", "norope"])
@pytest.mark.parametrize("h, hk", [(4, 4), (4, 2), (4, 1), (8, 2)])
def test_truncated_pass_keeps_the_full_filter_layers_indices(h, hk, use_rope, n):
    """For every filter layer r, the pass that stops at layer r's keys and
    last-row query gives the raw-score bytes of the narrow oracle, raw scores
    within float32 rounding of running layer r in full (:func:`rounding_bound`),
    the very indices that full layer keeps, and counters equal to cost_table's.
    n straddles the 256-row chunks and the one-row tail.  Without RoPE, equal
    tokens give equal keys, so two pooling windows over the same scores tie
    exactly (h, h_kv = 4, 1 at n = 65); they pool to equal bits in both
    passes, so both keep the lower position."""
    m, k, t = 3, 8, 1
    cfg = config(m=m, h=h, hk=hk, dh=8, use_rope=use_rope, max_seq=1024)
    w = make_random_model(cfg, 40 + h + hk)
    tokens = np.random.default_rng(n).integers(0, cfg.vocab_size, n).tolist()
    assert model.CHUNK_ROWS == 256
    for r in range(1, m + 1):
        rc = RunConfig(Strategy.GEMFILTER, max_new_tokens=t, select_k=k, filter_layer=r)
        result = run_generation(w, tokens, rc)
        raw = result.selection.raw_scores
        narrow = selection_scores(*narrow_filter_layer(w, tokens, r), rc.pool_kernel)
        assert raw.tobytes() == narrow.tobytes(), r
        last_q, keys = full_filter_layer(w, tokens, r)
        full_prefill = prefill(tokens, w, upto_layer=r)
        assert keys.tobytes() == full_prefill.caches[-1].keys.tobytes(), r
        scores = selection_scores(last_q, keys, rc.pool_kernel)
        bound = rounding_bound(w, tokens, r, rc.pool_kernel)
        assert np.all(np.abs(raw - scores) <= bound), r
        kept = np.sort(topk_indices(scores, min(k, n)))
        assert result.selection.indices.tobytes() == kept.tobytes(), r
        table = cost_table(CostParams.from_weights(w, n=n, k=k, t=t, r=r))
        report = verify_counters({"gemfilter": result.session.snapshot()}, table)
        assert report.ok, (r, report.format_text())


def test_first_layer_filter_pass_holds_no_score_block():
    """From n = 1025 to 2049, an r = 1 filter pass on the copy model grows by at
    most the residual stream, the filter layer's keys, the prompt's int64 token
    ids and 4 KiB.  Running the filter layer's attention would add one query
    head's (ROW_BLOCK, n) float32 score block, and its cache the values."""
    cfg = copy_model_config()
    w = make_copy_model(cfg)
    rc = gem_rc(r=1, k=64)

    def peak(n):
        tokens = np.random.default_rng(n).integers(97, 99, n).tolist()
        return traced_peak(select_indices, w, tokens, rc)[1]

    small, large = peak(1025), peak(2049)
    grown = 1024
    allowed = grown * (cfg.d_model * 4 + cfg.n_kv_heads * cfg.head_dim * 4 + 8) + 4096
    assert large - small <= allowed, (large - small, allowed)


# ---------------------------------------------------------------- decode_selection


class TestDecodeSelection:
    def test_all_indices_returns_original(self):
        tokens = [9, 8, 7, 6]
        sel = SelectionResult(
            indices=np.arange(4), raw_scores=np.zeros(4), budget=4
        )
        assert decode_selection(tokens, sel) == tokens

    def test_singleton(self):
        sel = SelectionResult(
            indices=np.asarray([0]), raw_scores=np.zeros(3), budget=1
        )
        assert decode_selection([5, 6, 7], sel) == [5]

    def test_selected_subsequence_contains_needle(self):
        cfg = copy_model_config(n_layers=1)
        w = make_copy_model(cfg)
        needle = [98] * 8
        tokens = [97] * 64 + needle + [97] * 64 + [98]
        sel = select_indices(w, tokens, gem_rc(r=1, k=16))
        sub = decode_selection(tokens, sel)
        assert "".join(map(chr, needle)) in "".join(map(chr, sub))

    @pytest.mark.parametrize(
        "indices, budget, message",
        [
            ([0, 1], 3, r"min\(budget, n\) indices"),
            ([0, 1, 2, 3, 4], 5, r"min\(budget, n\) indices"),
            ([[0, 1]], 2, r"min\(budget, n\) indices"),
            ([-1, 2], 2, "out of range"),
            ([1, 4], 2, "out of range"),
            ([2, 2], 2, "strictly increasing"),
            ([3, 1], 2, "strictly increasing"),
        ],
        ids=["fewer", "more-than-n", "2-d", "negative", "past-n", "repeated", "decreasing"],
    )
    def test_malformed_selection_rejected(self, indices, budget, message):
        with pytest.raises(ContractViolation, match=message):
            SelectionResult(indices=np.asarray(indices), raw_scores=np.zeros(4), budget=budget)

    @pytest.mark.parametrize(
        "indices",
        [np.array([0.5, 1.7]), np.array([0.0, 1.0]), np.array([False, True]), [0, True]],
        ids=["fractional", "whole-floats", "bool-array", "bool-in-list"],
    )
    def test_non_integer_indices_rejected_not_truncated(self, indices):
        with pytest.raises(ContractViolation, match="selection indices must be integers"):
            SelectionResult(indices=indices, raw_scores=np.zeros(4), budget=2)

    @pytest.mark.parametrize(
        "tokens",
        [[1.9, 2.2, 3.1, 4.0], np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4, bool), [1, 2, True, 4]],
        ids=["fractional", "whole-floats", "bool-array", "bool-in-list"],
    )
    def test_non_integer_tokens_rejected_not_truncated(self, tokens):
        sel = SelectionResult(indices=np.asarray([1, 2]), raw_scores=np.zeros(4), budget=2)
        with pytest.raises(ContractViolation, match="token ids must be integers"):
            decode_selection(tokens, sel)
        assert decode_selection(np.arange(4, dtype=np.uint8) + 5, sel) == [6, 7]

    @pytest.mark.parametrize(
        "indices, message",
        [([3, 1], "strictly increasing"), ([1, 2**63], "out of range")],
        ids=["decreasing", "past-int64"],
    )
    def test_unsigned_indices_checked_before_the_int64_cast(self, indices, message):
        """An unsigned difference or cast would wrap; neither happens before the checks."""
        idx = np.asarray(indices, dtype=np.uint64)
        with pytest.raises(ContractViolation, match=message):
            SelectionResult(indices=idx, raw_scores=np.zeros(4), budget=2)
        sel = SelectionResult(indices=np.asarray([1, 3], np.uint8), raw_scores=np.zeros(4), budget=2)
        assert sel.indices.dtype == np.int64 and sel.indices.tolist() == [1, 3]

    def test_token_values_pass_through_uncast(self):
        sel = SelectionResult(indices=np.asarray([0]), raw_scores=np.zeros(1), budget=1)
        assert decode_selection(np.asarray([2**64 - 1], np.uint64), sel) == [2**64 - 1]
        empty = SelectionResult(indices=[], raw_scores=np.zeros(0), budget=1)
        assert decode_selection([], empty) == []

    @pytest.mark.parametrize("tokens", [[[1, 2, 3, 4]], [[1, 2], [3, 4]], 7])
    def test_tokens_that_are_not_one_dimensional_rejected(self, tokens):
        sel = SelectionResult(indices=np.asarray([0, 1]), raw_scores=np.zeros(4), budget=2)
        with pytest.raises(ContractViolation, match="expects a token sequence"):
            decode_selection(tokens, sel)

    def test_out_of_range_rejected(self):
        sel = SelectionResult(
            indices=np.asarray([2]), raw_scores=np.zeros(3), budget=1
        )
        with pytest.raises(ContractViolation):
            decode_selection([1, 2], sel)


# ---------------------------------------------------------------- two-pass runs


def two_pass(w, tokens, r, k, t):
    """A gemfilter run: filter pass at layer r keeping k, then t tokens."""
    rc = RunConfig(Strategy.GEMFILTER, max_new_tokens=t, select_k=k, filter_layer=r)
    return run_generation(w, tokens, rc)


class TestSelectionGen:
    def test_k_equals_n_matches_full_generation(self):
        rng = np.random.default_rng(7)
        for seed in range(6):
            cfg = config(m=2, h=2, hk=1, dh=8)
            w = make_random_model(cfg, seed)
            prompt = rng.integers(0, cfg.vocab_size, size=17).tolist()
            full = run_generation(w, prompt, RunConfig(Strategy.FULL, max_new_tokens=10))
            run = two_pass(w, prompt, r=1, k=len(prompt), t=10)
            assert run.output_tokens == full.output_tokens
            assert run.selection.indices.tolist() == list(range(len(prompt)))

    def test_copy_model_needle_continuation_matches_full(self):
        cfg = copy_model_config()
        w = make_copy_model(cfg)
        tokens = [97] * 100 + [98] * 8 + [97] * 100 + [98]
        full = run_generation(w, tokens, RunConfig(Strategy.FULL, max_new_tokens=8))
        assert two_pass(w, tokens, r=1, k=32, t=8).output_tokens == full.output_tokens

    def test_generation_phase_flops_closed_form(self):
        """Second pass: full prefill over k tokens plus t-1 decode steps."""
        cfg = config(m=3, h=2, hk=2, dh=8)
        w = make_random_model(cfg, 8)
        n, k, t, r = 30, 10, 6, 2
        session = two_pass(w, list(range(n)), r=r, k=k, t=t).session
        gen = session.phase_cost(GENERATION).flops_by_tag
        m, h, dh = cfg.n_layers, cfg.n_heads, cfg.head_dim
        prefill_attn = m * h * 2 * k * k * dh
        decode_attn = m * h * 2 * dh * sum(k + j for j in range(1, t))
        assert gen["attn_score"] == prefill_attn + decode_attn
        assert gen["attn_value"] == prefill_attn + decode_attn

    def test_counter_conservation_across_phases(self):
        cfg = config(m=2)
        w = make_random_model(cfg, 9)
        session = two_pass(w, list(range(20)), r=1, k=8, t=4).session
        snap = session.snapshot()
        assert (
            snap[PROMPT].matmul_flops + snap[GENERATION].matmul_flops
            == session.total_flops
        )
        assert snap[PROMPT].matmul_flops > 0 and snap[GENERATION].matmul_flops > 0

    def test_t_zero_skips_second_pass(self):
        cfg = config(m=2)
        w = make_random_model(cfg, 10)
        run = two_pass(w, list(range(12)), r=1, k=6, t=0)
        assert run.output_tokens == []
        assert run.selection.indices.size == 6
        gen = run.session.phase_cost(GENERATION)
        assert gen.matmul_flops == 0 and gen.kv_bytes_peak == 0

    def test_k_above_n_clamps(self):
        cfg = config(m=2)
        w = make_random_model(cfg, 11)
        run = two_pass(w, list(range(8)), r=1, k=100, t=3)
        assert run.selection.indices.tolist() == list(range(8))
        full = run_generation(w, list(range(8)), RunConfig(Strategy.FULL, max_new_tokens=3))
        assert run.output_tokens == full.output_tokens


# ---------------------------------------------------------------- shape contrast


class TestIndexSetShapes:
    def test_one_global_set_vs_per_layer_per_head_sets(self):
        """The selection path carries a single index set; the compressors carry
        one per layer per kv-head."""
        cfg = config(m=3, h=4, hk=2, dh=8, max_seq=128)
        w = make_random_model(cfg, 12)
        tokens = list(range(40))
        sel = select_indices(w, tokens, gem_rc(r=1, k=10))
        assert sel.indices.ndim == 1

        rc = RunConfig(
            strategy=Strategy.SNAPKV,
            max_new_tokens=1,
            select_k=10,
            window=4,
            pool_kernel=3,
        )
        result = run_generation(w, tokens, rc)
        assert result.selection is None  # no global set for the compressors

        _, evict, score_rows = prompt_pass(rc, len(tokens), w.config.max_seq)
        compressed = prefill(tokens, w, evict=evict, score_rows=score_rows).caches
        assert len(compressed) == cfg.n_layers
        for layer in compressed:
            assert layer.keys.shape == layer.values.shape == (cfg.n_kv_heads, 10, cfg.head_dim)
