"""Model tests: attention vs a brute-force oracle, RoPE, GQA, prefill/decode."""

import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gemfilter import model
from gemfilter.costmodel import CostParams, cost_table
from gemfilter.counting import GENERATION, PROMPT, CostSession
from gemfilter.errors import ConfigurationError, ContractViolation
from gemfilter.model import (
    ROW_BLOCK,
    LayerKV,
    LayerWeights,
    ModelWeights,
    _attention,
    _exp_rows,
    _received_mass,
    _rope_table,
    _rotate,
    _silu,
    decode_step,
    embed,
    logits_from_hidden,
    prefill,
    project_qkv,
    run_layer,
)
from gemfilter.modelio import load_model, save_model
from gemfilter.runner import RunConfig, Strategy, run_generation
from gemfilter.selection import select_indices
from gemfilter.testmodels import copy_model_config, make_copy_model, make_random_model
from helpers import attention_oracle, config, copy_weights

F32 = np.float32


def one_head_attention(q, k, v):
    """Causal attention of one ``(nq, d)`` query head over ``(nk, d)`` keys and values."""
    out = np.empty((1, 1, q.shape[0], v.shape[1]), dtype=F32)
    return _attention(q[None, None], k[None], v[None], out=out)[0, 0]


def new_out(q, v):
    """A new row-major ``(nq, h_kv, g, d_v)`` output, viewed as ``_attention`` writes it."""
    hk, g, nq, _ = q.shape
    return np.empty((nq, hk, g, v.shape[2]), dtype=F32).transpose(1, 2, 0, 3)


def rotate_at(x, positions, theta):
    """A copy of ``(seq, heads, head_dim)`` rows rotated at any integer ``positions``."""
    x = x.copy()
    _rotate(x, _rope_table(positions, x.shape[2], theta))
    return x


# ---------------------------------------------------------------- embed


class TestEmbed:
    def test_row_lookup(self):
        w = make_random_model(config(), 0)
        out = embed([0], w)
        assert np.array_equal(out[0], w.tok_emb[0])
        assert out.dtype == F32 and not np.shares_memory(out, w.tok_emb)

    def test_repeated_token_identical_rows(self):
        w = make_random_model(config(), 0)
        out = embed([5, 5, 5], w)
        assert np.array_equal(out[0], out[1]) and np.array_equal(out[1], out[2])

    def test_full_sequence_matches_lookup_loop(self):
        w = make_random_model(config(), 1)
        ids = [3, 1, 4, 1, 5, 9, 2, 6]
        out = embed(ids, w)
        for i, tid in enumerate(ids):
            assert np.array_equal(out[i], w.tok_emb[tid])

    def test_out_of_range_rejected(self):
        w = make_random_model(config(vocab=16), 0)
        with pytest.raises(ContractViolation):
            embed([0, 16], w)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.int64, np.uint64])
    def test_every_integer_dtype_accepted(self, dtype):
        w = make_random_model(config(), 0)
        ids = [3, 1, 4]
        assert embed(np.array(ids, dtype=dtype), w).tobytes() == embed(ids, w).tobytes()


# ---------------------------------------------------------------- rope


class TestRope:
    def test_position_zero_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 3, 8)).astype(F32)
        out = rotate_at(x, [0], 10000.0)
        np.testing.assert_allclose(out, x, atol=1e-7)

    def test_pairwise_norms_preserved(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 2, 16)).astype(F32)
        out = rotate_at(x, [0, 3, 7, 100, 2048], 10000.0)
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=-1), np.linalg.norm(x, axis=-1), atol=1e-5
        )
        # each rotated pair keeps its 2-norm as well
        pairs_in = np.sqrt(x[..., 0::2] ** 2 + x[..., 1::2] ** 2)
        pairs_out = np.sqrt(out[..., 0::2] ** 2 + out[..., 1::2] ** 2)
        np.testing.assert_allclose(pairs_out, pairs_in, atol=1e-6)

    def test_inverse_rotation_round_trip(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 2, 12)).astype(F32)
        fwd = rotate_at(x, [11, 29, 53], 10000.0)
        back = rotate_at(fwd, [-11, -29, -53], 10000.0)
        np.testing.assert_allclose(back, x, atol=1e-5)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ConfigurationError):
            _rope_table([0], 7, 10000.0)
        with pytest.raises(ConfigurationError):
            config(dh=7, h=1)


def rope_factors(positions, dh, theta):
    """Each pair's rotation at ``positions``: float32 ``(cos, sin)``, ``(seq, 1, dh // 2)``."""
    rates = theta ** (-np.arange(0, dh, 2, dtype=np.float64) / dh)
    angles = np.asarray(positions, dtype=np.float64)[:, None, None] * rates
    return np.cos(angles).astype(F32), np.sin(angles).astype(F32)


def rope_pair_oracle(x, positions, theta):
    """The pair rotation written out as one fused multiply-add per part.

    ``fl(even * cos - fl(odd * sin))`` and ``fl(even * sin + fl(odd * cos))``:
    the inner product rounded to float32, the outer one exact in float64, and
    each part rounded once to float32.
    """
    cos, sin = rope_factors(positions, x.shape[2], theta)
    even, odd = x[..., 0::2], x[..., 1::2]
    wide = lambda a: a.astype(np.float64)
    out = np.empty_like(x)
    out[..., 0::2] = wide(even) * cos - wide(odd * sin)
    out[..., 1::2] = wide(even) * sin + wide(odd * cos)
    return out


class TestRopeTable:
    CFG = config(m=1, h=2, hk=1, dh=8, max_seq=300)

    def test_table_is_one_complex_row_per_position(self):
        table = make_random_model(self.CFG, 0).rope(0, self.CFG.max_seq)
        cos, sin = rope_factors(np.arange(self.CFG.max_seq), 8, self.CFG.rope_theta)
        assert table.dtype == np.complex64 and table.shape == (self.CFG.max_seq, 1, 4)
        assert table.real.tobytes() == cos.tobytes() and table.imag.tobytes() == sin.tobytes()

    def test_bit_identical_to_the_fma_oracle_at_every_position(self):
        w = make_random_model(self.CFG, 0)
        positions = np.arange(self.CFG.max_seq)
        x = np.random.default_rng(3).standard_normal((positions.size, 3, 8)).astype(F32)
        expected = rope_pair_oracle(x, positions, self.CFG.rope_theta)
        assert rotate_at(x, positions, self.CFG.rope_theta).tobytes() == expected.tobytes()
        # As run_layer rotates, in place over x with the model's table.
        _rotate(x, w.rope(0, positions.size))
        assert x.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("lo, hi", [(0, 1), (299, 300), (10, 266), (44, 300)])
    def test_one_row_and_a_chunk_of_a_fused_product_equal_the_oracle(self, lo, hi):
        """A decode row and a 256-row chunk, rotated in place as strided views
        of a fused Q/K/V product; the V columns are left as they were."""
        w, rows = make_random_model(self.CFG, 0), hi - lo
        fused = np.random.default_rng(lo).standard_normal((rows, 4 * 8)).astype(F32)
        qk = fused[:, : 3 * 8].reshape(rows, 3, 8)
        expected = rope_pair_oracle(qk.copy(), np.arange(lo, hi), self.CFG.rope_theta)
        v = fused[:, 24:].copy()
        _rotate(qk, w.rope(lo, hi))
        assert qk.tobytes() == expected.tobytes() and fused[:, 24:].tobytes() == v.tobytes()

    def test_rotation_error_no_larger_than_the_three_call_form(self):
        """Against a float64 rotation by the table's own float32 factors, at
        d_h = 128, the complex multiply's max error is no larger than the
        broadcast form's, ``fl(fl(pairs * cos) + fl(swapped * sin))`` over the
        reversed-stride view of the pairs.  Errors are in float32 ulps of each
        pair's norm, which the rotation keeps."""
        dh, theta, positions = 128, 10000.0, np.arange(512)
        x = np.random.default_rng(8).standard_normal((positions.size, 4, dh)).astype(F32)
        cos, sin = rope_factors(positions, dh, theta)
        pairs = x.reshape(*x.shape[:2], -1, 2)
        wide = pairs.astype(np.float64)
        even, odd, c, s = wide[..., 0], wide[..., 1], cos.astype(np.float64), sin.astype(np.float64)
        exact = np.stack([even * c - odd * s, even * s + odd * c], axis=-1)
        ulp = np.spacing(np.hypot(even, odd).astype(F32))[..., None]
        three_call = (
            pairs * np.stack([cos, cos], axis=-1) + pairs[..., ::-1] * np.stack([-sin, sin], axis=-1)
        )
        err = lambda got: (np.abs(got.reshape(exact.shape) - exact) / ulp).max()
        assert err(rotate_at(x, positions, theta)) <= err(three_call)

    def test_grown_table_equals_one_built_at_once(self):
        """Asked for a few positions at a time, the table's rows stay the same bits."""
        w, fresh = make_random_model(self.CFG, 0), make_random_model(self.CFG, 0)
        whole = fresh.rope(0, self.CFG.max_seq)
        for lo, hi in [(0, 1), (1, 7), (7, 8), (8, 200), (299, 300)]:
            assert w.rope(lo, hi).tobytes() == whole[lo:hi].tobytes()

    def test_run_layer_rotation_matches_oracle(self):
        """The layer's Q and cached K are the oracle rotations of the projections."""
        w, theta = make_random_model(self.CFG, 4), self.CFG.rope_theta
        lw = w.layers[0]
        x = np.random.default_rng(5).standard_normal((9, 16)).astype(F32)
        positions = np.arange(9, dtype=np.int64)
        cache = LayerKV.empty(1, 8, 9)
        q = project_qkv(x, w, 0, 0)[0][:, : self.CFG.n_heads]
        run_layer(x.copy(), w, 0, cache)
        xn = x / np.sqrt(np.mean(np.square(x), axis=1, keepdims=True) + F32(1e-5)) * lw.attn_norm
        want_q = rope_pair_oracle((xn @ lw.wq).reshape(9, 2, 8), positions, theta)
        want_k = rope_pair_oracle((xn @ lw.wk).reshape(9, 1, 8), positions, theta)
        np.testing.assert_allclose(q, want_q, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(cache.keys, want_k.transpose(1, 0, 2), rtol=1e-5, atol=1e-6)


class TestFusedProjection:
    CFG = config(m=2, h=4, hk=2, dh=8, max_seq=4096)

    def test_qkv_weights_are_column_views_of_one_buffer(self):
        w = make_random_model(self.CFG, 3)
        d, kv = self.CFG.d_model, self.CFG.n_kv_heads * self.CFG.head_dim
        for lw, fused in zip(w.layers, w.qkv):
            assert fused.shape == (d, d + 2 * kv)
            for part in (lw.wq, lw.wk, lw.wv):
                assert np.shares_memory(part, fused)
            assert np.array_equal(fused, np.concatenate([lw.wq, lw.wk, lw.wv], axis=1))

    def test_in_place_edit_reaches_projection(self):
        w = make_random_model(self.CFG, 3)
        assert prefill(list(range(6)), w).caches[1].keys.any()
        w.layers[1].wk[:, :] = 0.0
        assert not prefill(list(range(6)), w).caches[1].keys.any()

    def test_model_bytes_identical_to_separate_tensors(self, tmp_path):
        """GFM1 bytes of both test models, pinned from separate wq/wk/wv buffers
        and hand-written builders: the default shapes, a GQA random model with
        an odd MLP, a small vocabulary and no RoPE, and a one-layer copy model
        with wide heads and a large vocabulary."""
        gqa = config(m=3, h=4, hk=1, dh=8, vocab=97, hidden=37, use_rope=False)
        wide_copy = copy_model_config(n_layers=1, head_dim=128, vocab_size=1000)
        pinned = {
            "d0d8c3687153603142f32873436dc112895fd8a6371d8f6fdb5fb5a24d1bfbaf": lambda: (
                make_random_model(self.CFG, 3)
            ),
            "2fa18ec02f65bca2107253937c9eb19d3a4fe344f548a153c420c1278a4784c8": copy_weights,
            "50c6ed9e04557ff07f49a6d8b11f4f03bdedcad1977670a175f95da1d8d02d2a": lambda: (
                make_random_model(gqa, 11)
            ),
            "4570a5dbd982aa1970a86333e793902b5ce952a4f4f798e38b92521c99e78df4": lambda: (
                make_copy_model(wide_copy)
            ),
        }
        for digest, build in pinned.items():
            save_model(tmp_path / "m.gfm", build())
            assert hashlib.sha256((tmp_path / "m.gfm").read_bytes()).hexdigest() == digest
            save_model(tmp_path / "again.gfm", load_model(tmp_path / "m.gfm"))
            assert hashlib.sha256((tmp_path / "again.gfm").read_bytes()).hexdigest() == digest


    @pytest.mark.parametrize("dtype", [np.float64, np.float16, np.int64])
    def test_weights_that_are_not_float32_are_rejected(self, dtype):
        """float64 weights would double the bytes the counters predict, and
        integer ones run to garbage that looks valid: both are named and refused."""
        named = dict(make_random_model(self.CFG, 3).named_tensors())
        named["layers.1.w_in"] = named["layers.1.w_in"].astype(dtype)
        with pytest.raises(ConfigurationError, match=r"layers\.1\.w_in has dtype .*float32"):
            ModelWeights.from_named(self.CFG, named)


# ---------------------------------------------------------------- grouped-query heads


class TestRepeatKv:
    def test_non_divisible_head_layout_rejected(self):
        with pytest.raises(ConfigurationError):
            config(h=3, hk=2, dh=8)

    def test_gqa_equals_explicit_duplication(self):
        """Grouped model == model with kv projections explicitly duplicated per head."""
        cfg = config(m=2, h=4, hk=2, dh=8)
        w = make_random_model(cfg, 3)
        dh = cfg.head_dim
        groups = cfg.n_heads // cfg.n_kv_heads
        dup_cols = lambda mat: np.concatenate(
            [mat[:, (qh // groups) * dh : (qh // groups + 1) * dh] for qh in range(cfg.n_heads)],
            axis=1,
        )
        cfg_full = config(m=2, h=4, hk=4, dh=8)
        w_full = ModelWeights(
            config=cfg_full,
            tok_emb=w.tok_emb.copy(),
            layers=[
                LayerWeights(
                    wq=lw.wq.copy(),
                    wk=dup_cols(lw.wk),
                    wv=dup_cols(lw.wv),
                    wo=lw.wo.copy(),
                    w_in=lw.w_in.copy(),
                    w_out=lw.w_out.copy(),
                    attn_norm=lw.attn_norm.copy(),
                    mlp_norm=lw.mlp_norm.copy(),
                )
                for lw in w.layers
            ],
            final_norm=w.final_norm.copy(),
            out_emb=w.out_emb.copy(),
        )
        tokens = list(range(12))
        a = prefill(tokens, w)
        b = prefill(tokens, w_full)
        np.testing.assert_allclose(a.hidden, b.hidden, atol=1e-6)
        np.testing.assert_allclose(
            logits_from_hidden(a.hidden[-1], w), logits_from_hidden(b.hidden[-1], w_full), atol=1e-6
        )


# ---------------------------------------------------------------- attention


class TestCausalAttention:
    def test_single_token_returns_value_row(self):
        rng = np.random.default_rng(4)
        q = rng.standard_normal((1, 8)).astype(F32)
        k = rng.standard_normal((1, 8)).astype(F32)
        v = rng.standard_normal((1, 8)).astype(F32)
        assert np.array_equal(one_head_attention(q, k, v), v)

    def test_two_identical_keys_average_values(self):
        q = np.ones((1, 4), dtype=F32)
        k = np.tile(np.asarray([[1.0, 0.0, 2.0, -1.0]], dtype=F32), (2, 1))
        v = np.asarray([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]], dtype=F32)
        out = one_head_attention(q, k, v)
        np.testing.assert_allclose(out[0], v.mean(axis=0), atol=1e-6)

    # 63..131 cross query-row blocks (ROW_BLOCK = 64): partial, exact and spilled blocks.
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 63, 64, 65, 131])
    def test_matches_brute_force_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        q = rng.standard_normal((n, 8)).astype(F32)
        k = rng.standard_normal((n, 8)).astype(F32)
        v = rng.standard_normal((n, 8)).astype(F32)
        np.testing.assert_allclose(one_head_attention(q, k, v), attention_oracle(q, k, v), atol=1e-6)

    def test_decode_alignment_short_query(self):
        rng = np.random.default_rng(5)
        k = rng.standard_normal((6, 8)).astype(F32)
        v = rng.standard_normal((6, 8)).astype(F32)
        q = rng.standard_normal((2, 8)).astype(F32)
        np.testing.assert_allclose(one_head_attention(q, k, v), attention_oracle(q, k, v), atol=1e-6)

    def test_q_longer_than_k_rejected(self):
        with pytest.raises(ContractViolation):
            one_head_attention(np.ones((3, 4), dtype=F32), np.ones((2, 4), dtype=F32), np.ones((2, 4), dtype=F32))

    def test_rows_sum_to_one_with_rope_inputs(self):
        # Feed identity values so the output rows are the probability rows.
        rng = np.random.default_rng(6)
        n = 6
        q = rotate_at(rng.standard_normal((n, 1, 8)).astype(F32), np.arange(n), 1e4)[:, 0, :]
        k = rotate_at(rng.standard_normal((n, 1, 8)).astype(F32), np.arange(n), 1e4)[:, 0, :]
        probs = one_head_attention(q, k, np.eye(n, dtype=F32))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def stacked_attention(q, k, v, received=None, first_scored=0):
    """The all-heads form of the kernel: each query block scores every head in
    one stacked product and masks its upper triangle by boolean indexing.
    The same float32 steps as :func:`_attention`, so the same bytes: the query
    block scaled before its product, each row less its maximum exponentiated,
    row sums by one einsum (``np.add.reduce`` where ``nq == 1``), the value
    product divided by them, and the scored rows' float32 column sums of
    ``e * (1 / s)``, added to the float64 accumulator."""
    hk, g, nq, dim = q.shape
    nk = k.shape[1]
    offset = nk - nq
    keys_t, values = k.transpose(0, 2, 1)[:, None], v[:, None]
    above = np.triu(np.ones((ROW_BLOCK, ROW_BLOCK), dtype=bool), 1)
    out = np.empty((hk, g, nq, v.shape[2]), dtype=F32)
    for lo in range(0, nq, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, nq)
        b, cols = hi - lo, offset + hi
        scores = (q[:, :, lo:hi] * F32(1.0 / np.sqrt(dim))) @ keys_t[..., :cols]
        scores[..., cols - b :][..., above[:b, :b]] = -np.inf
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        sums = np.add.reduce(scores, axis=-1) if nq == 1 else np.einsum("...ij->...i", scores)
        out[:, :, lo:hi] = (scores @ values[:, :, :cols]) / sums[..., None]
        if received is not None and cols > first_scored:
            first = max(first_scored - offset - lo, 0)
            received[..., :cols] += np.einsum(
                "...i,...ij->...j", 1.0 / sums[..., first:], scores[:, :, first:]
            )
    return out


def grouped_qkv(rng, hk, g, nq, nk, dim=8):
    """Query heads as a view of ``(nq, h, d)`` rows, keys and values as views
    of reserved cache rows: the layout run_layer passes ``_attention``."""
    q = rng.standard_normal((nq, hk * g, dim)).astype(F32)
    q = q.reshape(nq, hk, g, dim).transpose(1, 2, 0, 3)
    k, v = rng.standard_normal((2, hk, nk + 5, dim)).astype(F32)[:, :, :nk]
    return q, k, v


# nq = 130 runs blocks of 64 + 64 + 2 rows; 7 extra keys align the queries
# as a chunk after an earlier one does.
ATTENTION_ROWS = pytest.mark.parametrize("nq", [1, 2, 63, 64, 65, 130])
ATTENTION_LAYOUTS = pytest.mark.parametrize(
    "hk, g", [(2, 2), (1, 4), (4, 1), (2, 1)], ids=["hk2-g2", "hk1-g4", "hk4-g1", "hk2-g1"]
)


@ATTENTION_ROWS
@ATTENTION_LAYOUTS
def test_attention_bytes_equal_the_stacked_all_heads_kernel(hk, g, nq):
    """``_attention``'s output and ``received`` bytes equal the stacked
    all-heads kernel's, in the layout run_layer passes."""
    rng = np.random.default_rng(1000 * hk + 100 * g + nq)
    for extra in (0, 7):
        nk = nq + extra
        q, k, v = grouped_qkv(rng, hk, g, nq, nk)
        out = _attention(q, k, v, out=new_out(q, v))
        assert out.tobytes() == stacked_attention(q, k, v).tobytes()
        # In place over a copy of the query rows, as run_layer runs it.
        over_q = q.transpose(2, 0, 1, 3).copy().transpose(1, 2, 0, 3)
        assert _attention(over_q, k, v, out=over_q) is over_q
        assert over_q.tobytes() == stacked_attention(q, k, v).tobytes()
        # First scored key row: the first, one mid-prompt, the last.
        for first_scored in (0, extra + nq // 2, nk - 1):
            got, want = np.zeros((2, hk, g, nk))
            out = _attention(q, k, v, got, first_scored, out=new_out(q, v))
            assert out.tobytes() == stacked_attention(q, k, v, want, first_scored).tobytes()
            assert got.tobytes() == want.tobytes(), first_scored


@ATTENTION_ROWS
@ATTENTION_LAYOUTS
def test_attention_output_bytes_do_not_depend_on_the_scored_rows(hk, g, nq):
    """Every strategy runs the same steps on every block: the output bytes
    are the same with no ``received`` accumulator and with one from any first
    scored key row, including none at all (``first_scored = nk``)."""
    rng = np.random.default_rng(2000 * hk + 100 * g + nq)
    for extra in (0, 7):
        nk = nq + extra
        q, k, v = grouped_qkv(rng, hk, g, nq, nk)
        plain = _attention(q, k, v, out=new_out(q, v)).tobytes()
        for first_scored in (0, 1, extra, extra + nq // 2, nk - 1, nk):
            received = np.zeros((hk, g, nk))
            got = _attention(q, k, v, received, first_scored, out=new_out(q, v))
            assert got.tobytes() == plain, first_scored
            assert np.any(received) == (first_scored < nk)


def softmax_via_attention(scores):
    """softmax(scores), read out of one width-1 query over identity values."""
    s = np.asarray(scores, dtype=F32)
    return one_head_attention(np.ones((1, 1), dtype=F32), s[:, None], np.eye(s.size, dtype=F32))[0]


class TestAttentionSoftmax:
    """Stability of the softmax the attention kernel runs in place."""

    def test_symmetric_pair(self):
        assert softmax_via_attention([0.0, 0.0]) == pytest.approx([0.5, 0.5])

    def test_analytic_closed_form(self):
        out = softmax_via_attention([0.0, math.log(3.0)])
        assert out == pytest.approx([0.25, 0.75], abs=1e-6)

    def test_large_inputs_no_overflow(self):
        out = softmax_via_attention([1000.0, 1000.0, 1000.0])
        assert np.all(np.isfinite(out))
        assert out == pytest.approx([1 / 3] * 3, abs=1e-6)

    def test_rows_sum_to_one_random(self):
        rng = np.random.default_rng(1)
        for scale in (1.0, 1e3):
            q = (rng.standard_normal((40, 17)) * scale).astype(F32)
            k = (rng.standard_normal((40, 17)) * scale).astype(F32)
            out = one_head_attention(q, k, np.eye(40, dtype=F32))
            assert np.all(np.isfinite(out))
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)


# ---------------------------------------------------------------- layer scores


def received_oracle(probs_rows, n):
    """Column sums of explicit probability rows, one float64 add at a time."""
    out = np.zeros(n)
    for row in probs_rows:
        for j in range(n):
            out[j] += float(row[j])
    return out


@pytest.mark.parametrize("rows", [1, 2, 63, 64])
@pytest.mark.parametrize("cols", [5, 17, 65, 257, 2049])
def test_identical_key_columns_receive_identical_mass(rows, cols):
    """A key column repeated first, in the middle and last of a block gets
    the same mass bits at each place, so a tie among equal keys breaks
    toward the lower index, not by where a column sits.  A BLAS product
    ``(1 / s) @ e`` can sum the columns of its vector tail in another order
    and fails this."""
    rng = np.random.default_rng(100 * rows + cols)
    scores = rng.standard_normal((rows, cols)).astype(F32)
    places = [0, cols // 2, cols - 1]
    scores[:, places] = rng.standard_normal((rows, 1)).astype(F32)
    e = _exp_rows(scores)
    mass = _received_mass(e, np.einsum("ij->i", e))
    assert mass.dtype == F32 and mass.shape == (cols,)
    assert len({mass[c].tobytes() for c in places}) == 1


def exp_rows_and_sums(qrows, keys):
    """The float32 numerators ``e`` and row sums ``s`` ``_attention`` takes for
    one ``(nq, d)`` query head over ``(nk, d)`` keys, replicating its block
    steps: query blocks of ROW_BLOCK rows, each scaled before its score
    product over the keys its last row sees, masked above the diagonal, less
    each row's maximum, exponentiated and summed by one einsum.  ``e`` is
    ``(nq, nk)``, zero past the keys each block scores."""
    nq, dim = qrows.shape
    nk = keys.shape[0]
    offset = nk - nq
    e, s = np.zeros((nq, nk), dtype=F32), np.empty(nq, dtype=F32)
    for lo in range(0, nq, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, nq)
        cols = offset + hi
        block = (qrows[lo:hi] * F32(1.0 / np.sqrt(dim))) @ keys[:cols].T
        block[np.triu(np.ones(block.shape, dtype=bool), offset + lo + 1)] = -np.inf
        block -= block.max(axis=1, keepdims=True)
        np.exp(block, out=block)
        e[lo:hi, :cols], s[lo:hi] = block, np.einsum("ij->i", block)
    return e, s


def run_layer_cases():
    """``(n, h, h_kv, rows)``: prompt lengths that fill, end or spill a query-row
    block, GQA layouts, and 1, 3 or all score rows.  The n = 11, (4, 2) cases
    keep their short ids."""
    for n in (11, 63, 64, 65, 131):
        for h, hk in ((4, 2), (4, 1), (2, 2)):
            for rows in (1, 3, n):
                base = (n, h, hk) == (11, 4, 2)
                yield pytest.param(
                    n, h, hk, rows, id=str(rows) if base else f"n{n}-h{h}-hk{hk}-rows{rows}"
                )


def layer_oracle(x, w, q, cache):
    """Layer 0's output from its own Q and cache, one head at a time in float64."""
    cfg, lw = w.config, w.layers[0]
    groups = cfg.n_heads // cfg.n_kv_heads
    wide = lambda a: np.asarray(a, dtype=np.float64)
    attn = np.concatenate(
        [
            attention_oracle(q[:, qh], cache.keys[qh // groups], cache.values[qh // groups])
            for qh in range(cfg.n_heads)
        ],
        axis=1,
    )
    x = wide(x) + attn @ wide(lw.wo)
    xn = x / np.sqrt(np.mean(x * x, axis=1, keepdims=True) + cfg.norm_eps) * wide(lw.mlp_norm)
    hidden = xn @ wide(lw.w_in)
    return x + hidden / (1.0 + np.exp(-hidden)) @ wide(lw.w_out)


class TestRunLayerScores:
    """run_layer's score array: attention each key received from the last rows."""

    N = 11
    # Relative rounding of a block's float32 column sums: (ROW_BLOCK + 2) ulps
    # of 1, for the reciprocal, the products and the partial sums.
    SUM_ROUNDING = (ROW_BLOCK + 2) * 2.0**-24

    def _layer(self, score_rows, n=N, h=4, hk=2):
        cfg = config(m=1, h=h, hk=hk, dh=8, max_seq=256)
        w = make_random_model(cfg, 21)
        x = embed([(5 * i + 2) % cfg.vocab_size for i in range(n)], w)
        out, cache = x.copy(), LayerKV.empty(hk, 8, n)
        received = np.zeros((hk, h // hk, n)) if score_rows else None
        q = project_qkv(x, w, 0, 0)[0][:, :h]
        run_layer(out, w, 0, cache, received, n - score_rows)
        return x, w, (out, q, cache, None if received is None else received.reshape(h, n))

    @pytest.mark.parametrize("n, h, hk, rows", run_layer_cases())
    def test_matches_probability_oracle(self, n, h, hk, rows):
        x, w, (out, q, cache, scores) = self._layer(rows, n, h, hk)
        assert scores.shape == (h, n) and scores.dtype == np.float64
        for qh in range(h):
            kvh = qh // (h // hk)  # GQA: query heads j*g .. j*g+g-1 read kv-head j
            qrows, keys = q[:, qh, :], cache.keys[kvh]
            # The engine's own float32 numerators and row sums, e / s summed
            # in float64 by hand.  The engine rounds 1 / s and each product
            # and partial sum of a block's <= ROW_BLOCK rows to float32; every
            # term is >= 0, so each column is within SUM_ROUNDING of it.
            e, sums = exp_rows_and_sums(qrows, keys)
            probs = e.astype(np.float64) / sums.astype(np.float64)[:, None]
            np.testing.assert_allclose(
                scores[qh], received_oracle(probs[n - rows :], n),
                rtol=self.SUM_ROUNDING, atol=1e-12,
            )
            # Against probabilities computed in float64 throughout.
            exact = attention_oracle(qrows, keys, np.eye(n))
            np.testing.assert_allclose(
                scores[qh], received_oracle(exact[n - rows :], n), rtol=1e-6, atol=1e-6
            )
        np.testing.assert_allclose(out, layer_oracle(x, w, q, cache), rtol=1e-5, atol=1e-5)

    def test_zero_rows_returns_none(self):
        assert self._layer(0)[2][3] is None


# ---------------------------------------------------------------- prefill


class TestPrefill:
    def test_one_token_full_pass_has_logits(self):
        w = make_random_model(config(), 7)
        logits = logits_from_hidden(prefill([3], w).hidden[-1], w)
        assert logits.shape == (64,)
        assert np.all(np.isfinite(logits))

    def test_partial_prefill_charges_r_over_m(self):
        cfg = config(m=4)
        w = make_random_model(cfg, 8)
        tokens = list(range(20))
        s_full, s_part = CostSession(), CostSession()
        with s_full.activate():
            prefill(tokens, w)
        with s_part.activate():
            prefill(tokens, w, upto_layer=3, evict=lambda cache, scores: None)
        full = s_full.phase_cost(PROMPT).flops_by_tag
        part = s_part.phase_cost(PROMPT).flops_by_tag
        for tag in ("attn_score", "attn_value", "proj", "mlp"):
            assert full[tag] * 3 == part[tag] * 4

    def test_evict_to_nothing_keeps_no_cache(self):
        cfg = config(m=3)
        w = make_random_model(cfg, 11)
        n = 10
        session = CostSession()
        with session.activate():
            pre = prefill(list(range(n)), w, evict=lambda cache, scores: None)
        assert pre.caches == []
        one_layer = 2 * cfg.n_kv_heads * n * cfg.head_dim * 4  # keys + values, float32
        assert session.phase_cost(PROMPT).kv_bytes_peak == one_layer

    def test_prefix_property(self):
        w = make_random_model(config(), 9)
        base = prefill(list(range(10)), w)
        extended = prefill(list(range(10)) + [42], w)
        for c_base, c_ext in zip(base.caches, extended.caches):
            np.testing.assert_allclose(c_ext.keys[:, :10], c_base.keys, atol=1e-5)
            np.testing.assert_allclose(c_ext.values[:, :10], c_base.values, atol=1e-5)

    def test_causality_exact(self):
        w = make_random_model(config(), 10)
        tokens = list(range(12))
        ref = prefill(tokens, w).hidden
        perturbed = list(tokens)
        j = 7
        perturbed[j] = 63
        out = prefill(perturbed, w).hidden
        assert np.array_equal(out[:j], ref[:j])
        assert not np.array_equal(out[j:], ref[j:])

    def test_upto_layer_out_of_range(self):
        w = make_random_model(config(m=2), 0)
        for upto in (-1, 3):
            with pytest.raises(ContractViolation, match=rf"upto_layer {upto} outside 0\.\.2"):
                prefill([1, 2], w, upto_layer=upto)

    def test_upto_layer_zero_only_embeds(self):
        w = make_random_model(config(m=2), 0)
        tokens = [5, 1, 9]
        session = CostSession()
        with session.activate():
            pre = prefill(tokens, w, upto_layer=0)
        assert pre.hidden.tobytes() == embed(tokens, w).tobytes()
        assert pre.hidden.dtype == F32 and pre.hidden.shape == (3, w.config.d_model)
        assert pre.caches == []
        for cost in session.snapshot().values():
            assert cost.flops_by_tag == {}
            assert cost.kv_bytes_peak == 0 and cost.weight_bytes_touched == 0

    def test_max_seq_enforced(self):
        w = make_random_model(config(max_seq=8), 0)
        with pytest.raises(ContractViolation):
            prefill(list(range(9)), w)

    @pytest.mark.parametrize(
        "score_rows, message",
        [(-1, "score_rows -1 must be >= 0"), (4, "prompt length 3 shorter than window 4")],
        ids=["negative", "past-the-prompt"],
    )
    def test_score_rows_outside_the_prompt_rejected(self, score_rows, message):
        w = make_random_model(config(), 0)
        session = CostSession()
        with session.activate(), pytest.raises(ContractViolation, match=message):
            prefill([1, 2, 3], w, score_rows=score_rows)
        assert session.total_flops == 0

    @pytest.mark.parametrize(
        "tokens, message",
        [
            ([], r"prompt length 0 must be >= 1"),
            ([[1, 2], [3, 4]], r"embed expects a non-empty token sequence"),
            (list(range(9)), r"prompt length 9 exceeds max_seq 8"),
            ([1.0, 2.0], r"token ids must be integers, got dtype float64"),
        ],
        ids=["empty", "2-d", "over-max-seq", "float"],
    )
    def test_prompt_rejected_through_prefill_and_selection(self, tokens, message):
        w = make_random_model(config(max_seq=8), 0)
        rc = RunConfig(Strategy.GEMFILTER, select_k=2, filter_layer=2)
        with pytest.raises(ContractViolation, match=message):
            prefill(tokens, w)
        with pytest.raises(ContractViolation, match=message):
            select_indices(w, tokens, rc)


# ---------------------------------------------------------------- decode


class TestLayerKV:
    """Reserved room: appends write into it, and it holds no counted bytes."""

    HK, DH = 2, 4

    def _cache(self, n=5):
        rng = np.random.default_rng(3)
        shape = (self.HK, n, self.DH)
        return LayerKV(
            keys=rng.standard_normal(shape).astype(F32),
            values=rng.standard_normal(shape).astype(F32),
            next_position=n,
        )

    def _row(self, seed):
        """One row's keys and values per kv-head; the same ``seed``, the same row."""
        rng = np.random.default_rng(seed)
        shape = (self.HK, 1, self.DH)
        return rng.standard_normal(shape).astype(F32), rng.standard_normal(shape).astype(F32)

    @staticmethod
    def _parts(cache):
        return (cache.keys, cache.values)

    def test_append_after_reserve_does_not_reallocate(self):
        cache, grown = self._cache(), self._cache()
        cache.reserve(3)
        buffers = [part.base for part in self._parts(cache)]
        for pos in (5, 6, 7):
            cache.append(*self._row(pos))
            grown.append(*self._row(pos))
            assert all(p.base is b for p, b in zip(self._parts(cache), buffers))
        cache.append(*self._row(8))  # past the reserved room: grows
        grown.append(*self._row(8))
        assert all(p.base is not b for p, b in zip(self._parts(cache), buffers))
        for mine, theirs in zip(self._parts(cache), self._parts(grown)):
            np.testing.assert_array_equal(mine, theirs)
        assert cache.next_position == 9

    def test_nbytes_counts_rows_held_not_capacity(self):
        cache = self._cache(n=5)
        held = 2 * self.HK * 5 * self.DH * 4  # keys + values, float32
        assert cache.nbytes == held
        cache.reserve(100)
        assert cache.nbytes == held and len(cache) == 5
        cache.append(*self._row(5))
        assert cache.nbytes == held * 6 // 5 and len(cache) == 6

    def test_reserve_holds_at_most_one_old_part_twice(self):
        """Growing copies keys, then values, and drops each old buffer before
        the next part grows: the peak is the grown buffers plus the old keys,
        not both old parts."""
        tracemalloc.start()
        try:
            cache = self._cache(n=1024)
            old_keys = cache.keys.nbytes
            tracemalloc.reset_peak()
            cache.reserve(256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grown = sum(part.base.nbytes for part in self._parts(cache))
        assert peak <= grown + old_keys + 4096, (peak, grown + old_keys)

    def test_gather_on_reserved_cache(self):
        cache, plain = self._cache(), self._cache()
        cache.reserve(4)
        for pos in (5, 6):
            cache.append(*self._row(pos))
            plain.append(*self._row(pos))
        rows = np.asarray([[0, 3, 6], [1, 5, 6]])
        kept = cache.gather(rows)
        for mine, theirs in zip(self._parts(kept), self._parts(plain.gather(rows))):
            np.testing.assert_array_equal(mine, theirs)
        for j in range(self.HK):
            assert kept.keys[j].tobytes() == plain.keys[j][rows[j]].tobytes()
            assert kept.values[j].tobytes() == plain.values[j][rows[j]].tobytes()
        cache.append(*self._row(7))  # the gathered cache owns its rows
        assert len(kept) == 3 and kept.next_position == 7

    def _rows(self, v_rows=None):
        k = np.random.default_rng(2).standard_normal((self.HK, 2, self.DH)).astype(F32)
        return k, k.copy() if v_rows is None else v_rows

    def test_append_rejects_values_that_disagree_with_keys(self):
        cache = self._cache()
        one_row_values = np.zeros((self.HK, 1, self.DH), dtype=F32)
        with pytest.raises(ContractViolation, match="append expects"):
            cache.append(*self._rows(v_rows=one_row_values))
        fewer_heads = np.zeros((1, 2, self.DH), dtype=F32)
        with pytest.raises(ContractViolation, match="append expects"):
            cache.append(*self._rows(v_rows=fewer_heads))
        assert len(cache) == 5

    @pytest.mark.parametrize(
        "part, replacement, message",
        [
            ("values", np.zeros((2, 5, 3), dtype=F32), "component shapes disagree"),
            ("next_position", 4, "next_position 4 is not an integer >= len 5"),
            ("next_position", 5.5, "next_position 5.5 is not an integer"),
            ("next_position", True, "next_position True is not an integer"),
        ],
        ids=["values-shape", "position-below-rows", "float-position", "bool-position"],
    )
    def test_construction_rejects_disagreeing_parts(self, part, replacement, message):
        cache = self._cache()
        parts = dict(keys=cache.keys, values=cache.values, next_position=cache.next_position)
        parts[part] = replacement
        with pytest.raises(ContractViolation, match=message):
            LayerKV(**parts)

    def test_a_cache_may_resume_past_its_rows(self):
        """An evicted cache holds fewer rows than its position: a next_position
        at or past len is accepted, and appends go on from it."""
        cache = self._cache()
        kept = LayerKV(cache.keys[:, :2], cache.values[:, :2], next_position=5)
        assert len(kept) == 2 and kept.next_position == 5
        assert LayerKV.empty(self.HK, self.DH, 1).next_position == 0
        kept.append(*self._row(5))
        assert len(kept) == 3 and kept.next_position == 6

    @pytest.mark.parametrize(
        "rows",
        [
            np.asarray([[0, 1, 3], [0, 3, 3]]),
            np.asarray([[0, 1, 3], [4, 3, 2]]),
            np.asarray([[0, 5], [1, 2]]),
            np.asarray([[-1], [-1]]),
            np.asarray([[0, 2], [-3, 1]]),
            np.asarray([[0, 1]]),
            np.asarray([0, 1]),
            np.asarray([[0.0, 1.0], [0.0, 1.0]]),
            np.asarray([[False, True], [False, True]]),
        ],
        ids=[
            "repeated", "decreasing", "past-the-end", "negative", "negative-first",
            "too-few-heads", "one-dimensional", "float", "bool",
        ],
    )
    def test_gather_rejects_rows_it_cannot_keep(self, rows):
        """Rows must be (n_kv_heads, r) integers, strictly increasing in each
        head, within 0..len-1: a negative row would wrap to the end and a
        repeated one would keep a row twice."""
        cache = self._cache()
        with pytest.raises(ContractViolation, match="gather expects"):
            cache.gather(rows)

    def test_gather_keeps_its_source_position(self):
        """An evicted cache resumes where its source does, whichever rows it
        keeps: none of the last row here, and no row at all."""
        cache = self._cache(n=6)
        for rows in ([[0, 2], [1, 4]], [[5], [5]], np.empty((self.HK, 0), dtype=np.int64)):
            kept = cache.gather(np.asarray(rows))
            assert kept.next_position == 6 and len(kept) == np.shape(rows)[1]
        kept.append(*self._row(6))
        assert len(kept) == 1 and kept.next_position == 7


class TestDecodeStep:
    @pytest.mark.parametrize("seed", range(10))
    def test_decode_matches_reprefill(self, seed):
        cfg = config(m=2, h=2, hk=1, dh=8)
        w = make_random_model(cfg, seed)
        rng = np.random.default_rng(1000 + seed)
        prompt = rng.integers(0, cfg.vocab_size, size=9).tolist()
        pre = prefill(prompt, w)
        seq = list(prompt)
        nxt = int(np.argmax(logits_from_hidden(pre.hidden[-1], w)))
        for _ in range(8):
            seq.append(nxt)
            logits_inc = decode_step(nxt, pre.caches, w)
            logits_ref = logits_from_hidden(prefill(seq, w).hidden[-1], w)
            np.testing.assert_allclose(logits_inc, logits_ref, atol=1e-4)
            nxt_inc = int(np.argmax(logits_inc))
            assert nxt_inc == int(np.argmax(logits_ref))
            nxt = nxt_inc

    def test_cache_grows_one_row_per_layer_per_step(self):
        w = make_random_model(config(), 11)
        pre = prefill([1, 2, 3], w)
        decode_step(4, pre.caches, w)
        assert all(len(c) == 4 for c in pre.caches)
        decode_step(5, pre.caches, w)
        assert all(len(c) == 5 for c in pre.caches)
        assert all(c.next_position == 5 for c in pre.caches)

    def test_generation_score_flops_match_closed_form(self):
        cfg = config(m=3, h=2, hk=2, dh=8)
        w = make_random_model(cfg, 12)
        n, t = 11, 5
        session = CostSession()
        with session.activate():
            with session.in_phase(PROMPT):
                pre = prefill(list(range(n)), w)
            with session.in_phase(GENERATION):
                tok = 1
                for _ in range(t):
                    logits = decode_step(tok, pre.caches, w)
                    tok = int(np.argmax(logits))
        gen = session.phase_cost(GENERATION).flops_by_tag
        key_rows = sum(n + j for j in range(1, t + 1))
        expected = cfg.n_layers * cfg.n_heads * 2 * cfg.head_dim * key_rows
        assert gen["attn_score"] == expected
        assert gen["attn_value"] == expected

    def test_decode_past_max_seq_rejected(self):
        """Called directly, a step whose position would be max_seq changes nothing."""
        w = make_random_model(config(max_seq=6), 0)
        caches = prefill([1, 2, 3, 4, 5], w).caches
        decode_step(6, caches, w)  # position 5, the last of max_seq = 6
        assert caches[0].next_position == 6
        session = CostSession()
        with session.activate(), pytest.raises(ContractViolation, match="exceed max_seq"):
            decode_step(7, caches, w)
        assert [len(c) for c in caches] == [6, 6]
        assert session.total_flops == 0

    @pytest.mark.parametrize(
        "token", [0, 63, np.int32(17), np.int64(42)], ids=["first", "last", "int32", "int64"]
    )
    def test_step_row_is_the_embedding_row(self, monkeypatch, token):
        """The row a step runs through its first layer is ``embed([token])``, byte for byte."""
        w = make_random_model(config(vocab=64), 3)
        caches = prefill([1, 2, 3], w).caches
        rows = []

        def first_layer_row(x, weights, layer_idx, *args, real=model.run_layer):
            if layer_idx == 0:
                rows.append(x.copy())
            return real(x, weights, layer_idx, *args)

        monkeypatch.setattr(model, "run_layer", first_layer_row)
        decode_step(token, caches, w)
        expected = embed([token], w)
        assert rows[0].dtype == expected.dtype and rows[0].shape == expected.shape
        assert rows[0].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("token", [-1, 64, np.int64(2**40)])
    def test_step_out_of_vocabulary_rejected_as_embed_rejects_it(self, token):
        """A step rejects an id outside the vocabulary with embed's message,
        before anything is appended or charged."""
        w = make_random_model(config(vocab=64), 3)
        caches = prefill([1, 2, 3], w).caches
        with pytest.raises(ContractViolation) as from_embed:
            embed([token], w)
        session = CostSession()
        with session.activate(), pytest.raises(ContractViolation) as from_step:
            decode_step(token, caches, w)
        assert str(from_step.value) == str(from_embed.value)
        assert str(from_step.value) == f"token id {int(token)} outside vocabulary of size 64"
        assert [len(c) for c in caches] == [3, 3]
        assert session.total_flops == 0

    def test_decode_without_caches_rejected(self):
        w = make_random_model(config(), 0)
        with pytest.raises(ContractViolation):
            decode_step(1, [], w)

    @pytest.mark.parametrize("ahead", [0, 2], ids=["first-ahead", "last-ahead"])
    def test_decode_rejects_caches_at_different_positions(self, ahead):
        """A cache ahead of the others, the first or a later one, is rejected
        before any layer appends or anything is charged."""
        w = make_random_model(config(m=3), 0)
        caches = prefill([1, 2, 3, 4, 5], w).caches
        caches[ahead].append(caches[ahead].keys[:, -1:], caches[ahead].values[:, -1:])
        lengths = [len(c) for c in caches]
        session = CostSession()
        with session.activate(), pytest.raises(ContractViolation, match="one position"):
            decode_step(6, caches, w)
        assert [len(c) for c in caches] == lengths
        assert session.total_flops == 0

    @pytest.mark.parametrize("bad", ["head-dim", "kv-heads", "float64-keys", "float64-values"])
    @pytest.mark.parametrize("layer", [0, 2], ids=["first", "last"])
    def test_decode_rejects_caches_the_model_cannot_extend(self, bad, layer):
        """A cache of another head_dim, kv-head count or dtype, the first or a
        later one, is rejected before any layer appends or anything is charged."""
        w = make_random_model(config(m=3, h=4, hk=2, dh=4), 0)
        caches = prefill([1, 2, 3, 4, 5], w).caches
        keys, values = caches[layer].keys, caches[layer].values
        keys, values = {
            "head-dim": (keys[..., :2], values[..., :2]),
            "kv-heads": (keys[:1], values[:1]),
            "float64-keys": (keys.astype(np.float64), values),
            "float64-values": (keys, values.astype(np.float64)),
        }[bad]
        caches[layer] = LayerKV(keys=keys, values=values, next_position=5)
        session = CostSession()
        with session.activate(), pytest.raises(ContractViolation, match=f"layer {layer} cache"):
            decode_step(6, caches, w)
        assert [(len(c), c.next_position) for c in caches] == [(5, 5)] * 3
        assert session.total_flops == 0

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("use_rope", [True, False])
    def test_one_step_calls_each_kernel_a_fixed_number_of_times(self, monkeypatch, m, use_rope):
        """Per step: one rotary lookup per layer (None without RoPE), 2m + 1
        norms, and a charge for each of the 4m + 1 products plus 2 for all
        layers' attention."""
        cfg = config(m=m, h=4, hk=2, dh=8, use_rope=use_rope)
        w = make_random_model(cfg, 14)
        prompt, t = [3, 1, 4, 1, 5], 2
        calls = {"rope": 0, "rms_norm_rows": 0, "count_matmul": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        pre = prefill(prompt, w)
        monkeypatch.setattr(ModelWeights, "rope", counted("rope", ModelWeights.rope))
        for name in ("rms_norm_rows", "count_matmul"):
            monkeypatch.setattr(model, name, counted(name, getattr(model, name)))
        decode_step(2, pre.caches, w)
        expected = {"rope": m, "rms_norm_rows": 2 * m + 1, "count_matmul": (4 * m + 1) + 2}
        assert calls == expected
        monkeypatch.undo()

        # The step's counters, charged once for all layers, are the closed form's.
        rc = RunConfig(Strategy.FULL, max_new_tokens=t)
        measured = run_generation(w, prompt, rc).session.phase_cost(GENERATION)
        predicted = cost_table(CostParams.from_weights(w, n=len(prompt), k=64, t=t, r=1))
        assert replace(measured, wall_time=0.0) == predicted["full"][GENERATION]


# ---------------------------------------------------------------- activation


def silu_clip_formula(x):
    """The activation as first written: the sigmoid's exponent clipped by ``np.clip``."""
    return x / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def silu_edge_values():
    tiny = np.finfo(F32).smallest_subnormal
    edges = [60.0, np.inf, 1e30, tiny, tiny * 7, np.finfo(F32).tiny / 2, 0.0]
    edges += [np.nextafter(F32(60), F32(np.inf)), np.nextafter(F32(60), F32(0))]
    return np.asarray(edges + [-e for e in edges] + [np.nan, -np.nan], dtype=F32)


def test_silu_needs_no_upper_clamp():
    """From 60 on, 1 + exp(-x) rounds to 1.0 in float32, so the one-sided
    clamp gives the bytes of the two-sided ``np.clip``: on +-inf, NaN, +-60 and the ulps around
    them, subnormals, and 10^4 random bit patterns and 10^4 random values."""
    ulps = []
    for edge in (F32(60), F32(-60)):
        for direction in (np.inf, -np.inf):
            step = edge
            for _ in range(4):
                step = np.nextafter(step, F32(direction))
                ulps.append(step)
    rng = np.random.default_rng(60)
    x = np.concatenate(
        [
            silu_edge_values(),
            np.asarray(ulps, dtype=F32),
            rng.integers(0, 2**32, 10**4, dtype=np.uint32).view(F32),
            (rng.standard_normal(10**4) * 100).astype(F32),
        ]
    )
    with np.errstate(all="ignore"):
        expected = silu_clip_formula(x)
        got = _silu(x.copy())
    assert got.dtype == F32 and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("rows", [1, 300])
def test_silu_bytes_equal_the_clip_formula_on_edge_values(rows):
    edges = silu_edge_values()
    rng = np.random.default_rng(rows)
    x = np.concatenate(
        [
            np.stack([np.roll(edges, i) for i in range(rows)]),
            (rng.standard_normal((rows, 16)) * 40).astype(F32),
        ],
        axis=1,
    )
    with np.errstate(all="ignore"):
        expected = silu_clip_formula(x)
        got = _silu(x.copy())
    assert got.dtype == F32 and got.tobytes() == expected.tobytes()


# ---------------------------------------------------------------- greedy


class TestGreedyGenerate:
    def test_incremental_equals_reprefill_tokens(self):
        cfg = config(m=2, h=2, hk=2, dh=8)
        w = make_random_model(cfg, 13)
        prompt = [5, 9, 13, 2]
        fast = run_generation(w, prompt, RunConfig(Strategy.FULL, max_new_tokens=6)).output_tokens
        # Oracle: repeatedly re-prefill the growing sequence.
        seq = list(prompt)
        slow = []
        for _ in range(6):
            logits = logits_from_hidden(prefill(seq, w).hidden[-1], w)
            nxt = int(np.argmax(logits))
            slow.append(nxt)
            seq.append(nxt)
        assert fast == slow

    def test_zero_tokens(self):
        w = make_random_model(config(), 0)
        rc = RunConfig(Strategy.FULL, max_new_tokens=0)
        assert run_generation(w, [1, 2], rc).output_tokens == []

    @pytest.mark.parametrize(
        "token", [3.7, "4", np.float32(2.9), True, np.True_],
        ids=["float", "str", "float32", "bool", "numpy-bool"],
    )
    def test_non_integer_token_rejected(self, token):
        """A token that is not an integer is rejected, not truncated or parsed,
        before any cache grows."""
        w = make_random_model(config(), 0)
        caches = prefill([1, 2, 3], w).caches
        with pytest.raises(ContractViolation, match="token ids must be integers"):
            model.greedy_decode(w, caches, token, 2)
        assert [len(c) for c in caches] == [3, 3]

    @pytest.mark.parametrize(
        "prompt",
        [
            [1.5, 2.2, 3.9], ["1", "2", "3"], np.array([1.5, 2.0]), [True, False, True],
            [1, True, 3], (1, 2, np.False_),
        ],
        ids=["float", "str", "float-array", "bool", "int-bool", "int-numpy-bool"],
    )
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_non_integer_prompt_rejected(self, prompt, strategy):
        """A prompt of ids that are not integers is rejected, not truncated or parsed."""
        w = make_random_model(config(), 0)
        rc = RunConfig(strategy, max_new_tokens=2, select_k=2, filter_layer=1, window=1)
        with pytest.raises(ContractViolation, match="token ids must be integers"):
            run_generation(w, prompt, rc)

    @pytest.mark.parametrize("prompt", [[1, True, 3], (1, 2, np.False_)], ids=["bool", "numpy-bool"])
    def test_a_bool_among_integer_ids_rejected(self, prompt):
        """``np.asarray`` reads ``[1, True, 3]`` as the integers ``[1, 1, 3]``:
        prefill and embed reject the bool before it gets there."""
        w = make_random_model(config(), 0)
        for call in (prefill, embed):
            with pytest.raises(ContractViolation, match="token ids must be integers, got bool"):
                call(prompt, w)
