"""Harness tests: tokenizer round trips, model file format, seeded models."""

import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gemfilter.errors import ConfigurationError, ContractViolation, ModelFormatError
from gemfilter.model import LAYER_TENSORS, logits_from_hidden, prefill
from gemfilter.modelio import MAGIC, load_model, save_model
from gemfilter.runner import RunConfig, Strategy
from gemfilter.selection import select_indices
from gemfilter.testmodels import copy_model_config, make_copy_model, make_random_model
from gemfilter.tokenizer import BOS, VOCAB_SIZE, detokenize, tokenize
from helpers import config


CFG = config(m=2, h=2, hk=1, dh=8, vocab=32, hidden=16, max_seq=2048)


# ---------------------------------------------------------------- tokenizer


class TestTokenizer:
    def test_ascii_bytes(self):
        assert tokenize("abc") == [97, 98, 99]

    def test_empty(self):
        assert tokenize("") == []
        assert detokenize([]) == b""

    def test_round_trip_random_blobs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            blob = bytes(rng.integers(0, 256, size=1024, dtype=np.uint8))
            assert detokenize(tokenize(blob)) == blob

    def test_special_ids_render_as_escapes(self):
        assert detokenize([BOS]) == b"<bos>"
        assert detokenize([97, BOS + 1, 98]) == b"a<eos>b"

    def test_out_of_vocab_rejected(self):
        """Negative and non-integer ids have no rendering."""
        for bad in ([-1], [97, -5], [1.5], [True], ["a"]):
            with pytest.raises(ContractViolation):
                detokenize(bad)

    def test_ids_past_the_tokenizer_render_as_escapes(self):
        """A model with a larger vocabulary may emit ids past the specials."""
        assert detokenize([97, VOCAB_SIZE, 278]) == b"a<id:260><id:278>"
        assert detokenize(np.array([VOCAB_SIZE - 1, 10**6])) == b"<unk><id:1000000>"

    def test_undecodable_argument_bytes_tokenize_to_themselves(self):
        """Python hands argv bytes that are not UTF-8 over as lone surrogates."""
        assert tokenize(os.fsdecode(b"\xff\xfe")) == [255, 254]
        assert tokenize(os.fsdecode(b"a\xffb")) == [97, 255, 98]

    def test_text_with_an_unencodable_surrogate_rejected(self):
        with pytest.raises(ContractViolation, match="not encodable"):
            tokenize("a\ud800")

    def test_vocab_size(self):
        assert VOCAB_SIZE == 260


# ---------------------------------------------------------------- model file


class TestModelFile:
    def test_round_trip_bit_exact(self, tmp_path):
        w = make_random_model(CFG, 3)
        path = tmp_path / "m.gfm"
        save_model(path, w)
        loaded = load_model(path)
        assert loaded.config == w.config
        for (name_a, a), (name_b, b) in zip(w.named_tensors(), loaded.named_tensors()):
            assert name_a == name_b
            assert np.array_equal(a, b), name_a
        # a second save produces identical bytes
        save_model(tmp_path / "again.gfm", loaded)
        assert (tmp_path / "again.gfm").read_bytes() == path.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.gfm"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ModelFormatError, match="bad magic"):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        w = make_random_model(CFG, 4)
        path = tmp_path / "m.gfm"
        save_model(path, w)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "m.gfm"
        path.write_bytes(MAGIC + b"\xff\xff\xff\x7f")
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(path)

    def test_dim_conflict_names_the_tensor(self, tmp_path):
        w = make_random_model(CFG, 5)
        w.tok_emb = np.zeros((w.config.vocab_size, w.config.d_model + 1), dtype=np.float32)
        path = tmp_path / "m.gfm"
        # bypass ModelWeights validation: write the inconsistent tensor directly
        save_model(path, w)
        with pytest.raises(ModelFormatError, match="tok_emb"):
            load_model(path)

    def test_missing_tensor_named(self, tmp_path):
        w = make_random_model(CFG, 6)

        class Partial:
            config = w.config

            def named_tensors(self):
                return (nt for nt in list(w.named_tensors())[:-1])

        path = tmp_path / "m.gfm"
        save_model(path, Partial())
        with pytest.raises(ModelFormatError, match="missing tensor out_emb"):
            load_model(path)

    def test_duplicate_tensor_rejected(self, tmp_path):
        w = make_random_model(CFG, 7)

        class Doubled:
            config = w.config

            def named_tensors(self):
                items = list(w.named_tensors())
                return iter(items + [items[0]])

        path = tmp_path / "m.gfm"
        save_model(path, Doubled())
        with pytest.raises(ModelFormatError, match="more than once"):
            load_model(path)


# ---------------------------------------------------------------- random model


class TestMakeRandomModel:
    def test_same_seed_identical(self):
        cfg = CFG
        a = make_random_model(cfg, 11)
        b = make_random_model(cfg, 11)
        for (_, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
            assert np.array_equal(ta, tb)

    def test_different_seeds_differ(self):
        cfg = CFG
        a = make_random_model(cfg, 1)
        b = make_random_model(cfg, 2)
        assert not np.array_equal(a.tok_emb, b.tok_emb)

    def test_long_prompt_prefill_stays_finite(self):
        cfg = config(m=2, h=2, hk=2, dh=16, vocab=64, hidden=16, max_seq=2048)
        w = make_random_model(cfg, 12)
        tokens = np.random.default_rng(0).integers(0, 64, size=1024).tolist()
        pre = prefill(tokens, w)
        assert np.all(np.isfinite(pre.hidden))
        assert np.all(np.isfinite(logits_from_hidden(pre.hidden[-1], w)))

    def test_per_layer_bytes_identical(self):
        w = make_random_model(replace(CFG, n_layers=3), 13)
        sizes = {sum(getattr(lw, name).nbytes for name in LAYER_TENSORS) for lw in w.layers}
        assert len(sizes) == 1
        assert w.per_layer_bytes == sizes.pop()


# ---------------------------------------------------------------- copy model


class TestMakeCopyModel:
    def test_selection_score_construction(self):
        """Head-summed layer-1 scores are proportional to embedding inner
        products against the final token, so same-token keys win."""
        cfg = copy_model_config(n_layers=1)
        w = make_copy_model(cfg)
        needle_at = 20
        tokens = [97] * 50 + [98]
        tokens[needle_at] = 98
        sel = select_indices(w, tokens, RunConfig(Strategy.GEMFILTER, select_k=3, pool_kernel=1))
        assert needle_at in sel.indices.tolist()

        # closed-form oracle: d * <e(T_n), e(T_i)> up to one positive factor
        emb = w.tok_emb
        inner = emb[np.asarray(tokens)] @ emb[98]
        expected_rank = np.argsort(-inner, kind="stable")[:3]
        assert set(sel.indices.tolist()) == set(int(i) for i in expected_rank)

    def test_full_coverage_when_k_covers_pooling_width(self):
        cfg = copy_model_config(n_layers=1)
        w = make_copy_model(cfg)
        kernel = 5
        needle = list(range(40, 48))
        tokens = [97] * 100 + [98]
        for p in needle:
            tokens[p] = 98
        k = len(needle) + kernel - 1 + 2  # needle + pooling spill + query neighborhood
        rc = RunConfig(Strategy.GEMFILTER, select_k=k, pool_kernel=kernel)
        sel = select_indices(w, tokens, rc)
        assert set(needle) <= set(sel.indices.tolist())

    def test_depth_independent_without_positions(self):
        cfg = copy_model_config(n_layers=1)
        w = make_copy_model(cfg)
        for start in (0, 60, 120):
            tokens = [97] * 128 + [98]
            for p in range(start, start + 8):
                tokens[p] = 98
            sel = select_indices(w, tokens, RunConfig(Strategy.GEMFILTER, select_k=16))
            assert set(range(start, start + 8)) <= set(sel.indices.tolist())

    def test_incompatible_configs_rejected(self):
        cfg_rope = config(m=1, h=1, hk=1, dh=64, vocab=260, hidden=16, max_seq=8192)
        with pytest.raises(ConfigurationError):
            make_copy_model(cfg_rope)
        cfg_small_head = config(
            m=1, h=1, hk=1, dh=32, vocab=260, hidden=16, use_rope=False, max_seq=8192
        )
        with pytest.raises(ConfigurationError):
            make_copy_model(cfg_small_head)
        cfg_gqa = config(
            m=1, h=2, hk=1, dh=64, vocab=260, hidden=16, use_rope=False, max_seq=8192
        )
        with pytest.raises(ConfigurationError):
            make_copy_model(cfg_gqa)


# ---------------------------------------------------------------- build memory


@pytest.mark.parametrize(
    "builder", [make_copy_model, lambda cfg: make_random_model(cfg, 0)], ids=["copy", "random"]
)
def test_builder_peaks_near_the_weights_it_builds(builder):
    """At a vocab-heavy shape (two 20000 x 128 embeddings, 21 MB of weights),
    a build's traced peak stays within 10% of the weights it returns: no
    float64 table and no second copy of a matrix is live next to them."""
    cfg = copy_model_config(vocab_size=20000)
    tracemalloc.start()
    try:
        weights = builder(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * sum(array.nbytes for _, array in weights.named_tensors())
