"""Seeded model constructors for experiments and verification.

``make_random_model`` gives an arbitrary but deterministic model whose
activations stay finite at long prompt lengths.  ``make_copy_model`` builds a
model whose early-layer attention scores have a closed form: embeddings are
near-orthonormal unit vectors and the attention projections are identities,
so the head-summed last-row score of key position i is (up to one positive
normalization factor per layer) the embedding inner product between token i
and the final query token.  Positions of tokens equal to the query token
therefore win every selection, at any depth, with no positional term.

Both refuse, before allocating anything, a config whose weights alone would
not fit in the machine's physical memory.
"""

from __future__ import annotations

import os

import numpy as np

from .config import ModelConfig, is_integer
from .errors import ConfigurationError, ContractViolation
from .model import F32, LayerWeights, ModelWeights, layer_weight_bytes

_COPY_EMBED_SEED = 0x5EED


def _check_fits_in_memory(cfg: ModelConfig) -> None:
    """Reject ``cfg`` if its float32 weights exceed the machine's physical memory.

    The layers, the two embeddings and the final norm, in closed form.
    """
    d = cfg.d_model
    need = cfg.n_layers * layer_weight_bytes(cfg) + F32().itemsize * (2 * cfg.vocab_size * d + d)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigurationError(
            f"model weights need {need} bytes, more than the {have} bytes of physical memory"
        )


def make_random_model(cfg: ModelConfig, seed: int) -> ModelWeights:
    """Deterministic random weights, scaled 1/sqrt(d_model) to keep activations finite."""
    if not is_integer(seed) or seed < 0:
        raise ContractViolation(f"seed must be an integer >= 0, got {seed!r}")
    _check_fits_in_memory(cfg)
    rng = np.random.default_rng(seed)
    scale = F32(1.0 / np.sqrt(cfg.d_model))
    kv_dim = cfg.n_kv_heads * cfg.head_dim

    def mat(rows: int, cols: int) -> np.ndarray:
        out = rng.standard_normal((rows, cols), dtype=F32)
        out *= scale  # in place: the build peaks near the weights it returns
        return out

    layers = [
        LayerWeights(
            wq=mat(cfg.d_model, cfg.d_model),
            wk=mat(cfg.d_model, kv_dim),
            wv=mat(cfg.d_model, kv_dim),
            wo=mat(cfg.d_model, cfg.d_model),
            w_in=mat(cfg.d_model, cfg.hidden_mlp),
            w_out=mat(cfg.hidden_mlp, cfg.d_model),
            attn_norm=np.ones(cfg.d_model, dtype=F32),
            mlp_norm=np.ones(cfg.d_model, dtype=F32),
        )
        for _ in range(cfg.n_layers)
    ]
    return ModelWeights(
        config=cfg,
        tok_emb=mat(cfg.vocab_size, cfg.d_model),
        layers=layers,
        final_norm=np.ones(cfg.d_model, dtype=F32),
        out_emb=mat(cfg.d_model, cfg.vocab_size),
    )


def _unit_rows(rows: int, cols: int, seed: int) -> np.ndarray:
    """``rows`` seeded random float32 unit vectors of length ``cols``.

    Drawn and normalised in float64, 1024 rows at a time, so the build holds
    one block of float64 next to the float32 table; the blocks draw the
    generator's stream in order, so the bytes are those of one whole draw.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((rows, cols), dtype=F32)
    for lo in range(0, rows, 1024):
        block = rng.standard_normal((min(1024, rows - lo), cols))
        block /= np.linalg.norm(block, axis=1, keepdims=True)
        out[lo : lo + len(block)] = block
    return out


def make_copy_model(cfg: ModelConfig) -> ModelWeights:
    """Identity-attention model with predictable selection behavior.

    Requires ``use_rope=False`` (selection must be position-free), identity-
    shaped projections (``n_kv_heads == n_heads``), and ``head_dim >= 64`` so
    random unit embeddings are close enough to orthogonal that cross-token
    scores never compete with a same-token match.  The MLP is zeroed, norm
    gains are ones, and the output embedding is the transpose of the input
    table, so greedy decoding emits whichever token the last position's
    hidden state most resembles.
    """
    if cfg.use_rope:
        raise ConfigurationError("copy model requires use_rope=False")
    if cfg.n_kv_heads != cfg.n_heads:
        raise ConfigurationError("copy model requires n_kv_heads == n_heads")
    if cfg.head_dim < 64:
        raise ConfigurationError("copy model requires head_dim >= 64")
    _check_fits_in_memory(cfg)

    eye = np.eye(cfg.d_model, dtype=F32)
    layers = [
        LayerWeights(
            wq=eye.copy(),
            wk=eye.copy(),
            wv=eye.copy(),
            wo=eye.copy(),
            w_in=np.zeros((cfg.d_model, cfg.hidden_mlp), dtype=F32),
            w_out=np.zeros((cfg.hidden_mlp, cfg.d_model), dtype=F32),
            attn_norm=np.ones(cfg.d_model, dtype=F32),
            mlp_norm=np.ones(cfg.d_model, dtype=F32),
        )
        for _ in range(cfg.n_layers)
    ]
    tok_emb = _unit_rows(cfg.vocab_size, cfg.d_model, _COPY_EMBED_SEED)
    return ModelWeights(
        config=cfg,
        tok_emb=tok_emb,
        layers=layers,
        final_norm=np.ones(cfg.d_model, dtype=F32),
        out_emb=tok_emb.T.copy(),
    )


def copy_model_config(
    *,
    n_layers: int = 2,
    n_heads: int = 2,
    head_dim: int = 64,
    hidden_mlp: int = 64,
    vocab_size: int = 260,
    max_seq: int = 16384,
) -> ModelConfig:
    """A config satisfying the copy-model constraints."""
    return ModelConfig.from_dict(
        dict(
            n_layers=n_layers,
            n_heads=n_heads,
            n_kv_heads=n_heads,
            head_dim=head_dim,
            vocab_size=vocab_size,
            hidden_mlp=hidden_mlp,
            use_rope=False,
            max_seq=max_seq,
        )
    )
