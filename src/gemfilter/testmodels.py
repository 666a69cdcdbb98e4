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
from .model import (
    F32, LAYER_TENSORS, LayerWeights, ModelWeights, layer_shapes, layer_weight_bytes,
)
from .tokenizer import VOCAB_SIZE

_COPY_EMBED_SEED = 0x5EED


def _from_layout(cfg: ModelConfig, fill, embeddings) -> ModelWeights:
    """Weights in :func:`~gemfilter.model.layer_shapes`' layout.

    Layer by layer, each matrix is ``fill(name, shape)`` in
    :data:`~gemfilter.model.LAYER_TENSORS` order and each gain is ones;
    then ``embeddings()`` gives ``(tok_emb, out_emb)``, and the final norm
    is ones.  First, weights that would exceed the machine's physical
    memory (counted in closed form) are refused.
    """
    d = cfg.d_model
    need = cfg.n_layers * layer_weight_bytes(cfg) + F32().itemsize * (2 * cfg.vocab_size * d + d)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigurationError(
            f"model weights need {need} bytes, more than the {have} bytes of physical memory"
        )
    shapes = list(zip(LAYER_TENSORS, layer_shapes(cfg)))
    layers = [
        LayerWeights(*(fill(n, s) if len(s) == 2 else np.ones(s, dtype=F32) for n, s in shapes))
        for _ in range(cfg.n_layers)
    ]
    tok_emb, out_emb = embeddings()
    return ModelWeights(cfg, tok_emb, layers, np.ones(d, dtype=F32), out_emb)


def make_random_model(cfg: ModelConfig, seed: int) -> ModelWeights:
    """Deterministic random weights, scaled 1/sqrt(d_model) to keep activations finite."""
    if not is_integer(seed) or seed < 0:
        raise ContractViolation(f"seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    scale = F32(1.0 / np.sqrt(cfg.d_model))

    def mat(_, shape: tuple[int, int]) -> np.ndarray:
        out = rng.standard_normal(shape, dtype=F32)
        out *= scale  # in place: the build peaks near the weights it returns
        return out

    # Each layer's matrices in layout order, then tok_emb, then out_emb: that order fixes the bytes.
    d, vocab = cfg.d_model, cfg.vocab_size
    return _from_layout(cfg, mat, lambda: (mat("tok_emb", (vocab, d)), mat("out_emb", (d, vocab))))


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

    def projection(name: str, shape: tuple[int, int]) -> np.ndarray:
        mlp = name in ("w_in", "w_out")
        return np.zeros(shape, dtype=F32) if mlp else np.eye(*shape, dtype=F32)

    def embeddings() -> tuple[np.ndarray, np.ndarray]:
        tok_emb = _unit_rows(cfg.vocab_size, cfg.d_model, _COPY_EMBED_SEED)
        return tok_emb, tok_emb.T.copy()

    return _from_layout(cfg, projection, embeddings)


def copy_model_config(
    *,
    n_layers: int = 2,
    n_heads: int = 2,
    head_dim: int = 64,
    hidden_mlp: int = 64,
    vocab_size: int = VOCAB_SIZE,
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
