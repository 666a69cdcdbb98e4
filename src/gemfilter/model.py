"""Decoder-only transformer with grouped-query causal attention.

The weight layout is stated once, here: :func:`weight_shapes` yields every
tensor's name and shape in file order, and weight validation, model files
(:mod:`gemfilter.modelio`) and the cost model's layer bytes
(:func:`layer_weight_bytes`) all read it.

The forward path is split the way the engine needs it: :func:`prefill` runs
the prompt through the first ``upto_layer`` layers, from none to all of them
(optionally replacing each layer's cache, as soon as the layer finishes,
with an evicted one or with nothing) and computes no logits, and
:func:`decode_step` advances one token against mutable per-layer caches.
Both go through :func:`run_layer`, the one layer body, which appends its
rows' K/V to a cache and attends to everything the cache holds: a decode
step is one row, and the prompt runs through each layer in chunks of
:data:`CHUNK_ROWS` rows, each overwriting its rows of the residual stream
in place.  So a prompt pass holds the ``n x d_model``
residual stream, the layer's ``n``-row cache and the kept ones, one query
head's ``(ROW_BLOCK, n)`` score block and one chunk's working set; nothing
else grows with ``n``.  A chunk's working set is one stage at a time: its
normed rows and fused Q/K/V product, rotated in place; then its Q copy,
which attention overwrites with its output; then its MLP rows, the normed
ones dropped before the activation.  Token selection's filter pass holds
its layer's keys, one chunk's key product and then one query row.

Eviction reads one score vector per kv-head: the column sums of the last
``score_rows`` attention probability rows of its query heads, accumulated
per layer in float64, block by block, inside the attention kernel.  No
probability is ever written: each block sums its exponentiated score rows,
weighted by their reciprocal row sums, in one float32 einsum, so neither
the ``n x n`` probability matrix nor a block of it exists.

:class:`LayerKV` is the one KV cache: head-major post-rotation keys and
values, and the position its next row takes; attention aligns rows by
index, so no row's position is stored.  A full cache keeps every row; an
evicted one keeps a per-head subset (:meth:`LayerKV.gather`) and resumes
where the full one would.  An append writes its rows at the cache's next
positions, so a prompt chunk follows the one before it and a decode step
follows the prompt, and no caller passes a position.

Layer body: RMS-norm -> attention -> residual add -> RMS-norm -> two-matrix
MLP with a sigmoid-weighted linear activation -> residual add.  All math is
float32.  The layer opens with :func:`project_qkv`: one product with the
layer's fused ``[wq | wk | wv]`` buffer projects Q, K and V, and Q/K rotate
in place by one complex multiply (:func:`_rotate`): their pairs, viewed as
complex64, times a view of the per-model complex64 rotary table's rows
(:meth:`ModelWeights.rope`) at the positions the rows take in the layer's
cache.  Token selection runs only the part of this opening its scores read:
the same steps (:func:`project_heads`) with the filter layer's ``wk`` view
over every row and its ``wq`` view over the last row, and no V product.
Attention (:func:`_attention`) runs every query head in one call, blocked
over query rows with a causal skip, each query block scaled by
``1/sqrt(head_dim)`` before its score product and its value product divided
by the row sums of the exponentiated scores: a decode step scores all heads
in one product, a taller block scores one head at a time, and the output
overwrites the layer's Q copy.  Products take their bits from the
BLAS kernel and the rotation from numpy's complex64 loop.  This module
charges every product it runs to the ambient cost session: attention's
dense products in :func:`prefill` (``n x n`` once per layer) and
:func:`decode_step` (one row per layer, in one charge per step), and each
projection, MLP and logits product right after the line that runs it, at
the shapes of its operands.
Query head ``j * g + i`` reads kv-head ``j`` (``g`` query heads per group):
attention, eviction and token selection all group the query heads this way
over the head-major keys, and none copies a key out per query head.
KV byte checkpoints and per-layer weight touches are recorded here so phase
counters match the closed forms in :mod:`gemfilter.costmodel` exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .config import ModelConfig, is_integer
from .counting import count_matmul, note_kv_bytes, touch_layer
from .errors import ConfigurationError, ContractViolation
from .kernels import argmax, rms_norm_rows

F32 = np.float32

# Query rows per attention block.  A block's score array is one query head's
# (ROW_BLOCK, keys) float32, the largest transient of a prompt pass; 64 rows
# keep it small while each block's products stay BLAS-sized.
ROW_BLOCK = 64
# Prompt rows per run_layer call in prefill.  A multiple of ROW_BLOCK, so a
# chunk's attention blocks are the rows one whole-prompt call's would be;
# 256 rows keep the chunk's products as fast as one n-row product.
CHUNK_ROWS = 256
_ABOVE_DIAGONAL = np.triu(np.ones((ROW_BLOCK, ROW_BLOCK), dtype=bool), 1)


@dataclass
class LayerWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w_in: np.ndarray
    w_out: np.ndarray
    attn_norm: np.ndarray
    mlp_norm: np.ndarray


# One layer's tensors in file order: the field order of LayerWeights.
LAYER_TENSORS = tuple(f.name for f in fields(LayerWeights))


def layer_shapes(cfg: ModelConfig) -> tuple[tuple[int, ...], ...]:
    """Shape of each layer tensor, in :data:`LAYER_TENSORS` order."""
    d, kv, hidden = cfg.d_model, cfg.n_kv_heads * cfg.head_dim, cfg.hidden_mlp
    return ((d, d), (d, kv), (d, kv), (d, d), (d, hidden), (hidden, d), (d,), (d,))


def layer_weight_bytes(cfg: ModelConfig) -> int:
    """Bytes of one transformer layer's float32 weights."""
    return F32().itemsize * sum(math.prod(shape) for shape in layer_shapes(cfg))


def weight_shapes(cfg: ModelConfig):
    """Yield ``(name, shape)`` of every weight tensor of ``cfg``, in file order.

    A generator, so a config claiming a huge layer count costs nothing until
    its tensors are asked for.
    """
    d = cfg.d_model
    yield "tok_emb", (cfg.vocab_size, d)
    shapes = layer_shapes(cfg)
    for i in range(cfg.n_layers):
        for name, shape in zip(LAYER_TENSORS, shapes):
            yield f"layers.{i}.{name}", shape
    yield "final_norm", (d,)
    yield "out_emb", (d, cfg.vocab_size)


@dataclass
class ModelWeights:
    """A model's weights, plus what the layer body derives from them.

    Each layer's ``wq``/``wk``/``wv`` are column views of one
    ``(d_model, d_model + 2 * kv_dim)`` buffer, ``qkv[i]``, so one product
    projects Q, K and V, and an in-place edit of any of the three reaches it.
    :meth:`rope` views the rotary table's rows (None without RoPE).
    """

    config: ModelConfig
    tok_emb: np.ndarray
    layers: list[LayerWeights]
    final_norm: np.ndarray
    out_emb: np.ndarray
    # Weight bytes of one transformer layer: every layer's shapes and dtype are checked.
    per_layer_bytes: int = field(init=False, repr=False, compare=False)
    # Per layer, the [wq | wk | wv] buffer the three are views of.
    qkv: list[np.ndarray] = field(init=False, repr=False, compare=False)
    # The complex64 rotary table filled so far (see rope), or None without RoPE.
    _rope: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cfg = self.config
        if len(self.layers) != cfg.n_layers:
            raise ConfigurationError(
                f"expected {cfg.n_layers} layers, got {len(self.layers)}"
            )
        for (name, arr), (_, shape) in zip(self.named_tensors(), weight_shapes(cfg)):
            if arr.shape != shape:
                raise ConfigurationError(f"{name} has shape {arr.shape}, expected {shape}")
            if arr.dtype != F32:
                raise ConfigurationError(f"{name} has dtype {arr.dtype}, expected float32")
        self.per_layer_bytes = layer_weight_bytes(cfg)
        d, kv = cfg.d_model, cfg.n_kv_heads * cfg.head_dim
        self.qkv = []
        for lw in self.layers:
            fused = np.concatenate([lw.wq, lw.wk, lw.wv], axis=1)
            lw.wq, lw.wk, lw.wv = np.split(fused, [d, d + kv], axis=1)
            self.qkv.append(fused)
        self._rope = None
        if cfg.use_rope:
            self._rope = _rope_table(np.arange(0), cfg.head_dim, cfg.rope_theta)

    def rope(self, start: int, stop: int) -> np.ndarray | None:
        """A view of the rotary table's rows at positions ``start..stop-1``, or None without RoPE.

        ``stop`` is at most ``max_seq``.  The rows are :func:`_rope_table`'s
        for those positions, one complex64 ``cos + i*sin`` per pair.  The
        table is filled as far as the positions asked for, doubling up to
        ``max_seq``, so a model whose ``max_seq`` is far beyond what it runs
        never holds a table that size.
        """
        table = self._rope
        if table is None:
            return None
        if stop > len(table):
            cfg = self.config
            rows = min(cfg.max_seq, max(stop, 2 * len(table)))
            self._rope = table = _rope_table(np.arange(rows), cfg.head_dim, cfg.rope_theta)
        return table[start:stop]

    @classmethod
    def from_named(cls, config: ModelConfig, tensors: dict[str, np.ndarray]) -> "ModelWeights":
        """Inverse of :meth:`named_tensors`: weights from a name -> array mapping."""
        tok_emb, *flat, final_norm, out_emb = (tensors[name] for name, _ in weight_shapes(config))
        per = len(LAYER_TENSORS)
        layers = [LayerWeights(*flat[i : i + per]) for i in range(0, len(flat), per)]
        return cls(config, tok_emb, layers, final_norm, out_emb)

    def named_tensors(self):
        """Every weight tensor with its :func:`weight_shapes` name, in file order."""
        arrays = [
            self.tok_emb,
            *(getattr(lw, name) for lw in self.layers for name in LAYER_TENSORS),
            self.final_norm,
            self.out_emb,
        ]
        return zip((name for name, _ in weight_shapes(self.config)), arrays)


@dataclass
class LayerKV:
    """Per-layer key/value cache: post-rotation keys and values, and the next row's position.

    Rows of kv-head ``j`` are ``keys[j]``/``values[j]``.  A full cache holds
    every row for every head; eviction keeps a different subset per head.
    ``next_position`` is the position the next appended row takes: each
    append adds its rows to it, and an evicted cache keeps its source's.

    The two arrays are views of the rows held in buffers that may have room
    for more (:meth:`reserve`), so appends write in place; ``nbytes`` counts
    the rows held, not the room.  Growing the room copies one part at a
    time, so at most one part of the layer is ever held twice.
    """

    keys: np.ndarray  # (n_kv_heads, seq, head_dim)
    values: np.ndarray  # (n_kv_heads, seq, head_dim)
    next_position: int  # an integer >= seq

    def __post_init__(self) -> None:
        if self.keys.shape != self.values.shape:
            raise ContractViolation("LayerKV component shapes disagree")
        pos = self.next_position
        if not is_integer(pos) or pos < len(self):
            raise ContractViolation(f"next_position {pos!r} is not an integer >= len {len(self)}")
        self.next_position, self._buffers = int(pos), [self.keys, self.values]

    @classmethod
    def empty(cls, n_kv_heads: int, head_dim: int, rows: int) -> "LayerKV":
        """An empty cache at position 0, with room reserved for ``rows`` rows per kv-head."""
        part = np.empty((n_kv_heads, 0, head_dim), dtype=F32)
        cache = cls(keys=part, values=part.copy(), next_position=0)
        cache.reserve(rows)
        return cache

    def __len__(self) -> int:
        return self.keys.shape[1]

    @property
    def nbytes(self) -> int:
        return self.keys.nbytes + self.values.nbytes

    def reserve(self, rows: int) -> None:
        """Make room for ``rows`` more rows; the appends that fill it reallocate nothing.

        The parts grow one at a time, keys, then values: each is copied into
        its larger buffer, and its old buffer is dropped before the next part
        grows.  So while the layer grows it holds at most one part twice,
        never both.
        """
        if not is_integer(rows) or rows < 0:
            raise ContractViolation(f"reserve rows {rows!r} is not an integer >= 0")
        held = len(self)
        if self._buffers[0].shape[1] >= held + rows:
            return
        for i, name in enumerate(("keys", "values")):
            part = getattr(self, name)
            grown = np.empty((part.shape[0], held + rows, part.shape[2]), dtype=part.dtype)
            grown[:, :held] = part
            self._buffers[i] = grown
            setattr(self, name, grown[:, :held])
            del part, grown  # frees the old buffer before the next part grows

    def append(self, k_rows: np.ndarray, v_rows: np.ndarray) -> None:
        """Append new tokens' rows, ``(n_kv_heads, s, head_dim)``, at :attr:`next_position` on.

        Writes into reserved room; without room, grows the buffers to fit.
        """
        rows = k_rows.shape[1]
        if not rows or v_rows.shape[:2] != k_rows.shape[:2]:
            raise ContractViolation(
                "append expects k/v rows (n_kv_heads, s >= 1, ...), got "
                f"k{k_rows.shape} v{v_rows.shape}"
            )
        held, end = len(self), len(self) + rows
        if self._buffers[0].shape[1] < end:
            self.reserve(rows)
        keys, values = self._buffers
        keys[:, held:end] = k_rows
        values[:, held:end] = v_rows
        self.keys, self.values = keys[:, :end], values[:, :end]
        self.next_position += rows

    def gather(self, rows: np.ndarray) -> "LayerKV":
        """A new cache keeping rows ``rows[j]`` of each kv-head ``j``, resuming where this one does.

        ``rows`` must be ``(n_kv_heads, r)`` integers, strictly increasing in
        each head and within ``0..len - 1``.
        """
        rows = np.asarray(rows)
        if (
            rows.dtype.kind not in "iu" or rows.ndim != 2 or len(rows) != len(self.keys)
            or (rows.size and not 0 <= rows.min() <= rows.max() < len(self))
            or not np.all(rows[:, 1:] > rows[:, :-1])
        ):
            raise ContractViolation(
                f"gather expects ({len(self.keys)}, r) integer rows, strictly increasing "
                f"within 0..{len(self) - 1} in each head, got {rows.dtype} {rows.shape}"
            )
        heads = np.arange(len(rows))[:, None]
        return LayerKV(
            keys=self.keys[heads, rows],
            values=self.values[heads, rows],
            next_position=self.next_position,
        )


@dataclass
class PrefillResult:
    hidden: np.ndarray  # (n, d_model) last run layer's output (pre final norm), or the embedding
    caches: list[LayerKV]


def check_prompt_length(n: int, cfg: ModelConfig) -> None:
    """Reject a prompt length outside ``1..max_seq``."""
    if n < 1:
        raise ContractViolation(f"prompt length {n} must be >= 1")
    if n > cfg.max_seq:
        raise ContractViolation(f"prompt length {n} exceeds max_seq {cfg.max_seq}")


def check_filter_layer(r: int, cfg: ModelConfig) -> None:
    """Reject a filter layer outside ``1..n_layers``."""
    if not 1 <= r <= cfg.n_layers:
        raise ContractViolation(f"filter layer {r} outside 1..{cfg.n_layers}")


def _out_of_vocabulary(token: int, vocab: int) -> ContractViolation:
    return ContractViolation(f"token id {token} outside vocabulary of size {vocab}")


def _token_ids(tokens, what: str = "token ids") -> np.ndarray:
    """``np.asarray(tokens)`` of a numpy integer dtype; floats, strings and bools are rejected.

    ``np.asarray`` reads ``[1, True]`` as the integers ``[1, 1]``, so a list
    or tuple holding a bool is rejected first, one set lookup per element.
    The array keeps its dtype, so no value is truncated or wrapped.  An
    empty input passes whatever dtype it reads as, for the caller's own
    size check.  ``what`` names the values in the message.
    """
    if isinstance(tokens, (list, tuple)) and not {bool, np.bool_}.isdisjoint(map(type, tokens)):
        raise ContractViolation(f"{what} must be integers, got bool")
    ids = np.asarray(tokens)
    if ids.size and ids.dtype.kind not in "iu":
        raise ContractViolation(f"{what} must be integers, got dtype {ids.dtype}")
    return ids


def embed(tokens, weights: ModelWeights) -> np.ndarray:
    """Look up embedding rows; row i is the table row for tokens[i].

    The ids are integers of any numpy integer dtype; floats, strings and
    bools, in a list too, are rejected, not truncated or parsed.
    """
    ids = _token_ids(tokens)
    if ids.ndim != 1 or ids.size == 0:
        raise ContractViolation("embed expects a non-empty token sequence")
    vocab = weights.config.vocab_size
    if ids.min() < 0 or ids.max() >= vocab:
        raise _out_of_vocabulary(int(ids[(ids < 0) | (ids >= vocab)][0]), vocab)
    return weights.tok_emb[ids]  # a copy: the layers overwrite it in place


def _token_row(token, weights: ModelWeights) -> np.ndarray:
    """``embed([token])`` for one integer id: a ``(1, d_model)`` copy of its table row."""
    if not is_integer(token):
        raise ContractViolation(f"token ids must be integers, got {type(token).__name__}")
    vocab = weights.config.vocab_size
    if not 0 <= token < vocab:
        raise _out_of_vocabulary(token, vocab)
    return weights.tok_emb[token : token + 1].copy()


def _rope_table(positions: np.ndarray, head_dim: int, theta: float) -> np.ndarray:
    """Rotary rows at ``positions``: complex64 ``cos + i*sin``, shaped ``(seq, 1, head_dim // 2)``.

    Pair ``i`` at position ``p`` rotates by ``p * theta**(-2i/head_dim)``;
    the angle's cosine and sine are worked out in float64 and each rounded
    once to float32.  The middle axis broadcasts a row over every head.
    """
    if head_dim % 2 != 0:
        raise ConfigurationError("rotary embedding requires an even head_dim")
    rates = theta ** (-np.arange(0, head_dim, 2, dtype=np.float64) / head_dim)
    angles = np.asarray(positions, dtype=np.float64)[:, None] * rates[None, :]
    table = np.empty(angles.shape, dtype=np.complex64)
    table.real = np.cos(angles)
    table.imag = np.sin(angles)
    return table[:, None]


def _rotate(x: np.ndarray, table: np.ndarray) -> None:
    """Rotate the pairs of ``x`` ``(seq, heads, head_dim)`` in place by :func:`_rope_table` rows.

    Each ``(even, odd)`` pair is viewed as the complex number ``even + i*odd``
    and multiplied by its row's ``cos + i*sin``: one in-place ufunc call, with
    no temporary.  The bits are numpy's complex64 loop's, as a product's are
    the BLAS kernel's; on x86-64 it rounds each part once with a fused
    multiply-add, ``fl(even*cos - fl(odd*sin))`` and
    ``fl(even*sin + fl(odd*cos))``.  ``x``'s last axis must be contiguous.
    """
    pairs = x.view(np.complex64)
    pairs *= table


def _attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    received: np.ndarray | None = None,
    first_scored: int = 0,
    *,
    out: np.ndarray,
) -> np.ndarray:
    """Causal attention of every query head, grouped by kv-head: ``softmax(q k^T / sqrt(d)) v``.

    ``q`` is ``(h_kv, g, nq, d)`` and ``k``/``v`` are ``(h_kv, nk, d)`` and
    ``(h_kv, nk, d_v)``: query head ``j * g + i`` reads kv-head ``j``.  Queries
    align with the end of the key sequence: query row ``i`` is key row
    ``nk - nq + i`` and attends keys ``0..(nk - nq + i)``.  A decode step is
    the one-row case, a prompt chunk the rows just appended to its cache.

    The scale multiplies a copy of each query block, the one decode row or
    one head's block of rows, before its score product, so the
    ``(rows, nk)`` scores are never scaled and ``q`` is left as it is.
    Where ``1/sqrt(d)`` is a power of two (``d`` a power of 4) the fold is
    exact: the scores are the bits that scaling them would give.

    No probability is written.  :func:`_exp_rows` turns the scores into
    softmax's numerators ``e`` in place, and the value product ``e v`` is
    divided by the row sums ``s``: ``d_v`` divisions a row, not ``nk``.

    A one-row call (a decode step) scores every head in one stacked product,
    ``h x nk`` floats, sums each row with ``np.add.reduce`` and divides its
    value product into ``out``.  Taller calls run their query rows in blocks
    of :data:`ROW_BLOCK`.  A block scores only the keys its last row can see
    (the causal skip) and masks the upper triangle of its last ``b``
    columns.  A row never spans two blocks, so each block's softmax is
    exact.  A block scores, normalises and accumulates one query head at a
    time, so one ``(ROW_BLOCK, nk)`` score array is live, freed before the
    next head's is scored; its row sums are one ``np.einsum("ij->i")``.  The
    per-head loop gives the bytes one stacked all-heads product would: that
    product runs one GEMM per head, and the einsums of a stacked block reduce
    each row, and add each column's rows, in the same order.

    Writes the output, ``(h_kv, g, nq, d_v)``, into ``out`` and returns it.
    ``out`` may be ``q`` itself: a block writes a head's rows only after
    scoring them and no later block reads them, so attention over ``q`` in
    place gives the same bytes without a second Q-sized array.

    With a float64 ``received`` accumulator ``(h_kv, g, >= nk)``, each block
    adds to ``received[j, i, c]`` the attention probability key ``c`` gets
    from the block's query rows of head ``(j, i)`` that are key row
    ``first_scored`` or later: :func:`_received_mass`, the float32 sum of
    ``e * (1 / s)`` over those rows.  Every block runs the same steps whether
    or not it is scored, so the output's bytes depend on neither
    ``received`` nor ``first_scored``: strategies differ only in the
    positions they keep.

    Nothing is charged here: the callers charge the dense products.
    """
    hk, g, nq, dim = q.shape
    nk = k.shape[1]
    if k.shape != (hk, nk, dim) or v.ndim != 3 or v.shape[:2] != (hk, nk):
        raise ContractViolation(f"attention shape mismatch: q{q.shape} k{k.shape} v{v.shape}")
    if nq > nk:
        raise ContractViolation("attention requires q rows <= k rows")
    scale = F32(1.0 / math.sqrt(dim))
    keys_t = k.transpose(0, 2, 1)[:, None]  # (h_kv, 1, d, nk): shared by the group
    values = v[:, None]
    if nq == 1:
        scores = _exp_rows((q * scale) @ keys_t)
        sums = np.add.reduce(scores, axis=-1, keepdims=True)
        if received is not None and nk > first_scored:
            received[..., :nk] += _received_mass(scores, sums[..., 0])
        return np.divide(scores @ values, sums, out=out)
    offset = nk - nq
    # Query head (j, i) and kv-head j's index in keys_t.
    heads = [((j, i), (j, 0)) for j in range(hk) for i in range(g)]
    for lo in range(0, nq, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, nq)
        b, cols = hi - lo, offset + hi
        for head, kv in heads:
            scores = (q[head][..., lo:hi, :] * scale) @ keys_t[kv][..., :cols]
            np.copyto(scores[..., cols - b :], -np.inf, where=_ABOVE_DIAGONAL[:b, :b])
            _exp_rows(scores)
            sums = np.einsum("ij->i", scores)
            rows = out[head][..., lo:hi, :]
            np.divide(scores @ values[kv][..., :cols, :], sums[:, None], out=rows)
            if received is not None and cols > first_scored:
                first = max(first_scored - offset - lo, 0)
                received[head][..., :cols] += _received_mass(scores[first:], sums[first:])
            del scores  # free this head's block before the next one is scored
    return out


def _exp_rows(scores: np.ndarray) -> np.ndarray:
    """Each row of ``scores`` less its maximum, exponentiated, written over ``scores``.

    Softmax's numerators: :func:`_attention` divides its value product by
    their row sums rather than the rows themselves.  The scores come scaled,
    since :func:`_attention` scales the queries.  Masked entries hold
    ``-inf``, so they get 0.
    """
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    return scores


def _received_mass(exp_rows: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Float32 column sums of the probability rows ``exp_rows / sums``, never written.

    ``(..., rows, cols)`` float32 numerators and their ``(..., rows)`` float32
    sums give ``(..., cols)`` float32: column ``c`` is the sum over the rows
    of ``e[r, c] * (1 / s[r])``.  A block has at most
    :data:`ROW_BLOCK` rows, and :func:`_attention` adds each block's sums to
    a float64 accumulator.  It is numpy's einsum, not a BLAS product
    ``(1 / s) @ e``: the einsum adds every column's rows in one order, so
    identical key columns receive identical bits and a tie among them breaks
    toward the lower index, where a BLAS kernel's vector tail can sum its
    last columns another way.
    """
    return np.einsum("...i,...ij->...j", 1.0 / sums, exp_rows)


def _silu(x: np.ndarray) -> np.ndarray:
    """``x * sigmoid(x)``, written over ``x``."""
    # The lower clamp keeps exp() in range.  No upper one is needed: from
    # x = 60 on, 1 + exp(-x) rounds to 1.0 in float32, as it would if x were
    # clamped to 60, and NaN and +-inf give the bytes a two-sided clamp gives.
    denom = np.maximum(x, -60.0)
    np.negative(denom, out=denom)
    np.exp(denom, out=denom)
    denom += 1.0
    x /= denom
    return x


def _charge_attention(cfg: ModelConfig, rows: int, keys: int) -> None:
    """Charge ``rows`` query rows of every head against ``keys`` keys, densely.

    ``2 * h * rows * d * keys`` for the scores and as much for the values:
    the products the cost model counts, as if every query row scored every
    key.  The causal skip executes fewer.
    """
    count_matmul("attn_score", cfg.n_heads * rows, cfg.head_dim, keys)
    count_matmul("attn_value", cfg.n_heads * rows, keys, cfg.head_dim)


def project_heads(
    x: np.ndarray,
    weights: ModelWeights,
    layer_idx: int,
    start: int,
    w: np.ndarray,
    rotated: int | None = None,
) -> np.ndarray:
    """The rows of ``x`` projected by ``w``, one of the layer's attention weights, as heads.

    The steps every projection of a layer's opening takes: the attention
    RMS-norm, one product with ``w`` (a ``(d_model, heads * head_dim)``
    matrix: the fused ``weights.qkv[layer_idx]``, or its ``wq`` or ``wk``
    view), and the rotation of the first ``rotated`` heads (all by default)
    by the rows ``weights.rope(start, start + rows)`` views (none without
    RoPE), in place over the product.  Reads the layer's weights, so the
    layer is touched, and charges the product to ``proj``.  Returns the
    product as ``(rows, heads, head_dim)``.
    """
    cfg = weights.config
    touch_layer(layer_idx, weights.per_layer_bytes)
    n = x.shape[0]
    xn = rms_norm_rows(x, weights.layers[layer_idx].attn_norm, cfg.norm_eps)
    out = xn @ w
    count_matmul("proj", n, *w.shape)
    del xn
    heads = out.reshape(n, -1, cfg.head_dim)
    rotary = weights.rope(start, start + n)
    if rotary is not None:
        _rotate(heads[:, :rotated], rotary)
    return heads


def project_qkv(
    x: np.ndarray, weights: ModelWeights, layer_idx: int, start: int
) -> tuple[np.ndarray, np.ndarray]:
    """The opening of a layer over the rows of ``x``, at positions ``start`` on: its Q, K and V.

    :func:`project_heads` with the layer's fused ``[wq | wk | wv]`` buffer
    (``weights.qkv``), Q and K rotated together.  Returns ``qk``, ``(rows,
    n_heads + n_kv_heads, head_dim)``, post-rotation Q heads then K heads,
    and ``v``, ``(rows, n_kv_heads, head_dim)``: two views of the product,
    so either keeps all of it alive.
    """
    rotated = weights.config.n_heads + weights.config.n_kv_heads
    heads = project_heads(x, weights, layer_idx, start, weights.qkv[layer_idx], rotated)
    return heads[:, :rotated], heads[:, rotated:]


def run_layer(
    x: np.ndarray,
    weights: ModelWeights,
    layer_idx: int,
    cache: LayerKV,
    received: np.ndarray | None = None,
    first_scored: int = 0,
) -> None:
    """One transformer layer over the rows of ``x``, in place, at ``cache``'s next positions.

    The rows take positions ``cache.next_position`` on: their K/V are
    appended to ``cache`` and they attend causally to everything it then
    holds.  A decode step is one row, and :func:`prefill` runs the prompt as
    consecutive row chunks into one cache.  The layer's output overwrites
    ``x``; the cache is all a later chunk or step reads.
    :func:`project_qkv` projects and rotates Q, K and V, and all query
    heads attend in one :func:`_attention` call over the kv-head groups,
    which adds to ``received`` (``(h_kv, g, >= len(cache))`` float64) the
    attention each key gets from the rows that are key row ``first_scored``
    or later (what cache eviction consumes).  Attention is not charged here
    (see :func:`_charge_attention`).

    One Q-sized array lives through attention: the rows' Q copy, which
    attention overwrites with its output.  The normed rows of the MLP are
    dropped before the activation.
    """
    cfg = weights.config
    lw = weights.layers[layer_idx]
    n = x.shape[0]
    h, hk, dh = cfg.n_heads, cfg.n_kv_heads, cfg.head_dim

    qk, v = project_qkv(x, weights, layer_idx, cache.next_position)
    q = qk[:, :h].copy()
    cache.append(qk[:, h:].transpose(1, 0, 2), v.transpose(1, 0, 2))
    del qk, v  # the cache holds K and V now

    grouped_q = q.reshape(n, hk, h // hk, dh).transpose(1, 2, 0, 3)
    _attention(grouped_q, cache.keys, cache.values, received, first_scored, out=grouped_q)
    x += q.reshape(n, cfg.d_model) @ lw.wo  # q holds the attention output now
    count_matmul("proj", n, *lw.wo.shape)
    del q, grouped_q
    xn = rms_norm_rows(x, lw.mlp_norm, cfg.norm_eps)
    hidden = xn @ lw.w_in
    count_matmul("mlp", n, *lw.w_in.shape)
    del xn
    x += _silu(hidden) @ lw.w_out
    count_matmul("mlp", n, *lw.w_out.shape)


def logits_from_hidden(hidden_row: np.ndarray, weights: ModelWeights) -> np.ndarray:
    """Final norm plus output embedding for a single hidden row."""
    normed = rms_norm_rows(hidden_row.reshape(1, -1), weights.final_norm, weights.config.norm_eps)
    logits = normed @ weights.out_emb
    count_matmul("logits", 1, *weights.out_emb.shape)
    return logits[0]


def _chunks(n: int):
    """``(lo, hi)`` row ranges of a prompt pass: :data:`CHUNK_ROWS` rows each.

    A one-row tail joins the chunk before it: a one-row product takes
    another BLAS path than a many-row one, and its bits differ.
    """
    starts = list(range(0, n, CHUNK_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return zip(starts, [*starts[1:], n])


def prefill(
    tokens,
    weights: ModelWeights,
    upto_layer: int | None = None,
    *,
    evict=None,
    score_rows: int = 0,
) -> PrefillResult:
    """Embed the prompt and run it through layers 1..upto_layer (every layer by default).

    ``upto_layer`` lies in ``0..n_layers``; at 0 the result is the prompt's
    embedding, with no caches, nothing charged and no layer touched.  The
    prompt's length is :func:`check_prompt_length`'s to check, its shape and
    token ids :func:`embed`'s.

    Each layer reserves an ``n``-row cache and runs the prompt through
    :func:`run_layer` in :data:`CHUNK_ROWS`-row chunks, each appending its
    K/V and overwriting its rows of the residual stream.  The chunks' query
    blocks are those of one whole-prompt call, so every bit matches it, and
    the layer's attention is charged once, densely over ``n x n``.

    ``evict(cache, scores)`` replaces each layer's full cache, as soon as the
    layer finishes, with the cache it returns, or with nothing when it
    returns None (the token-selection pass keeps no caches).  So at most one
    full layer is ever live next to the kept ones, which the KV byte
    checkpoints reflect.  ``scores`` is ``(n_kv_heads, n)`` float64: the
    attention each key received from the last ``score_rows`` prompt rows,
    summed over the query heads of each kv-head's group, one accumulator per
    layer (None when ``score_rows`` is 0).  No logits are computed: a caller
    that wants them applies :func:`logits_from_hidden` to the last hidden row.
    """
    cfg = weights.config
    ids = _token_ids(tokens)
    check_prompt_length(ids.size, cfg)
    if not is_integer(score_rows) or score_rows < 0:
        raise ContractViolation(f"score_rows {score_rows!r} must be >= 0 and an integer")
    if score_rows > ids.size:
        raise ContractViolation(f"prompt length {ids.size} shorter than window {score_rows}")
    upto = cfg.n_layers if upto_layer is None else upto_layer
    if not is_integer(upto) or not 0 <= upto <= cfg.n_layers:
        raise ContractViolation(f"upto_layer {upto!r} outside 0..{cfg.n_layers}")

    n, h, hk = ids.size, cfg.n_heads, cfg.n_kv_heads
    x = embed(ids, weights)
    caches: list[LayerKV] = []
    for li in range(upto):
        layer_kv = LayerKV.empty(hk, cfg.head_dim, n)
        received = np.zeros((hk, h // hk, n)) if score_rows else None
        for lo, hi in _chunks(n):
            run_layer(x[lo:hi], weights, li, layer_kv, received, n - score_rows)
        _charge_attention(cfg, n, n)
        scores = None if received is None else received.sum(axis=1)
        kept = layer_kv if evict is None else evict(layer_kv, scores)
        if kept is not None:
            caches.append(kept)
        live = sum(c.nbytes for c in caches)
        # A replaced layer's full cache is still live at this checkpoint.
        note_kv_bytes(live if kept is layer_kv else live + layer_kv.nbytes)
        del layer_kv, received, scores  # drop this layer's full K/V before the next runs
    return PrefillResult(hidden=x, caches=caches)


def decode_step(token: int, caches: list[LayerKV], weights: ModelWeights) -> np.ndarray:
    """Advance generation by one token; appends one K/V row per layer and head.

    The step's row is a copy of ``token``'s embedding row, the bytes
    ``embed([token])`` gives, without its array round trip: ``token`` is a
    Python or numpy integer (not a bool), and an id outside the vocabulary
    is rejected with :func:`embed`'s message, before anything is appended or
    charged.  Every norm of the step is a one-row :func:`rms_norm_rows`
    call, whose statistic is worked out on scalars.

    The new token's position is every cache's ``next_position``.  Caches that
    disagree on it, or whose keys or values are not float32 ``(n_kv_heads,
    rows, head_dim)`` of this model, are rejected in one walk, before
    anything is appended or charged.  The returned logits cover the whole
    vocabulary.  The step's attention is charged once, over the keys of
    every layer: the same totals as one charge per layer.  Its KV bytes
    follow from the same key count, since every cache row holds one float32
    key and value per kv-head.
    """
    cfg = weights.config
    if not caches or len(caches) != cfg.n_layers:
        raise ContractViolation("decode_step requires one prefilled cache per layer")
    position, heads = caches[0].next_position, (cfg.n_kv_heads, cfg.head_dim)
    for li, cache in enumerate(caches):
        if cache.next_position != position:
            raise ContractViolation(
                "decode_step requires every cache to resume at one position, got "
                f"{[cache.next_position for cache in caches]}"
            )
        keys, values = cache.keys, cache.values
        if keys.shape[::2] != heads or keys.dtype != F32 or values.dtype != F32:
            raise ContractViolation(
                f"layer {li} cache holds {keys.dtype} keys {keys.shape} and {values.dtype} "
                f"values; the model takes float32 ({heads[0]}, rows, {heads[1]})"
            )
    if position + 1 > cfg.max_seq:
        raise ContractViolation("cache would exceed max_seq")

    x = _token_row(token, weights)
    for li, cache in enumerate(caches):
        run_layer(x, weights, li, cache)
    rows = sum(len(cache) for cache in caches)
    _charge_attention(cfg, 1, rows)
    note_kv_bytes(rows * 2 * cfg.n_kv_heads * cfg.head_dim * F32().itemsize)
    return logits_from_hidden(x[0], weights)


def greedy_decode(
    weights: ModelWeights, caches: list[LayerKV], token: int, steps: int
) -> list[int]:
    """The ``steps`` greedy tokens after ``token``, one decode step each.

    Each cache first reserves the ``steps`` rows the loop appends, one layer
    and one part at a time (:meth:`LayerKV.reserve`), so at most one part of
    one layer is ever held twice and generation adds to a request's peak
    only the rows it decodes.
    """
    if not is_integer(steps) or steps < 0:
        raise ContractViolation(f"steps {steps!r} is not an integer >= 0")
    for cache in caches:
        cache.reserve(steps)
    out: list[int] = []
    for _ in range(steps):
        token = argmax(decode_step(token, caches, weights))
        out.append(token)
    return out
