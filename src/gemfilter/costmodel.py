"""Closed-form cost model for the four generation strategies.

Every cell of the asymptotic complexity table is concretized with the
engine's own constants so that measured counters can be checked as exact
integer identities.  :class:`CostParams` is a model's :class:`ModelConfig`,
the one description of its shape, plus a run's ``n, k, t, r``.  The
conventions, shared with the implementation:

* One multiply-add = 2 FLOPs; only matmuls count.  :func:`_layer_flops` is
  the one per-layer formula: per layer over ``n`` tokens, attention scores
  and values cost ``2*h*n^2*head_dim`` each, the projections the fused
  Q/K/V product ``2*n*d_model*(d_model + 2*h_kv*head_dim)`` plus the output
  product ``2*n*d_model^2``, and the MLP ``4*n*d_model*hidden_mlp``.  A
  logits readout costs ``2*d_model*vocab`` per position.
* Generating ``t`` tokens takes the prompt pass's last-position logits plus
  ``t - 1`` decode steps; decode step ``j`` attends over ``start + j`` keys.
* KV bytes are key+value storage only, ``BYTES_PER_ELEM`` per element (the
  engine stores float32), with ``h_kv`` stored heads (the
  single-kv-head-per-group table is the special case ``h_kv = h``).  An
  evicted layer, snapkv's or h2o's, keeps ``min(k, n)`` rows per head.
* Weight bytes count transformer layers actually read in a phase
  (``layers_touched * w``, with ``w`` from
  :func:`~gemfilter.model.layer_weight_bytes`); embeddings and the final
  norm live outside ``w``.
* The filter pass runs ``r - 1`` layers in full and, of layer ``r``, only
  what selection reads: the key product over ``n`` rows and the query
  product over the last one, ``2*n*d_model*h_kv*head_dim + 2*d_model^2``
  (:func:`_filter_flops`), keeping that layer's keys alone.  So the
  full/gemfilter prompt FLOP ratio is at least the layer ratio ``m/r``; the
  filter pass still reads ``r`` layers.

Wall time is measured and reported but never predicted here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import ModelConfig, check_field_types
from .counting import GENERATION, PROMPT, PhaseCost
from .errors import ContractViolation
from .model import check_filter_layer, layer_weight_bytes

FLOP_TERMS = ("attn_score", "attn_value", "proj", "mlp", "logits")
BYTES_PER_ELEM = 4


@dataclass(frozen=True)
class CostParams:
    """Inputs to the closed forms: a model's shape and one run's sizes."""

    config: ModelConfig
    n: int  # prompt length
    k: int  # selection / cache budget
    t: int  # generated tokens
    r: int  # filter layer

    def __post_init__(self) -> None:
        check_field_types(self)
        if min(self.n, self.k, self.r) < 1 or self.t < 0:
            raise ContractViolation("cost parameters must be positive (t may be 0)")
        check_filter_layer(self.r, self.config)

    @property
    def k_eff(self) -> int:
        return min(self.k, self.n)

    @classmethod
    def from_weights(cls, weights, *, n: int, k: int, t: int, r: int) -> "CostParams":
        return cls(weights.config, n=n, k=k, t=t, r=r)


def _qkv_flops(cfg: ModelConfig, rows: int) -> int:
    """The fused Q/K/V product over ``rows`` positions."""
    return 2 * rows * cfg.d_model * (cfg.d_model + 2 * cfg.n_kv_heads * cfg.head_dim)


def _filter_flops(cfg: ModelConfig, rows: int) -> int:
    """The filter layer's key product over ``rows`` positions and its one-row query product."""
    return 2 * rows * cfg.d_model * cfg.n_kv_heads * cfg.head_dim + 2 * cfg.d_model * cfg.d_model


def _layer_flops(cfg: ModelConfig, layers: int, rows: int, key_rows: int) -> dict[str, int]:
    """``layers`` whole layers over ``rows`` positions that attend ``key_rows`` keys in all."""
    attn = layers * cfg.n_heads * 2 * cfg.head_dim * key_rows
    proj = layers * (_qkv_flops(cfg, rows) + 2 * rows * cfg.d_model * cfg.d_model)
    mlp = layers * 4 * rows * cfg.d_model * cfg.hidden_mlp
    return {"attn_score": attn, "attn_value": attn, "proj": proj, "mlp": mlp, "logits": 0}


def _logits_flops(cfg: ModelConfig, rows: int) -> dict[str, int]:
    return {"logits": rows * 2 * cfg.d_model * cfg.vocab_size}


def _add(a: dict[str, int], b: dict[str, int]) -> dict[str, int]:
    return {term: a.get(term, 0) + b.get(term, 0) for term in FLOP_TERMS}


def _kv_bytes(cfg: ModelConfig, layers: int, rows: int) -> int:
    return 2 * layers * cfg.n_kv_heads * rows * cfg.head_dim * BYTES_PER_ELEM


def cost_table(p: CostParams) -> dict[str, dict[str, PhaseCost]]:
    """Exact predicted counters per method and phase.

    Prompt-phase rows: a full-cache pass costs every layer over n tokens and
    retains all caches; the compressors cost the same pass but peak at one
    full layer plus all compressed layers; the filter pass costs ``r - 1``
    layers plus layer ``r``'s key and last-row query products, reads ``r``
    layers' weights, and peaks at one full layer's K/V (layer ``r``'s keys
    alone when ``r = 1``).
    Generation-phase rows: the two-pass method re-prefills the k selected
    tokens (its k^2 term) while the others decode against caches of n or k
    rows.  With t = 0 no layer runs in generation, so every generation
    counter is 0.
    """
    cfg, n, k = p.config, p.n, p.k_eff
    m, w = cfg.n_layers, layer_weight_bytes(cfg)
    s = max(p.t - 1, 0)
    gen_layers = m if p.t >= 1 else 0
    first_logits = _logits_flops(cfg, 1 if p.t >= 1 else 0)
    gen_weight = m * w if p.t >= 2 else 0

    def prefill(layers: int, rows: int) -> dict[str, int]:
        return _layer_flops(cfg, layers, rows, rows * rows)

    def decode(start: int) -> dict[str, int]:
        """``s`` decode steps; step ``j`` attends over ``start + j`` keys."""
        steps = _layer_flops(cfg, m, s, s * start + s * (s + 1) // 2)
        return _add(steps, _logits_flops(cfg, s))

    full_prompt = PhaseCost(
        PROMPT,
        flops_by_tag=_add(prefill(m, n), first_logits),
        kv_bytes_peak=_kv_bytes(cfg, m, n),
        weight_bytes_touched=m * w,
    )

    def compress() -> dict[str, PhaseCost]:
        """An evicting strategy's phases (fresh cells): each layer keeps ``k`` rows."""
        prompt = PhaseCost(
            PROMPT,
            flops_by_tag=dict(full_prompt.flops_by_tag),
            kv_bytes_peak=_kv_bytes(cfg, 1, n) + _kv_bytes(cfg, m, k),
            weight_bytes_touched=m * w,
        )
        gen = PhaseCost(
            GENERATION,
            flops_by_tag=decode(k),
            kv_bytes_peak=_kv_bytes(cfg, gen_layers, k + s),
            weight_bytes_touched=gen_weight,
        )
        return {PROMPT: prompt, GENERATION: gen}

    filter_prompt = PhaseCost(
        PROMPT,
        # Layers 1..r-1 in full, then only the filter layer's keys and last-row query.
        flops_by_tag=_add(prefill(p.r - 1, n), {"proj": _filter_flops(cfg, n)}),
        # One full layer's K/V before the filter layer; the filter layer's keys alone.
        kv_bytes_peak=_kv_bytes(cfg, 1, n) if p.r > 1 else _kv_bytes(cfg, 1, n) // 2,
        weight_bytes_touched=p.r * w,
    )
    full_gen = PhaseCost(
        GENERATION,
        flops_by_tag=decode(n),
        kv_bytes_peak=_kv_bytes(cfg, gen_layers, n + s),
        weight_bytes_touched=gen_weight,
    )
    twopass_gen = PhaseCost(
        GENERATION,
        flops_by_tag=_add(_add(prefill(gen_layers, k), first_logits), decode(k)),
        kv_bytes_peak=_kv_bytes(cfg, gen_layers, k + s),
        weight_bytes_touched=gen_layers * w,
    )

    return {
        "full": {PROMPT: full_prompt, GENERATION: full_gen},
        "snapkv": compress(),
        "h2o": compress(),
        "gemfilter": {PROMPT: filter_prompt, GENERATION: twopass_gen},
    }


@dataclass
class VerificationEntry:
    method: str
    phase: str
    term: str
    predicted: int
    measured: int

    @property
    def ok(self) -> bool:
        return self.predicted == self.measured


@dataclass
class VerificationReport:
    entries: list[VerificationEntry]
    wall_times: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def mismatches(self) -> list[VerificationEntry]:
        return [e for e in self.entries if not e.ok]

    def format_text(self) -> str:
        lines = []
        width = max((len(f"{e.method}/{e.phase}/{e.term}") for e in self.entries), default=10)
        for e in self.entries:
            state = "ok " if e.ok else "FAIL"
            name = f"{e.method}/{e.phase}/{e.term}"
            lines.append(
                f"{state} {name:<{width}} predicted={e.predicted:>16d} measured={e.measured:>16d}"
            )
        for method, phases in sorted(self.wall_times.items()):
            for phase, wall in sorted(phases.items()):
                lines.append(f"time {method}/{phase}: {wall:.4f}s (reported only)")
        lines.append("counters " + ("MATCH" if self.ok else "DIVERGE"))
        return "\n".join(lines)


def _terms(predicted: PhaseCost, measured: PhaseCost) -> list[tuple[str, int, int]]:
    """``(term, predicted, measured)`` for every FLOP tag either side names,
    then the KV peak and the weight bytes."""
    want, got = predicted.flops_by_tag, measured.flops_by_tag
    return [
        *((tag, want.get(tag, 0), got.get(tag, 0)) for tag in dict.fromkeys([*want, *got])),
        ("kv_bytes_peak", predicted.kv_bytes_peak, measured.kv_bytes_peak),
        ("weight_bytes", predicted.weight_bytes_touched, measured.weight_bytes_touched),
    ]


def verify_counters(
    measured: dict[str, dict[str, PhaseCost]],
    predicted: dict[str, dict[str, PhaseCost]],
) -> VerificationReport:
    """Compare measured phase counters against the closed forms, exactly.

    Every FLOP term, KV byte peak, and weight byte count must match as an
    integer; a measured term the model does not predict is a mismatch.
    Wall times are carried through for reporting, never asserted.
    """
    entries: list[VerificationEntry] = []
    walls: dict[str, dict[str, float]] = {}
    for method, phases in measured.items():
        if method not in predicted:
            raise ContractViolation(f"no predictions for method {method!r}")
        for phase, cost in phases.items():
            entries += [
                VerificationEntry(method, phase, term, want, got)
                for term, want, got in _terms(predicted[method][phase], cost)
            ]
            walls.setdefault(method, {})[phase] = cost.wall_time
    return VerificationReport(entries=entries, wall_times=walls)


def format_cost_table(p: CostParams, table: dict[str, dict[str, PhaseCost]]) -> str:
    """Aligned text rendering of the predicted table plus headline ratios."""
    cfg = p.config
    m = cfg.n_layers
    lines = [
        f"cost model: n={p.n} k={p.k} t={p.t} r={p.r} m={m} h={cfg.n_heads} "
        f"head_dim={cfg.head_dim} h_kv={cfg.n_kv_heads} d_model={cfg.d_model} "
        f"w={layer_weight_bytes(cfg)}B",
        f"{'method':<10} {'phase':<11} {'flops':>16} {'kv_bytes_peak':>14} {'weight_bytes':>13}",
    ]
    for method, phases in table.items():
        for phase, cell in phases.items():
            lines.append(
                f"{method:<10} {phase:<11} {cell.matmul_flops:>16d} "
                f"{cell.kv_bytes_peak:>14d} {cell.weight_bytes_touched:>13d}"
            )
    full_p = table["full"][PROMPT]
    gem_p = table["gemfilter"][PROMPT]
    if gem_p.matmul_flops:
        ratio = full_p.matmul_flops / gem_p.matmul_flops
        lines.append(
            f"prompt flops ratio full/gemfilter = {ratio:.2f} "
            f"(lower bound: layer ratio {m}/{p.r} = {m / p.r:.2f})"
        )
    if gem_p.total_bytes:
        lines.append(
            "prompt bytes full : snapkv : gemfilter = "
            f"{full_p.total_bytes} : {table['snapkv'][PROMPT].total_bytes} : {gem_p.total_bytes}"
        )
    return "\n".join(lines)
