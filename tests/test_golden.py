"""Golden runs: output tokens and phase counters on a fixed tiny grid.

Every (shape, strategy, n, k, t) cell below, plus the snapkv cells at
``select_k = k + window`` (suffix ``k-plus-window``), runs through
:func:`run_generation` and must reproduce, exactly, the output tokens, the
per-phase ``(flops_by_tag, kv_bytes_peak, weight_bytes_touched)`` and the
SHA-256 of the bytes of every logits vector the run computes, in order
(``logits_sha256``), recorded in ``golden_runs.json``.  The digest makes a
logit bit drift visible even where it flips no argmax.  ``caches_sha256``
digests the keys, values and next position of every layer's cache, once as
the runner's prefill returns them (after eviction) and again after the last
decode step, so a kept row or a resume position that moves shows even where
no logit does (without RoPE, a position changes no logit).  A gemfilter cell
adds ``selection_sha256``, the bytes of its selection's indices and raw
scores.  The file pins the engine's observable behaviour across internal
refactors; a cell that raises records the error class and message instead.

Regenerate the file (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/test_golden.py

which prints the cells added, removed and changed, and for a changed cell the
fields that changed (bare), were added (``+``) or removed (``-``), before it
rewrites the file.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path
from unittest import mock

from gemfilter import model, runner

from gemfilter.config import ModelConfig
from gemfilter.errors import EngineError
from gemfilter.runner import RunConfig, Strategy, run_generation
from gemfilter.testmodels import make_random_model

GOLDEN = Path(__file__).with_name("golden_runs.json")

# name -> (n_layers, n_heads, n_kv_heads, head_dim, filter layer, use_rope).
# The third has one query head per kv-head and no rotation, as the needle
# model does; the last groups four query heads per kv-head and selects at
# its last layer (r = m).
SHAPES = {
    "m2h4kv2": (2, 4, 2, 8, 1, True),
    "m3h4kv1": (3, 4, 1, 4, 2, True),
    "m2h2kv2-norope": (2, 2, 2, 8, 1, False),
    "m3h8kv2": (3, 8, 2, 4, 3, True),
}
# n = 1 is the one prompt whose pass runs one-row layers, as a decode step
# does; n = 63, 64 and 65 sit at the edges of a ROW_BLOCK = 64 query block.
# n = 130 runs query blocks of 64 + 64 + 2 rows: a second block, the causal
# skip across blocks and a short tail block.  Past CHUNK_ROWS = 256, _chunks
# joins a one-row tail to the chunk before it: n = 257 runs as one 257-row
# chunk, n = 513 as a 256-row chunk and a second, 257-row one.
LENGTHS = (1, 2, 5, 33, 63, 64, 65, 130, 257, 513)
STEPS = (0, 1, 6, 20)
# The eviction settings of the snapkv/h2o cells; full and gemfilter cells
# keep the defaults (gemfilter pools its selection with kernel 5).
EVICTION = dict(window=2, pool_kernel=3)
EVICTING = (Strategy.SNAPKV, Strategy.H2O)
# Extra eviction settings, each run for the strategies it names; their cells get a suffix.
EVICTION_VARIANTS = {
    "k-plus-window": ((Strategy.SNAPKV,), lambda rc: replace(rc, select_k=rc.select_k + rc.window)),
}


def _grid():
    for shape, (m, h, hk, dh, r, use_rope) in SHAPES.items():
        cfg = ModelConfig(
            n_layers=m, n_heads=h, n_kv_heads=hk, head_dim=dh, d_model=h * dh,
            vocab_size=64, hidden_mlp=16, use_rope=use_rope,
            max_seq=max(LENGTHS) + max(STEPS),
        )
        weights = make_random_model(cfg, len(shape) + m)
        for n in LENGTHS:
            tokens = [(7 * i + 3) % cfg.vocab_size for i in range(n)]
            for k in (4, n):
                for t in STEPS:
                    for strategy in Strategy:
                        name = f"{shape}/{strategy.value}/n{n}/k{k}/t{t}"
                        rc = RunConfig(
                            strategy=strategy, max_new_tokens=t, select_k=k, filter_layer=r,
                            **(EVICTION if strategy in EVICTING else {}),
                        )
                        yield name, weights, tokens, rc
                        for suffix, (strategies, variant) in EVICTION_VARIANTS.items():
                            if strategy in strategies:
                                yield f"{name}/{suffix}", weights, tokens, variant(rc)


def _digest_caches(digest, caches) -> None:
    for cache in caches:
        digest.update(cache.keys.tobytes())
        digest.update(cache.values.tobytes())
        digest.update(str(cache.next_position).encode())


def _outcome(weights, tokens, rc) -> dict:
    logits_digest, caches_digest = hashlib.sha256(), hashlib.sha256()
    kept = []

    def logits_from_hidden(hidden_row, weights, real=model.logits_from_hidden):
        logits = real(hidden_row, weights)
        logits_digest.update(logits.tobytes())
        return logits

    def prefill(*args, real=runner.prefill, **kwargs):
        result = real(*args, **kwargs)
        kept.extend(result.caches)
        _digest_caches(caches_digest, result.caches)
        return result

    # The first token's logits are computed by the runner, the rest by decode_step.
    with (
        mock.patch.object(runner, "logits_from_hidden", logits_from_hidden),
        mock.patch.object(model, "logits_from_hidden", logits_from_hidden),
        mock.patch.object(runner, "prefill", prefill),
    ):
        try:
            result = run_generation(weights, tokens, rc)
        except EngineError as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}
    # The caches again, as the last decode step left them.
    _digest_caches(caches_digest, kept)
    phases = {
        phase: [cost.flops_by_tag, cost.kv_bytes_peak, cost.weight_bytes_touched]
        for phase, cost in result.session.snapshot().items()
    }
    outcome = {
        "tokens": [int(x) for x in result.output_tokens],
        "phases": phases,
        "logits_sha256": logits_digest.hexdigest(),
        "caches_sha256": caches_digest.hexdigest(),
    }
    if result.selection is not None:
        sel = result.selection
        outcome["selection_sha256"] = hashlib.sha256(
            sel.indices.tobytes() + sel.raw_scores.tobytes()
        ).hexdigest()
    return outcome


def record() -> dict:
    return {name: _outcome(w, toks, rc) for name, w, toks, rc in _grid()}


def test_golden_runs_unchanged():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    measured = json.loads(json.dumps(record()))
    assert sorted(measured) == sorted(expected)
    for name in expected:
        assert measured[name] == expected[name], name


def _fields_moved(old: dict, new: dict) -> str:
    """The fields of one cell that changed (bare), were added (+) or removed (-)."""
    return " ".join([
        *(f for f in new if f in old and new[f] != old[f]),
        *(f"+{f}" for f in new if f not in old),
        *(f"-{f}" for f in old if f not in new),
    ])


def _diff(old: dict, new: dict) -> list[str]:
    """One line per cell added (+), removed (-) or changed (~) from ``old`` to ``new``.

    A changed cell's line names the fields that moved, as :func:`_fields_moved`.
    """
    return [
        *(f"+ {name}" for name in new if name not in old),
        *(f"- {name}" for name in old if name not in new),
        *(
            f"~ {name}: {_fields_moved(old[name], new[name])}"
            for name in new
            if name in old and new[name] != old[name]
        ),
    ]


def test_diff_names_the_fields_that_moved():
    old = {"kept": {"a": 1}, "gone": {"a": 1}, "moved": {"a": 1, "b": 2, "c": 3}}
    new = {"kept": {"a": 1}, "new": {"a": 1}, "moved": {"a": 0, "c": 3, "d": 4}}
    assert _diff(old, new) == ["+ new", "- gone", "~ moved: a +d -b"]


if __name__ == "__main__":
    runs = record()
    committed = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    changes = _diff(committed, json.loads(json.dumps(runs)))
    print("\n".join(changes) if changes else "no cell added, removed or changed")
    lines = [f"  {json.dumps(name)}: {json.dumps(runs[name], sort_keys=True)}" for name in runs]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(runs)} golden runs to {GOLDEN}")
