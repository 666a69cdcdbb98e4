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

Before a re-record, say what a bit change did with the drift report::

    PYTHONPATH=src python tests/test_golden.py --against <checkout of the parent>

It writes nothing.  It imports the other checkout's ``src/gemfilter`` under
another module name, runs both engines over the grid, and prints one line per
cell whose outcome moved: whether its tokens, gemfilter selection indices and
snapkv/h2o kept rows (the ``rows`` each eviction hands ``LayerKV.gather``)
are equal, and the largest logit difference in float32 ulps.  Where a token
differs, the line gives the other engine's top-2 logit margin at the first
differing step; where a selection differs, its k-th vs (k+1)-th score
margin; where kept rows differ, the first layer and kv-head whose rows do and
the k-th vs (k+1)-th margin of the scores the keep rule ranked there.  A
small margin points at a near tie, a large one at logic.  The summary's
last line covers every eviction of every cell, moved or not: the largest
drift of the ranked scores over the other engine's margin, and where.
Under 0.5, no kept row can have flipped.
"""

import argparse
import hashlib
import importlib
import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

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
EVICTING = ("snapkv", "h2o")
# Extra eviction settings, each run for the strategies it names; their cells get a suffix.
EVICTION_VARIANTS = {
    "k-plus-window": (("snapkv",), lambda rc: replace(rc, select_k=rc.select_k + rc.window)),
}


def _engine(package: str = "gemfilter") -> SimpleNamespace:
    """The modules of the engine importable as ``package`` that a golden run reads."""
    names = ("config", "errors", "kernels", "model", "runner", "testmodels")
    return SimpleNamespace(**{name: importlib.import_module(f"{package}.{name}") for name in names})


def _grid(engine: SimpleNamespace):
    ModelConfig, RunConfig = engine.config.ModelConfig, engine.runner.RunConfig
    for shape, (m, h, hk, dh, r, use_rope) in SHAPES.items():
        cfg = ModelConfig(
            n_layers=m, n_heads=h, n_kv_heads=hk, head_dim=dh, d_model=h * dh,
            vocab_size=64, hidden_mlp=16, use_rope=use_rope,
            max_seq=max(LENGTHS) + max(STEPS),
        )
        weights = engine.testmodels.make_random_model(cfg, len(shape) + m)
        for n in LENGTHS:
            tokens = [(7 * i + 3) % cfg.vocab_size for i in range(n)]
            for k in (4, n):
                for t in STEPS:
                    for strategy in engine.runner.Strategy:
                        name = f"{shape}/{strategy.value}/n{n}/k{k}/t{t}"
                        rc = RunConfig(
                            strategy=strategy, max_new_tokens=t, select_k=k, filter_layer=r,
                            **(EVICTION if strategy.value in EVICTING else {}),
                        )
                        yield name, weights, tokens, rc
                        for suffix, (strategies, variant) in EVICTION_VARIANTS.items():
                            if strategy.value in strategies:
                                yield f"{name}/{suffix}", weights, tokens, variant(rc)


def _digest_caches(digest, caches) -> None:
    for cache in caches:
        digest.update(cache.keys.tobytes())
        digest.update(cache.values.tobytes())
        digest.update(str(cache.next_position).encode())


def _keep_ranking(engine: SimpleNamespace, scores: np.ndarray, rc) -> tuple[np.ndarray, int]:
    """What the keep rule ranks in one layer: ``(ranked, rank)``.

    ``ranked`` holds, per kv-head, the scores of the positions before the
    window (pooled first for snapkv), and ``rank`` is how many of them are kept.
    """
    if rc.strategy.value == "snapkv":
        scores = np.stack([engine.kernels.pool_1d(head, rc.pool_kernel) for head in scores])
    return scores[:, : scores.shape[1] - rc.window], rc.select_k - rc.window


def _run(engine: SimpleNamespace, weights, tokens, rc) -> tuple[dict, dict]:
    """One cell on ``engine``: its outcome, and what the drift report reads.

    The second dict holds every logits vector the run computes, in order
    (``logits``), the ``rows`` of every :meth:`LayerKV.gather` call
    (``rows``), per evicted layer what its keep rule ranked (``keep``, see
    :func:`_keep_ranking`) and the run's selection (``selection``, or None).
    """
    model, runner = engine.model, engine.runner
    logits_digest, caches_digest = hashlib.sha256(), hashlib.sha256()
    kept = []
    seen = {"logits": [], "rows": [], "keep": [], "selection": None}

    def logits_from_hidden(hidden_row, weights, real=model.logits_from_hidden):
        logits = real(hidden_row, weights)
        logits_digest.update(logits.tobytes())
        seen["logits"].append(logits)
        return logits

    def prefill(*args, real=runner.prefill, **kwargs):
        result = real(*args, **kwargs)
        kept.extend(result.caches)
        _digest_caches(caches_digest, result.caches)
        return result

    def gather(cache, rows, real=model.LayerKV.gather):
        seen["rows"].append(np.array(rows))
        return real(cache, rows)

    def prompt_pass(*args, real=runner.prompt_pass):
        filters, evict, score_rows = real(*args)
        if evict is None:
            return filters, evict, score_rows

        def recording(cache, scores):
            seen["keep"].append(_keep_ranking(engine, scores, rc))
            return evict(cache, scores)

        return filters, recording, score_rows

    # The first token's logits are computed by the runner, the rest by decode_step.
    with (
        mock.patch.object(runner, "logits_from_hidden", logits_from_hidden),
        mock.patch.object(model, "logits_from_hidden", logits_from_hidden),
        mock.patch.object(runner, "prefill", prefill),
        mock.patch.object(model.LayerKV, "gather", gather),
        mock.patch.object(runner, "prompt_pass", prompt_pass),
    ):
        try:
            result = runner.run_generation(weights, tokens, rc)
        except engine.errors.EngineError as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}, seen
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
        sel = seen["selection"] = result.selection
        outcome["selection_sha256"] = hashlib.sha256(
            sel.indices.tobytes() + sel.raw_scores.tobytes()
        ).hexdigest()
    return json.loads(json.dumps(outcome)), seen


def record() -> dict:
    engine = _engine()
    return {name: _run(engine, w, toks, rc)[0] for name, w, toks, rc in _grid(engine)}


def test_golden_runs_unchanged():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    measured = record()
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


def _load_checkout(checkout: Path) -> SimpleNamespace:
    """The engine of another checkout: its ``src/gemfilter``, imported as ``gemfilter_against``.

    The package imports its own modules only relatively, so it loads next
    to this tree's ``gemfilter`` without either seeing the other.
    """
    src, name = Path(checkout) / "src" / "gemfilter", "gemfilter_against"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return _engine(name)


def _ulps(a: np.ndarray, b: np.ndarray) -> int:
    """The largest distance between float32 arrays ``a`` and ``b``, in ulps.

    Each float's bits, read as a sign-magnitude integer, order the floats:
    neighbours are one apart, and ``+0`` and ``-0`` both read 0.
    """
    def ordered(x):
        bits = np.asarray(x, dtype=np.float32).view(np.int32).astype(np.int64)
        return np.where(bits < 0, -(bits & 0x7FFFFFFF), bits)

    return int(np.abs(ordered(a) - ordered(b)).max(initial=0))


def _gap(values, rank: int) -> float:
    """The gap between the ``rank``-th and ``rank + 1``-th largest values."""
    top = np.sort(np.asarray(values, dtype=np.float64))[::-1]
    return float(top[rank - 1] - top[rank])


def _margin(values, rank: int) -> str:
    """:func:`_gap`, absolute and as a share of the largest ``|value|``."""
    gap, largest = _gap(values, rank), np.abs(np.asarray(values, dtype=np.float64)).max()
    return f"{gap:.3g}, {gap / max(largest, np.finfo(float).tiny):.3g} of max |value|"


def _keep_margin(old: np.ndarray, new: np.ndarray, rank: int) -> float:
    """The old scores' k-th vs (k+1)-th margin, a tie there that ``new`` keeps counted as one score.

    Where the old scores tie across the cut, the index decides which of the
    tied positions are kept.  If the new scores hold every tied one equal,
    the index still decides, so the margin is the gap from the tie to the
    nearest other old score (``inf`` if there is none); if they do not, 0.
    """
    gap = _gap(old, rank)
    if gap:
        return gap
    tied = old == np.sort(old)[-rank]
    if np.unique(new[tied]).size > 1:
        return 0.0
    return float(np.abs(old[~tied] - old[tied][0]).min(initial=np.inf))


def _approaches(old_keep: list, new_keep: list):
    """Yield ``(ratio, layer, head)`` for each eviction and kv-head whose keep rule ranked.

    ``ratio`` is the largest ``|drift|`` of the ranked scores from ``old_keep``
    to ``new_keep`` over the old margin there (:func:`_keep_margin`; 0 for
    no drift, ``inf`` for drift at a broken tie).  A kept row can flip only
    where two ranked scores on either side of the margin close it, so only
    at a ratio of 0.5 or more.  An eviction that keeps every position, or
    only its window, ranks nothing.
    """
    for layer, ((old, rank), (new, _)) in enumerate(zip(old_keep, new_keep)):
        if not 0 < rank < old.shape[1]:
            continue
        for head, (a, b) in enumerate(zip(old, new)):
            drift, margin = float(np.abs(b - a).max()), _keep_margin(a, b, rank)
            yield (drift / margin if margin else np.inf if drift else 0.0), layer, head


def _approach_line(closest: tuple | None, ranked: int) -> str:
    """The summary line of the closest approach, ``(ratio, cell, layer, head)``, over ``ranked``."""
    if closest is None:
        return "closest approach to a kept-row flip: no eviction ranked"
    ratio, name, layer, head = closest
    return (
        f"closest approach to a kept-row flip: largest keep-score drift {ratio:.3g} of the "
        f"parent's k-th vs (k+1)-th margin, at {name} layer {layer} kv-head {head}, over "
        f"{ranked} ranked evictions of a layer's kv-head (under 0.5, no kept row can flip)"
    )


def _drift(old: dict, new: dict, old_seen: dict, new_seen: dict) -> tuple[str, dict, int, float]:
    """How one moved cell moved from ``old`` (the other engine's run) to ``new``.

    Returns the report's words for it; what flipped, ``tokens``,
    ``selection`` and ``rows``, each True where it differs; and the largest
    logit difference, in ulps and absolute, up to the first flipped token.
    """
    if "error" in old or "error" in new:
        return f"{old.get('error', 'ran')} -> {new.get('error', 'ran')}", {}, 0, 0.0
    words, flips = [], {}
    tokens_old, tokens_new = old["tokens"], new["tokens"]
    flip = next((i for i, (a, b) in enumerate(zip(tokens_old, tokens_new)) if a != b), None)
    flips["tokens"] = flip is not None or len(tokens_old) != len(tokens_new)
    if flip is None:
        words.append("tokens " + ("differ in length" if flips["tokens"] else "equal"))
    else:
        words.append(f"tokens differ at step {flip} (parent top-2 margin "
                     f"{_margin(old_seen['logits'][flip], 1)})")
    sel_old, sel_new = old_seen["selection"], new_seen["selection"]
    if sel_old is not None:
        flips["selection"] = not np.array_equal(sel_old.indices, sel_new.indices)
        k = len(sel_old.indices)
        words.append(
            f"selection differs (parent k-th vs (k+1)-th margin {_margin(sel_old.raw_scores, k)})"
            if flips["selection"] else "selection equal"
        )
    if old_seen["rows"] or new_seen["rows"]:
        moved = [
            i for i, (a, b) in enumerate(zip(old_seen["rows"], new_seen["rows"]))
            if not np.array_equal(a, b)
        ]
        flips["rows"] = bool(moved) or len(old_seen["rows"]) != len(new_seen["rows"])
        if moved:
            layer = moved[0]
            head = int(np.flatnonzero(
                (old_seen["rows"][layer] != new_seen["rows"][layer]).any(axis=1)
            )[0])
            ranked, rank = old_seen["keep"][layer]
            words.append(f"kept rows differ from layer {layer} kv-head {head} (parent k-th vs "
                         f"(k+1)-th margin {_margin(ranked[head], rank)})")
        else:
            words.append("kept rows " + ("differ in count" if flips["rows"] else "equal"))
    # Past a flipped token the two runs decode different rows: compare up to it.
    steps = len(tokens_new) if flip is None else flip + 1
    pairs = list(zip(old_seen["logits"], new_seen["logits"]))[:steps]
    ulps = max((_ulps(a, b) for a, b in pairs), default=0)
    diff = max((float(np.abs(a - b).max()) for a, b in pairs), default=0.0)
    words.append(f"logits {ulps} ulps (max |diff| {diff:.3g})")
    return ", ".join(words), flips, ulps, diff


def drift_report(checkout: Path) -> list[str]:
    """One line per cell that moved from ``checkout``'s engine to this one, then a summary."""
    here, there = _engine(), _load_checkout(checkout)
    lines, fields, flipped = [], {}, {"tokens": 0, "selection": 0, "rows": 0}
    cells = errors = largest = ranked = 0
    widest, closest = 0.0, None
    for (name, *cell), (_, *other) in zip(_grid(here), _grid(there), strict=True):
        new, new_seen = _run(here, *cell)
        old, old_seen = _run(there, *other)
        cells += 1
        errors += "error" in new
        for ratio, layer, head in _approaches(old_seen["keep"], new_seen["keep"]):
            ranked += 1
            if closest is None or ratio > closest[0]:
                closest = (ratio, name, layer, head)
        if new == old:
            continue
        moved = _fields_moved(old, new)
        for field in moved.split():
            fields[field] = fields.get(field, 0) + 1
        words, flips, ulps, diff = _drift(old, new, old_seen, new_seen)
        for what, differs in flips.items():
            flipped[what] += differs
        largest, widest = max(largest, ulps), max(widest, diff)
        lines.append(f"~ {name} [{moved}]: {words}")
    moved_fields = ", ".join(f"{field} {count}" for field, count in sorted(fields.items()))
    lines += [
        f"{cells} cells ({cells - errors} run, {errors} raise), {len(lines)} moved",
        f"fields moved: {moved_fields or 'none'}",
        f"cells whose tokens changed: {flipped['tokens']}, selection: {flipped['selection']}, "
        f"kept rows: {flipped['rows']}; largest logit drift up to any flip: {largest} ulps, "
        f"max |diff| {widest:.3g}",
        _approach_line(closest, ranked),
    ]
    return lines


def test_ulps_count_the_floats_between():
    one, tiny = np.float32(1), np.nextafter(np.float32(0), np.float32(1))
    assert _ulps(np.array([one]), np.array([np.nextafter(one, np.float32(2))])) == 1
    assert _ulps(np.array([0.0, 2.0], np.float32), np.array([-0.0, 2.0], np.float32)) == 0
    assert _ulps(np.array([-tiny]), np.array([tiny])) == 2


def test_drift_names_each_flip_with_the_parent_margin():
    f32 = lambda *x: np.array(x, dtype=np.float32)
    selection = lambda *idx: SimpleNamespace(
        indices=np.array(idx), raw_scores=np.array([4.0, 1.0, 3.0, 2.5])
    )
    old = {"tokens": [0, 1]}
    old_seen = {"logits": [f32(2, 1), f32(1, 1.25)], "rows": [], "selection": selection(0, 2)}
    same_seen = {**old_seen, "logits": [f32(2, 1), np.nextafter(f32(1, 1.25), f32(2, 2))]}
    assert _drift(old, old, old_seen, same_seen) == (
        "tokens equal, selection equal, logits 1 ulps (max |diff| 1.19e-07)",
        {"tokens": False, "selection": False}, 1, pytest.approx(2.0**-23),
    )
    flipped_seen = {
        "logits": [f32(2, 1), f32(1.5, 1)], "rows": [], "selection": selection(0, 3),
    }
    words, flips, *_ = _drift(old, {"tokens": [0, 0]}, old_seen, flipped_seen)
    assert words.startswith(
        "tokens differ at step 1 (parent top-2 margin 0.25, 0.2 of max |value|), "
        "selection differs (parent k-th vs (k+1)-th margin 0.5, 0.125 of max |value|)"
    )
    assert flips == {"tokens": True, "selection": True}


def test_drift_names_a_kept_row_flip_with_the_parent_keep_margin():
    """A kept-row flip names its first layer and kv-head and the margin the
    parent's keep rule ranked there; ``_run`` captures what each layer ranked."""
    engine = _engine()
    cfg = engine.config.ModelConfig(
        n_layers=2, n_heads=4, n_kv_heads=2, head_dim=8, d_model=32,
        vocab_size=64, hidden_mlp=16, max_seq=64,
    )
    weights = engine.testmodels.make_random_model(cfg, 5)
    for strategy in EVICTING:
        rc = engine.runner.RunConfig(
            strategy=engine.runner.Strategy(strategy), max_new_tokens=1, select_k=6, **EVICTION
        )
        _, seen = _run(engine, weights, list(range(20)), rc)
        assert [ranked.shape for ranked, _ in seen["keep"]] == [(2, 18)] * 2
        assert [rank for _, rank in seen["keep"]] == [4, 4]
        for (ranked, rank), rows in zip(seen["keep"], seen["rows"]):
            for head in range(2):
                best = engine.kernels.topk_indices(ranked[head], rank)
                assert rows[head].tolist() == sorted(best.tolist()) + [18, 19], strategy

    old = {"tokens": [0]}
    logits = [np.array([2, 1], dtype=np.float32)]
    rows = [np.array([[0, 1], [0, 1]]), np.array([[0, 2], [1, 2]])]
    keep = [(np.zeros((2, 3)), 1), (np.array([[5.0, 1.0, 4.0], [1.0, 3.0, 2.0]]), 1)]
    old_seen = {"logits": logits, "rows": rows, "keep": keep, "selection": None}
    new_seen = {**old_seen, "rows": rows[:1] + [np.array([[0, 2], [0, 2]])]}
    words, flips, *_ = _drift(old, old, old_seen, new_seen)
    assert words == (
        "tokens equal, kept rows differ from layer 1 kv-head 1 (parent k-th vs (k+1)-th "
        "margin 1, 0.333 of max |value|), logits 0 ulps (max |diff| 0)"
    )
    assert flips == {"tokens": False, "rows": True}
    words, flips, *_ = _drift(old, old, old_seen, old_seen)
    assert words == "tokens equal, kept rows equal, logits 0 ulps (max |diff| 0)"
    assert flips == {"tokens": False, "rows": False}


def test_closest_approach_divides_each_drift_by_the_parent_keep_margin():
    """Every eviction and kv-head that ranks gives its largest drift over the
    parent's keep margin, moved rows or not; a tie across the cut counts as
    one score while it holds and reads inf once broken; an eviction keeping
    every position or none by rank gives nothing."""
    old_keep = [
        (np.zeros((2, 3)), 0),  # the window alone: nothing ranked
        (np.array([[5.0, 1.0, 4.0], [1.0, 3.0, 2.0]]), 1),  # margins 1 and 1
        # Ties across the cut: kept with a gap of 4 to the 1.0, kept with no
        # other score, and broken.
        (np.array([[5.0, 5.0, 1.0], [2.0, 2.0, 2.0]]), 1),
        (np.array([[2.0, 2.0, 1.0]]), 1),
        (np.array([[1.0, 2.0]]), 2),  # every position kept
    ]
    new_keep = [
        (np.ones((2, 3)), 0),
        (np.array([[5.0, 1.25, 4.0], [1.0, 3.0, 2.4]]), 1),
        (np.array([[5.5, 5.5, 1.0], [2.5, 2.5, 2.5]]), 1),
        (np.array([[2.0, 2.0 + 2.0**-40, 1.0]]), 1),
        (np.array([[9.0, 2.0]]), 2),
    ]
    got = list(_approaches(old_keep, new_keep))
    assert got == [
        (0.25, 1, 0), (pytest.approx(0.4), 1, 1), (0.125, 2, 0), (0.0, 2, 1), (np.inf, 3, 0)
    ]
    assert [ratio for ratio, *_ in _approaches(old_keep, old_keep)] == [0.0] * 5
    assert _approach_line((0.4, "m2h4kv2/h2o/n33/k4/t1", 1, 1), 4) == (
        "closest approach to a kept-row flip: largest keep-score drift 0.4 of the parent's "
        "k-th vs (k+1)-th margin, at m2h4kv2/h2o/n33/k4/t1 layer 1 kv-head 1, over 4 ranked "
        "evictions of a layer's kv-head (under 0.5, no kept row can flip)"
    )
    assert _approach_line(None, 0) == "closest approach to a kept-row flip: no eviction ranked"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Re-record the golden runs, or report how they drift from another checkout's."
    )
    parser.add_argument(
        "--against", type=Path, metavar="CHECKOUT",
        help="a checkout whose src/gemfilter to compare with; report only, write nothing",
    )
    args = parser.parse_args()
    if args.against is not None:
        if not (args.against / "src" / "gemfilter" / "__init__.py").is_file():
            parser.error(f"{args.against} holds no src/gemfilter package")
        print("\n".join(drift_report(args.against)))
    else:
        runs = record()
        committed = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
        changes = _diff(committed, runs)
        print("\n".join(changes) if changes else "no cell added, removed or changed")
        lines = [f"  {json.dumps(name)}: {json.dumps(runs[name], sort_keys=True)}" for name in runs]
        GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        print(f"wrote {len(runs)} golden runs to {GOLDEN}")
