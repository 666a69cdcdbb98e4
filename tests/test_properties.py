"""Property tests over the whole parameter space, on tiny models.

For any ``(n, k, t, r, m, h, h_kv)`` and window (drawn apart for snapkv and h2o) each
strategy either raises a named :class:`EngineError` (exactly when the
parameters violate a documented constraint) or produces counters that equal
``cost_table`` as integers.  The global selection and each head of an
evicted cache keep ``min(k, n)`` strictly increasing positions, evicted
caches resume decoding at position ``n``, and a budget covering the prompt
makes snapkv/h2o generate the full-cache tokens.  The keep rule both
eviction policies share keeps the trailing window and the best positions
before it.  Pooling equals brute-force windows for any odd kernel, wider
than the vector or not.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gemfilter.config import ModelConfig
from gemfilter.costmodel import CostParams, cost_table, verify_counters
from gemfilter.errors import EngineError
from gemfilter.kernels import pool_1d
from gemfilter.model import prefill
from gemfilter.runner import RunConfig, Strategy, run_generation
from gemfilter.strategies import keep_positions, prompt_pass
from gemfilter.testmodels import make_random_model


@st.composite
def instances(draw):
    m = draw(st.integers(1, 3))
    h_kv = draw(st.integers(1, 2))
    h = h_kv * draw(st.integers(1, 2))
    return dict(
        n=draw(st.integers(1, 24)),
        k=draw(st.integers(1, 28)),
        t=draw(st.integers(0, 4)),
        r=draw(st.integers(1, m)),
        m=m,
        h=h,
        h_kv=h_kv,
        window=draw(st.integers(1, 6)),
        recent=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 2**16)),
    )


def _valid(method: str, p: dict) -> bool:
    """The documented constraints of each eviction policy."""
    if method == "snapkv":
        return p["n"] >= p["window"] and (p["k"] >= p["n"] or p["k"] >= p["window"])
    if method == "h2o":
        return p["k"] >= p["n"] or p["k"] >= p["recent"]
    return True


# The gather spy is set up once for all examples; each example reads only the rows it adds.
@settings(
    max_examples=120, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(p=instances())
def test_counters_eviction_invariants_and_k_ge_n(gathered_rows, p):
    cfg = ModelConfig(
        n_layers=p["m"], n_heads=p["h"], n_kv_heads=p["h_kv"], head_dim=4,
        d_model=4 * p["h"], vocab_size=32, hidden_mlp=8, max_seq=32,
    )
    weights = make_random_model(cfg, p["seed"])
    tokens = np.random.default_rng(p["seed"]).integers(0, cfg.vocab_size, p["n"]).tolist()
    # snapkv and h2o each get their own draw of the window.
    eviction = {
        "snapkv": dict(window=p["window"], pool_kernel=3),
        "h2o": dict(window=p["recent"], pool_kernel=3),
    }
    table = cost_table(
        CostParams.from_weights(weights, n=p["n"], k=p["k"], t=p["t"], r=p["r"])
    )
    outputs = {}
    for strategy in Strategy:
        rc = RunConfig(
            strategy=strategy, max_new_tokens=p["t"], select_k=p["k"],
            filter_layer=p["r"], **eviction.get(strategy.value, {}),
        )
        try:
            result = run_generation(weights, tokens, rc)
        except EngineError:
            assert not _valid(strategy.value, p), strategy
            continue
        assert _valid(strategy.value, p), strategy
        report = verify_counters({strategy.value: result.session.snapshot()}, table)
        assert report.ok, report.format_text()
        outputs[strategy.value] = result.output_tokens
        if strategy is Strategy.GEMFILTER:
            kept = result.selection.indices
            assert kept.size == min(p["k"], p["n"]) and np.all(np.diff(kept) > 0)

    for method in ("snapkv", "h2o"):
        if not _valid(method, p):
            continue
        rc = RunConfig(Strategy(method), max_new_tokens=p["t"], select_k=p["k"], **eviction[method])
        _, evict, score_rows = prompt_pass(rc, p["n"], weights.config.max_seq)
        start = len(gathered_rows)
        compressed = prefill(tokens, weights, evict=evict, score_rows=score_rows).caches
        assert len(gathered_rows) - start == len(compressed) == p["m"]
        for layer, rows in zip(compressed, gathered_rows[start:]):
            assert rows.shape == (p["h_kv"], min(p["k"], p["n"])) == layer.keys.shape[:2]
            assert np.all(np.diff(rows, axis=1) > 0)
            assert layer.next_position == p["n"]
        if p["k"] >= p["n"]:
            assert outputs[method] == outputs["full"]


@st.composite
def keep_cases(draw):
    n = draw(st.integers(1, 40))
    window = draw(st.integers(0, n))
    budget = draw(st.integers(window, n + 4))
    # Few distinct values, so ties are common.
    scores = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return np.asarray(scores, dtype=np.float64), budget, window


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(keep_cases())
def test_keep_positions_keeps_the_window_and_the_best_prefix(case):
    scores, budget, window = case
    n = scores.size
    kept = keep_positions(scores, budget, window)
    assert kept.dtype == np.int64 and kept.size == min(budget, n)
    assert np.all(np.diff(kept) > 0)
    assert set(range(n - window, n)) <= set(kept.tolist())
    best = [int(p) for p in kept if p < n - window]
    for dropped in sorted(set(range(n - window)) - set(best)):
        for p in best:  # a dropped position scores lower, or equal and later
            assert scores[dropped] < scores[p] or (scores[dropped] == scores[p] and dropped > p)


@st.composite
def pooling_cases(draw):
    n = draw(st.integers(1, 64))
    kernel = 2 * draw(st.integers(0, (3 * n + 8) // 2)) + 1  # odd, 1..3n+9
    v = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal(n)
    return v, kernel


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pooling_cases())
def test_pool_1d_matches_brute_force_windows(case):
    v, kernel = case
    n, half = v.size, kernel // 2
    out = pool_1d(v, kernel)
    assert out.shape == (n,)
    windows = [v[max(i - half, 0) : i + half + 1] for i in range(n)]
    # Zero padding: the clipped window's sum over the full kernel.
    oracle = [sum(win.tolist()) / kernel for win in windows]
    np.testing.assert_allclose(out, oracle, rtol=1e-12, atol=1e-12)
