"""Cost model tests: ratio identities, scaling laws, counter verification."""

import numpy as np
import pytest

from gemfilter.counting import GENERATION, PROMPT, CostSession
from gemfilter.costmodel import (
    BYTES_PER_ELEM,
    CostParams,
    cost_table,
    format_cost_table,
    verify_counters,
)
from gemfilter.errors import ConfigurationError, ContractViolation
from gemfilter.model import layer_weight_bytes, prefill
from gemfilter.runner import RunConfig, Strategy, run_generation
from gemfilter.testmodels import make_random_model
from helpers import config, snapshots


def params(n=1024, k=64, t=32, r=3, m=8, h=4, dh=16, hk=None, hidden=None, vocab=260):
    cfg = config(
        m=m, h=h, hk=h if hk is None else hk, dh=dh, vocab=vocab,
        hidden=4 * h * dh if hidden is None else hidden, max_seq=8192,
    )
    return CostParams(cfg, n=n, k=k, t=t, r=r)


def layer_bytes_by_hand(cfg):
    """One layer's float32 bytes, written out: wq, wo; wk, wv; w_in, w_out; the two norms."""
    d, kv_dim, hidden = cfg.d_model, cfg.n_kv_heads * cfg.head_dim, cfg.hidden_mlp
    return 4 * (2 * d * d + 2 * d * kv_dim + 2 * d * hidden + 2 * d)


def filter_flops(p):
    """The filter layer's key product over the prompt and query product over its last row."""
    cfg = p.config
    return 2 * p.n * cfg.d_model * cfg.n_kv_heads * cfg.head_dim + 2 * cfg.d_model**2


@pytest.mark.parametrize(
    "h, hk, dh, hidden", [(2, 2, 8, 32), (4, 2, 16, 128), (8, 1, 4, 7)], ids=["mha", "gqa", "mqa"]
)
def test_layer_weight_bytes_is_the_layer_element_sum(h, hk, dh, hidden):
    w = make_random_model(config(h=h, hk=hk, dh=dh, hidden=hidden), 0)
    assert layer_weight_bytes(w.config) == layer_bytes_by_hand(w.config) == w.per_layer_bytes
    table = cost_table(CostParams.from_weights(w, n=8, k=4, t=0, r=1))
    assert table["full"][PROMPT].weight_bytes_touched == 2 * w.per_layer_bytes


class TestTableRatios:
    def test_prompt_ratio_thirteen_of_thirtytwo_layers(self):
        """Filtering at layer 13 of 32 runs 12 full layers plus layer 13's key
        and last-row query products: the prompt speedup sits between 32/13
        and 32/12."""
        p = params(n=4096, k=1024, t=64, r=13, m=32)
        table = cost_table(p)
        full = table["full"][PROMPT]
        gem = table["gemfilter"][PROMPT]
        # attention and MLP terms scale exactly with the r - 1 full layers
        for tag in ("attn_score", "attn_value", "mlp"):
            assert full.flops_by_tag[tag] * 12 == gem.flops_by_tag[tag] * 32
        filter_proj = filter_flops(p) * 32
        assert full.flops_by_tag["proj"] * 12 + filter_proj == gem.flops_by_tag["proj"] * 32
        assert gem.flops_by_tag["logits"] == 0
        ratio = (full.matmul_flops - full.flops_by_tag["logits"]) / gem.matmul_flops
        assert 32 / 13 < ratio < 32 / 12

    def test_prompt_memory_case_study_proportion(self):
        """n >> m*k regime: bytes behave like mw+mhnd : mw+hnd : rw+hnd."""
        p = params(n=131072, k=128, t=128, r=13, m=32, h=8, dh=128)
        table = cost_table(p)
        cfg, B = p.config, BYTES_PER_ELEM
        w = layer_bytes_by_hand(cfg)

        def approx_bytes(layers_w, layers_kv):
            return layers_w * w + 2 * layers_kv * cfg.n_kv_heads * p.n * cfg.head_dim * B

        full = table["full"][PROMPT]
        snap = table["snapkv"][PROMPT]
        gem = table["gemfilter"][PROMPT]
        assert full.total_bytes == approx_bytes(cfg.n_layers, cfg.n_layers)
        assert gem.total_bytes == approx_bytes(p.r, 1)
        # SnapKV carries the extra compressed term, negligible when n >> m*k.
        assert snap.total_bytes == pytest.approx(approx_bytes(cfg.n_layers, 1), rel=0.05)
        assert gem.total_bytes < snap.total_bytes < full.total_bytes

    def test_generation_time_n_to_k_proportion(self):
        """n >> k = t: decode attention behaves like n : k : k."""
        p = params(n=131072, k=1024, t=1024, r=13, m=32, h=8, dh=128)
        table = cost_table(p)
        full = table["full"][GENERATION].flops_by_tag["attn_score"]
        snap = table["snapkv"][GENERATION].flops_by_tag["attn_score"]
        gem = table["gemfilter"][GENERATION].flops_by_tag["attn_score"]
        # Closed-form oracle, written out literally: s decode steps attend
        # over start+j keys, the two-pass method adds its k^2 prefill.
        s = p.t - 1
        tri = s * (s + 1) // 2
        unit = p.config.n_layers * p.config.n_heads * 2 * p.config.head_dim
        assert full == unit * (p.n * s + tri)
        assert snap == unit * (p.k * s + tri)
        assert gem == unit * (p.k * p.k + p.k * s + tri)
        # The order claim: the compressed and two-pass methods sit at k while
        # the full cache sits at n.
        assert full / snap == pytest.approx((p.n + s / 2) / (p.k + s / 2), rel=0.01)
        assert full / snap > 0.25 * p.n / p.k
        assert gem / snap < 2
        assert full / gem > 20


class TestScalingLaws:
    def test_doubling_n_quadruples_prompt_attention(self):
        a = cost_table(params(n=512))
        b = cost_table(params(n=1024))
        for method in ("full", "snapkv", "gemfilter"):
            assert (
                b[method][PROMPT].flops_by_tag["attn_score"]
                == 4 * a[method][PROMPT].flops_by_tag["attn_score"]
            )

    def test_filter_layer_scales_linearly_and_only_gemfilter(self):
        """Full layers number r - 1; the filter layer adds its key and last-row query products."""
        a = cost_table(params(r=2))
        b = cost_table(params(r=4))
        gem_a = a["gemfilter"][PROMPT].flops_by_tag
        gem_b = b["gemfilter"][PROMPT].flops_by_tag
        for tag in ("attn_score", "attn_value", "mlp"):
            assert gem_a[tag] > 0 and gem_b[tag] == 3 * gem_a[tag]
        extra = filter_flops(params())
        assert gem_b["proj"] - extra == 3 * (gem_a["proj"] - extra)
        one = cost_table(params(r=1))["gemfilter"][PROMPT].flops_by_tag
        assert one == {**dict.fromkeys(one, 0), "proj": extra}
        assert b["full"][PROMPT].flops_by_tag == a["full"][PROMPT].flops_by_tag
        assert b["snapkv"][PROMPT].flops_by_tag == a["snapkv"][PROMPT].flops_by_tag

    def test_method_ordering_prompt(self):
        p = params(n=4096, k=256, t=32)
        assert p.n >= max(p.config.head_dim, p.k, p.t)  # the regime the ordering claims need
        table = cost_table(p)
        assert table["gemfilter"][PROMPT].matmul_flops < table["full"][PROMPT].matmul_flops
        assert table["full"][PROMPT].matmul_flops == table["snapkv"][PROMPT].matmul_flops
        assert table["full"][PROMPT].flops_by_tag == table["h2o"][PROMPT].flops_by_tag

    def test_method_ordering_generation(self):
        # k <= t: the compressed decoders and the two-pass method both beat full
        p = params(n=8192, k=64, t=256)
        table = cost_table(p)
        snap = table["snapkv"][GENERATION].matmul_flops
        gem = table["gemfilter"][GENERATION].matmul_flops
        full = table["full"][GENERATION].matmul_flops
        assert snap <= gem < full
        # k >= t: the k^2 second pass keeps the two-pass method above snapkv
        p2 = params(n=8192, k=512, t=32)
        table2 = cost_table(p2)
        assert table2["gemfilter"][GENERATION].matmul_flops >= table2["snapkv"][GENERATION].matmul_flops

    def test_t_zero_generation_all_zero(self):
        table = cost_table(params(t=0))
        for method in ("full", "snapkv", "h2o", "gemfilter"):
            cell = table[method][GENERATION]
            assert cell.matmul_flops == 0
            assert cell.kv_bytes_peak == 0
            assert cell.weight_bytes_touched == 0

    def test_invalid_params_rejected(self):
        with pytest.raises(ContractViolation):
            params(r=9, m=8)
        with pytest.raises(ContractViolation):
            params(n=0)
        for name, value in (("t", 1.5), ("n", 4.5), ("n", True), ("k", True), ("r", 1.0)):
            with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
                params(**{name: value})


class TestVerifyCounters:
    def run_all(self, w, n, k, t, r, window=4):
        tokens = np.random.default_rng(42).integers(0, w.config.vocab_size, size=n).tolist()
        return snapshots(
            w, tokens, max_new_tokens=t, select_k=k, filter_layer=r, pool_kernel=3, window=window
        )

    def test_exact_match_small_instance(self):
        w = make_random_model(config(m=3, h=4, hk=2, dh=8), 1)
        n, k, t, r = 48, 12, 7, 2
        measured = self.run_all(w, n, k, t, r)
        predicted = cost_table(CostParams.from_weights(w, n=n, k=k, t=t, r=r))
        report = verify_counters(measured, predicted)
        assert report.ok, report.format_text()

    def test_exact_match_t_zero_and_t_one(self):
        w = make_random_model(config(m=2, h=2, hk=1, dh=8), 2)
        for t in (0, 1):
            measured = self.run_all(w, 32, 8, t, 1)
            predicted = cost_table(CostParams.from_weights(w, n=32, k=8, t=t, r=1))
            report = verify_counters(measured, predicted)
            assert report.ok, report.format_text()

    def test_mismatch_names_the_diverging_term(self):
        w = make_random_model(config(), 3)
        measured = self.run_all(w, 32, 8, 4, 1)
        predicted = cost_table(CostParams.from_weights(w, n=32, k=8, t=4, r=1))
        measured["full"][PROMPT].flops_by_tag["attn_score"] += 2
        report = verify_counters(measured, predicted)
        assert not report.ok
        bad = report.mismatches
        assert len(bad) == 1
        assert (bad[0].method, bad[0].phase, bad[0].term) == ("full", PROMPT, "attn_score")
        assert "attn_score" in report.format_text()
        # A measured term the model does not predict is a mismatch of its own.
        result = run_generation(w, list(range(32)), RunConfig(Strategy.FULL, max_new_tokens=4))
        result.session.count_matmul("other", 1, 1, 1)
        report = verify_counters({"full": result.session.snapshot()}, predicted)
        assert not report.ok
        assert [(e.phase, e.term) for e in report.mismatches] == [(PROMPT, "other")]
        assert "FAIL full/prompt/other" in report.format_text()

    @pytest.mark.parametrize("window", [1, 3, 5])
    def test_snapkv_window_outside_budget_grid(self, window):
        """select_k from the window to n + window + 2: snapkv keeps min(k, n)
        rows, counters exact."""
        w = make_random_model(config(m=2, h=4, hk=2, dh=8), 9)
        for n in (5, 8, 13):
            tokens = np.random.default_rng(n).integers(0, 64, size=n).tolist()
            for k in range(window, n + window + 3):
                for t in (0, 1, 3):
                    rc = RunConfig(
                        Strategy.SNAPKV, max_new_tokens=t, select_k=k, pool_kernel=3,
                        window=window,
                    )
                    measured = run_generation(w, tokens, rc).session.snapshot()
                    table = cost_table(CostParams.from_weights(w, n=n, k=k, t=t, r=1))
                    report = verify_counters({"snapkv": measured}, table)
                    assert report.ok, (n, k, t, report.format_text())
                    rows = min(k, n)
                    assert table["snapkv"][PROMPT].kv_bytes_peak == 2 * 2 * 8 * 4 * (n + 2 * rows)

    @pytest.mark.parametrize("n", [1, 2, 257, 513])
    @pytest.mark.parametrize("r", [1, 3], ids=["r1", "r-m"])
    @pytest.mark.parametrize("h, hk", [(4, 4), (4, 2), (4, 1), (8, 2)])
    def test_filter_layer_charges_n_key_rows_and_one_query_row(self, monkeypatch, h, hk, r, n):
        """The filter layer charges, after the last full layer's attention,
        prefill's chunks of ``wk`` rows, ``n`` in all, then one ``wq`` row,
        and nothing else; the run's counters equal cost_table's."""
        w = make_random_model(config(m=3, h=h, hk=hk, dh=8, max_seq=1024), h + hk)
        charges, count = [], CostSession.count_matmul

        def spy(session, *charge):
            charges.append(charge)
            count(session, *charge)

        monkeypatch.setattr(CostSession, "count_matmul", spy)
        tokens = np.random.default_rng(n).integers(0, w.config.vocab_size, n).tolist()
        rc = RunConfig(Strategy.GEMFILTER, max_new_tokens=0, select_k=4, filter_layer=r)
        session = run_generation(w, tokens, rc).session
        after = max((i + 1 for i, c in enumerate(charges) if c[0] == "attn_value"), default=0)
        *keys, query = charges[after:]
        d, kv = w.config.d_model, hk * w.config.head_dim
        assert all(charge[0] == "proj" and charge[2:] == (d, kv) for charge in keys), keys
        assert sum(rows for _, rows, _, _ in keys) == n
        assert query == ("proj", 1, d, d)
        table = cost_table(CostParams.from_weights(w, n=n, k=4, t=0, r=r))
        report = verify_counters({"gemfilter": session.snapshot()}, table)
        assert report.ok, report.format_text()

    def test_filter_pass_weight_bytes_exactly_r_layers(self):
        w = make_random_model(config(m=4), 4)
        measured = self.run_all(w, 40, 10, 3, 3)
        gem_prompt = measured["gemfilter"][PROMPT]
        assert gem_prompt.weight_bytes_touched == 3 * w.per_layer_bytes

    def test_standard_prompt_kv_bytes_closed_form(self):
        w = make_random_model(config(m=3, h=2, hk=2, dh=8), 5)
        n = 40
        measured = self.run_all(w, n, 10, 2, 1)
        cfg = w.config
        expected = 2 * cfg.n_layers * cfg.n_kv_heads * n * cfg.head_dim * 4
        assert measured["full"][PROMPT].kv_bytes_peak == expected

    def test_wall_times_reported_not_asserted(self):
        w = make_random_model(config(), 6)
        measured = self.run_all(w, 32, 8, 3, 1)
        predicted = cost_table(CostParams.from_weights(w, n=32, k=8, t=3, r=1))
        report = verify_counters(measured, predicted)
        assert set(report.wall_times) == {"full", "snapkv", "h2o", "gemfilter"}
        assert "reported only" in report.format_text()


class TestSessionIsolation:
    def test_concurrent_sessions_count_independently(self):
        """Sessions are per-run state; parallel runs never share counters."""
        import threading

        w = make_random_model(config(m=2, h=2, hk=2, dh=8), 7)
        results = {}

        def worker(name, n):
            session = CostSession()
            with session.activate():
                prefill(list(range(n)), w)
            results[name] = session.phase_cost(PROMPT).flops_by_tag["attn_score"]

        threads = [
            threading.Thread(target=worker, args=("a", 8)),
            threading.Thread(target=worker, args=("b", 16)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        cfg = w.config
        unit = cfg.n_layers * cfg.n_heads * 2 * cfg.head_dim
        assert results["a"] == unit * 8 * 8
        assert results["b"] == unit * 16 * 16


class TestFormatting:
    def test_table_text_contains_ratio(self):
        p = params(n=2048, k=256, t=16, r=13, m=32)
        table = cost_table(p)
        text = format_cost_table(p, table)
        assert "2.46" in text
        ratio = table["full"][PROMPT].matmul_flops / table["gemfilter"][PROMPT].matmul_flops
        assert ratio > 32 / 13
        line = f"prompt flops ratio full/gemfilter = {ratio:.2f} (lower bound: layer ratio 32/13"
        assert any(row.startswith(line) for row in text.splitlines())
        assert "full" in text and "gemfilter" in text
