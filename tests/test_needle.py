"""Needle harness tests: prompt construction, diagnostics, reporting."""

from dataclasses import replace

import numpy as np
import pytest

from gemfilter import needle, runner, selection
from gemfilter.errors import ConfigurationError, ContractViolation
from gemfilter.runner import RunConfig, Strategy
from gemfilter.needle import (
    NeedleSpec,
    build_needle_prompt,
    coverage_and_distance,
    needle_run,
)
from gemfilter.testmodels import make_random_model
from gemfilter.tokenizer import VOCAB_SIZE
from helpers import config, copy_weights


class TestPromptConstruction:
    def test_needle_lands_at_mapped_depth(self):
        spec = NeedleSpec(haystack_len=100, depth_percent=50, needle=(98, 98, 98, 98), query_token=98)
        prompt, span = build_needle_prompt(spec, VOCAB_SIZE)
        assert len(prompt) == 101  # haystack plus the query token
        assert span == (48, 52)  # floor(50/100 * (100 - 4))
        assert prompt[48:52] == [98] * 4
        assert prompt[-1] == 98

    def test_depth_extremes(self):
        for depth, start in ((0, 0), (100, 96)):
            spec = NeedleSpec(haystack_len=100, depth_percent=depth, needle=(98,) * 4, query_token=98)
            _, span = build_needle_prompt(spec, VOCAB_SIZE)
            assert span[0] == start

    def test_filler_avoids_needle_alphabet(self):
        spec = NeedleSpec(haystack_len=64, depth_percent=25, needle=(98, 99), query_token=100, seed=5)
        prompt, span = build_needle_prompt(spec, VOCAB_SIZE)
        outside = [t for i, t in enumerate(prompt[:-1]) if not span[0] <= i < span[1]]
        assert 98 not in outside and 99 not in outside and 100 not in outside

    def test_needle_must_fit(self):
        with pytest.raises(ContractViolation):
            NeedleSpec(haystack_len=3, depth_percent=0, needle=(1, 2, 3, 4), query_token=1)

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("seed", -1, ContractViolation),
            ("seed", 1.5, ConfigurationError),
            ("haystack_len", 20.5, ConfigurationError),
            ("haystack_len", True, ConfigurationError),
            ("query_token", True, ConfigurationError),
            ("depth_percent", True, ConfigurationError),
            ("needle", (True, True), ConfigurationError),
            ("needle", (3, 3.0), ConfigurationError),
            ("needle", [3, 3], ConfigurationError),
            ("needle", 3, ConfigurationError),
        ],
        ids=[
            "negative-seed", "float-seed", "float-haystack_len", "bool-haystack_len",
            "bool-query_token", "bool-depth_percent", "bool-needle", "float-needle",
            "list-needle", "int-needle",
        ],
    )
    def test_fields_are_checked(self, field, value, error):
        good = dict(haystack_len=20, depth_percent=50.0, needle=(3, 3), query_token=4, seed=0)
        with pytest.raises(error, match=field):
            NeedleSpec(**{**good, field: value})

    def test_depth_bounds(self):
        with pytest.raises(ContractViolation):
            NeedleSpec(haystack_len=10, depth_percent=101, needle=(1,), query_token=1)


class TestCoverageMetric:
    def test_overlap_gives_distance_zero(self):
        cov, dist = coverage_and_distance(np.asarray([3, 4, 5]), (4, 8))
        assert cov == pytest.approx(0.5)
        assert dist == 0

    def test_full_coverage(self):
        cov, dist = coverage_and_distance(np.asarray([4, 5, 6, 7]), (4, 8))
        assert cov == 1.0 and dist == 0

    def test_disjoint_distance(self):
        cov, dist = coverage_and_distance(np.asarray([0, 1, 20]), (4, 8))
        assert cov == 0.0
        assert dist == 3  # 4 - 1

    def test_distance_from_above(self):
        cov, dist = coverage_and_distance(np.asarray([12]), (4, 8))
        assert dist == 12 - 7

    def test_matches_a_brute_force_distance(self):
        """The distance is the least ``|i - j|`` over kept ``i`` and span positions ``j``."""
        rng = np.random.default_rng(0)
        for _ in range(500):
            n = int(rng.integers(1, 120))
            length = int(rng.integers(1, min(n, 20) + 1))
            start = int(rng.integers(0, n - length + 1))
            indices = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            cov, dist = coverage_and_distance(indices, (start, start + length))
            span = np.arange(start, start + length)
            assert dist == np.abs(indices[:, None] - span[None, :]).min()
            assert type(dist) is int
            assert cov == np.isin(span, indices).mean()

    def test_empty_index_set_rejected(self):
        with pytest.raises(ContractViolation, match="at least one index"):
            coverage_and_distance(np.asarray([], dtype=np.int64), (4, 8))


class TestNeedleRun:
    def test_copy_model_layer_one_hits(self):
        w = copy_weights()
        spec = NeedleSpec(haystack_len=256, depth_percent=50, needle=(98,) * 8, query_token=98, seed=1)
        rc = RunConfig(Strategy.GEMFILTER, select_k=64, max_new_tokens=4)
        report = needle_run(spec, w, [1], rc)
        lr = report.layer_results[0]
        assert lr.coverage == 1.0
        assert lr.min_distance == 0
        assert report.generation_match is True

    def test_k_equals_prompt_full_coverage_every_layer(self):
        w = copy_weights()
        spec = NeedleSpec(haystack_len=64, depth_percent=75, needle=(98,) * 4, query_token=98, seed=2)
        rc = RunConfig(Strategy.GEMFILTER, select_k=65, max_new_tokens=0)
        report = needle_run(spec, w, [1, 2], rc)
        assert all(lr.coverage == 1.0 for lr in report.layer_results)

    def test_layer_sweep_reports_each_layer(self):
        w = copy_weights()
        spec = NeedleSpec(haystack_len=128, depth_percent=25, needle=(98,) * 4, query_token=98, seed=3)
        rc = RunConfig(Strategy.GEMFILTER, select_k=32, max_new_tokens=4)
        report = needle_run(spec, w, [1, 2], rc)
        assert [lr.layer for lr in report.layer_results] == [1, 2]
        assert report.generation_match is None  # only computed for a single layer

    def test_random_model_reports_without_quality_assertions(self):
        w = make_random_model(config(vocab=VOCAB_SIZE, max_seq=512), 9)
        spec = NeedleSpec(haystack_len=96, depth_percent=40, needle=(98,) * 4, query_token=98, seed=4)
        rc = RunConfig(Strategy.GEMFILTER, select_k=16, max_new_tokens=2)
        report = needle_run(spec, w, [1, 2], rc)
        for lr in report.layer_results:
            assert 0.0 <= lr.coverage <= 1.0
            assert lr.min_distance >= 0

    def test_report_dict_shape(self):
        w = copy_weights()
        spec = NeedleSpec(haystack_len=64, depth_percent=0, needle=(98,) * 4, query_token=98)
        rc = RunConfig(Strategy.GEMFILTER, select_k=16, max_new_tokens=2)
        doc = needle_run(spec, w, [1], rc).to_dict()
        assert doc["haystack_len"] == 64
        assert {name: doc[name] for name in rc.settings()} == rc.settings()
        assert "metric_note" in doc and "coverage" in doc["layers"][0]

    def test_report_names_the_settings_its_runs_used(self):
        """A sweep's report names its first layer and the 0 tokens its runs generated."""
        w = copy_weights()
        spec = NeedleSpec(haystack_len=64, depth_percent=0, needle=(98,) * 4, query_token=98)
        rc = RunConfig(Strategy.FULL, select_k=16, max_new_tokens=2, filter_layer=2)
        report = needle_run(spec, w, [2, 1], rc)
        assert report.rc == replace(rc, strategy=Strategy.GEMFILTER, max_new_tokens=0)
        assert report.to_dict()["filter_layer"] == 2

    def test_reports_at_two_pool_kernels_differ(self):
        w = copy_weights()
        spec = NeedleSpec(haystack_len=64, depth_percent=30, needle=(98,) * 4, query_token=98)
        three, five = (
            needle_run(spec, w, [1], RunConfig(Strategy.GEMFILTER, select_k=8, pool_kernel=p))
            .to_dict()
            for p in (3, 5)
        )
        assert (three["pool_kernel"], five["pool_kernel"]) == (3, 5)
        assert three != five

    @pytest.mark.parametrize("r_list, t_max", [([1], 4), ([1, 2], 4), ([1], 0)])
    def test_each_filter_pass_runs_once(self, monkeypatch, r_list, t_max):
        layers = []

        def spy(weights, tokens, rc):
            layers.append(rc.filter_layer)
            return selection.select_indices(weights, tokens, rc)

        monkeypatch.setattr(runner, "select_indices", spy)
        monkeypatch.setattr(needle, "select_indices", spy, raising=False)
        spec = NeedleSpec(haystack_len=64, depth_percent=50, needle=(98,) * 4, query_token=98)
        rc = RunConfig(Strategy.GEMFILTER, select_k=16, max_new_tokens=t_max)
        report = needle_run(spec, copy_weights(), r_list, rc)
        assert layers == r_list
        assert [lr.coverage for lr in report.layer_results] == [1.0] * len(r_list)

    @pytest.mark.parametrize("r_list", [[1.7], [True], [1, 1.7]])
    def test_layers_are_not_coerced(self, monkeypatch, r_list):
        """A layer that is not an integer is refused before any layer runs."""
        layers = []
        monkeypatch.setattr(runner, "select_indices", lambda *args: layers.append(args))
        spec = NeedleSpec(haystack_len=64, depth_percent=50, needle=(98,) * 4, query_token=98)
        rc = RunConfig(Strategy.GEMFILTER, select_k=16, max_new_tokens=0)
        with pytest.raises(ConfigurationError, match="filter_layer must be an integer"):
            needle_run(spec, copy_weights(), r_list, rc)
        assert layers == []

    @pytest.mark.parametrize("t_max", [0, 4])
    def test_every_layer_checked_before_any_filter_pass(self, monkeypatch, t_max):
        """A layer past the model, last in the list, is refused before the first runs."""
        layers = []
        monkeypatch.setattr(runner, "select_indices", lambda *args: layers.append(args))
        spec = NeedleSpec(haystack_len=64, depth_percent=50, needle=(98,) * 4, query_token=98)
        rc = RunConfig(Strategy.GEMFILTER, select_k=16, max_new_tokens=t_max)
        with pytest.raises(ContractViolation, match="filter layer 5 outside 1..2"):
            needle_run(spec, copy_weights(), [1, 2, 5], rc)
        with pytest.raises(ContractViolation, match="filter layer 5 outside 1..2"):
            needle_run(spec, copy_weights(), [5], rc)
        assert layers == []
