"""Malformed input and non-finite numerics end in a named EngineError.

Each case is checked at the API that first sees the input and through the
CLI, which must exit with code 1 and name the error on stderr.
"""

import argparse
import json
import pickle
import struct
import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from gemfilter.cli import DEFAULT_CONFIG, _load_prompt, main
from gemfilter.config import ModelConfig
from gemfilter.costmodel import CostParams
from gemfilter.counting import CostSession
from gemfilter.errors import ConfigurationError, ContractViolation, ModelFormatError
from gemfilter.kernels import argmax, pool_1d, topk_indices
from gemfilter.model import F32, LayerKV, decode_step, greedy_decode, prefill
from gemfilter.modelio import MAGIC, load_model, save_model
from gemfilter.needle import NeedleSpec, needle_run
from gemfilter.runner import RunConfig, Strategy, metrics_document, run_generation
from gemfilter.selection import select_indices
from gemfilter.testmodels import copy_model_config, make_copy_model, make_random_model
from helpers import config, copy_weights


# bench's required run settings, each by its one flag.
RUN_SETTINGS = ["--select-k", "4", "--max-new-tokens", "1", "--filter-layer", "1"]


TINY = config(m=2, h=2, hk=1, dh=4, vocab=260, hidden=8, max_seq=64)


def nan_model():
    weights = make_random_model(TINY, 0)
    weights.layers[0].wq[0, 0] = np.nan
    return weights


def generate_exit_code(model_path, *extra):
    return main(["generate", "--model", str(model_path), *extra])


# ------------------------------------------------------------- non-finite


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kernels_reject_non_finite(bad):
    v = np.asarray([1.0, bad, 0.5])
    with pytest.raises(ContractViolation, match="not finite"):
        topk_indices(v, 2)
    with pytest.raises(ContractViolation, match="not finite"):
        argmax(v)


def test_nan_weights_fail_selection_on_copy_model():
    weights = copy_weights()
    weights.layers[0].wq[0, 0] = np.nan
    with pytest.raises(ContractViolation, match="not finite"):
        select_indices(weights, list(range(40)), RunConfig(Strategy.GEMFILTER, select_k=5))


@pytest.mark.parametrize("strategy", list(Strategy))
def test_nan_weights_fail_every_strategy(strategy):
    rc = RunConfig(
        strategy=strategy, max_new_tokens=3, select_k=4,
        window=2, pool_kernel=3,
    )
    with pytest.raises(ContractViolation, match="not finite"):
        run_generation(nan_model(), list(range(10)), rc)


def test_nan_weights_cli_exit_one(tmp_path, capsys):
    path = tmp_path / "nan.gfm"
    save_model(path, nan_model())
    assert generate_exit_code(path, "--prompt-text", "hello world") == 1
    assert "ContractViolation" in capsys.readouterr().err


# ------------------------------------------------------------- model files


def _header(cfg: ModelConfig) -> bytes:
    header = json.dumps(cfg.to_dict(), sort_keys=True).encode("utf-8")
    return MAGIC + struct.pack("<I", len(header)) + header


def _model_bytes(weights) -> bytes:
    """The bytes ``save_model`` writes for ``weights``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.gfm"
        save_model(path, weights)
        return path.read_bytes()


def _bad_name() -> bytes:
    weights = make_random_model(TINY, 1)
    data = bytearray(_model_bytes(weights))
    (header_len,) = struct.unpack("<I", data[4:8])
    data[8 + header_len + 4] = 0xFF  # first byte of the first tensor name
    return bytes(data)


def _json_header(text: bytes) -> bytes:
    return MAGIC + struct.pack("<I", len(text)) + text


def _huge_dims() -> bytes:
    name = b"tok_emb"
    return (
        _header(TINY)
        + struct.pack("<I", len(name)) + name
        + struct.pack("<BB", 1, 2) + struct.pack("<2I", 2**31, 2**30)
    )


@pytest.mark.parametrize(
    "payload, message",
    [
        (_bad_name(), "not valid UTF-8"),
        (_json_header(b"1"), "JSON object"),
        (_json_header(b"null"), "JSON object"),
        (_huge_dims(), "truncated"),
        (
            _json_header(json.dumps({**TINY.to_dict(), "n_layers": 2.5}).encode()),
            "invalid config header",
        ),
    ],
    ids=["name-0xff", "header-1", "header-null", "dims-2^31x2^30", "header-n_layers-2.5"],
)
def test_malformed_model_file(tmp_path, capsys, payload, message):
    path = tmp_path / "bad.gfm"
    path.write_bytes(payload)
    with pytest.raises(ModelFormatError, match=message):
        load_model(path)
    assert generate_exit_code(path, "--prompt-text", "x") == 1
    assert "ModelFormatError" in capsys.readouterr().err


def test_missing_model_file_exit_one(tmp_path, capsys):
    assert generate_exit_code(tmp_path / "absent.gfm", "--prompt-text", "x") == 1
    assert "ModelFormatError" in capsys.readouterr().err


def test_tensor_rank_outside_one_or_two_rejected(tmp_path):
    name = b"tok_emb"
    path = tmp_path / "rank.gfm"
    for rank in (0, 3, 66):
        path.write_bytes(
            _header(TINY)
            + struct.pack("<I", len(name)) + name
            + struct.pack("<BB", 1, rank) + struct.pack(f"<{rank}I", *[1] * rank)
        )
        with pytest.raises(ModelFormatError, match=f"tensor tok_emb has rank {rank}"):
            load_model(path)


def test_gfm1_fuzz_truncation_and_bit_flips(tmp_path):
    """Every cut and every flipped bit of a tiny model loads or raises ModelFormatError."""
    cfg = config(m=1, h=1, hk=1, dh=2, vocab=2, hidden=1, max_seq=8)
    good = _model_bytes(make_random_model(cfg, 0))
    variants = [good[:cut] for cut in range(len(good))]
    for i in range(len(good)):
        for mask in (*(1 << bit for bit in range(8)), 0xFF):
            data = bytearray(good)
            data[i] ^= mask
            variants.append(bytes(data))
    path = tmp_path / "fuzz.gfm"
    for data in variants:
        path.write_bytes(data)
        try:
            load_model(path)
        except ModelFormatError:
            pass


# ------------------------------------------------------------- prompt files


@pytest.mark.parametrize(
    "text",
    ["{not json", '[1, "x"]', "[1e400]", "[1, 2.5]", "[true]", "[-1]", "[99999999999999999999999]"],
)
def test_malformed_prompt_tokens_exit_one(tmp_path, capsys, text):
    model = tmp_path / "m.gfm"
    save_model(model, make_random_model(TINY, 2))
    prompt = tmp_path / "prompt.json"
    prompt.write_text(text, encoding="utf-8")
    assert generate_exit_code(model, "--prompt-tokens", str(prompt)) == 1
    assert "ContractViolation" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["{bad", "[1, 2]"])
def test_malformed_config_file_exit_one(tmp_path, capsys, text):
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    assert main(["make-model", "--out", str(tmp_path / "m.gfm"), "--config", str(config)]) == 1
    assert "ContractViolation" in capsys.readouterr().err


CONFIG_FIELD_TYPES = {
    "n_layers-2.5": ('{"n_layers": 2.5}', "n_layers must be an integer"),
    "n_layers-true": ('{"n_layers": true}', "n_layers must be an integer"),
    "head_dim-string": ('{"head_dim": "16"}', "head_dim must be an integer"),
    "norm_eps-NaN": ('{"norm_eps": NaN}', "norm_eps must be a finite number"),
    "rope_theta-Infinity": ('{"rope_theta": Infinity}', "rope_theta must be a finite number"),
    "use_rope-1": ('{"use_rope": 1}', "use_rope must be true or false"),
    # A d_model the file names stays, and must fit the file's head layout.
    "d_model-100": ('{"n_heads": 4, "head_dim": 16, "d_model": 100}', "d_model"),
    # d_model is derived from integers only: "4" * 2.5 is not attempted.
    "n_heads-string": ('{"n_heads": "4", "head_dim": 2.5}', "n_heads must be an integer"),
}


@pytest.mark.parametrize("text, message", CONFIG_FIELD_TYPES.values(), ids=CONFIG_FIELD_TYPES)
def test_mistyped_or_non_finite_config_field_rejected(tmp_path, capsys, text, message):
    with pytest.raises(ConfigurationError, match=message):
        ModelConfig.from_dict({**TINY.to_dict(), **json.loads(text)})
    config, model = tmp_path / "config.json", tmp_path / "m.gfm"
    config.write_text(text, encoding="utf-8")
    assert main(["make-model", "--out", str(model), "--config", str(config)]) == 1
    assert f"error (ConfigurationError): {message}" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("theta", ["nan", "inf"])
def test_non_finite_rope_theta_flag_rejected(tmp_path, capsys, theta):
    model = tmp_path / "m.gfm"
    assert main(["make-model", "--out", str(model), "--rope-theta", theta]) == 1
    assert "ConfigurationError): rope_theta must be a finite number" in capsys.readouterr().err
    assert not model.exists()


# ------------------------------------------------------------- lengths


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--prompt-random", "-1"],
        ["generate", "--prompt-random", "3000000000"],
        ["needle", "--haystack-len", "3000000000"],
        ["bench", "--n", "-3", *RUN_SETTINGS],
        ["bench", "--n", "3000000000", *RUN_SETTINGS],
    ],
    ids=["generate-neg", "generate-3e9", "needle-3e9", "bench-neg", "bench-3e9"],
)
def test_prompt_length_outside_max_seq_exit_one(tmp_path, capsys, argv):
    """Rejected before the prompt is allocated: a 3e9-token prompt is 22 GiB."""
    model = tmp_path / "m.gfm"
    save_model(model, make_random_model(TINY, 3))
    assert main([argv[0], "--model", str(model), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert "ContractViolation" in err and "prompt length" in err


def short_model():
    """max_seq 256: a 200-token prompt leaves room for 57 new tokens."""
    return make_random_model(replace(TINY, max_seq=256), 3)


@pytest.mark.parametrize("strategy", ["full", "snapkv", "h2o"])
def test_decode_overrun_exit_one(tmp_path, capsys, strategy):
    model = tmp_path / "m.gfm"
    save_model(model, short_model())
    argv = ["--prompt-random", "200", "--max-new-tokens", "100", "--strategy", strategy]
    assert generate_exit_code(model, *argv) == 1
    err = capsys.readouterr().err
    assert "ContractViolation" in err
    assert "kept prompt length 200 + max_new_tokens 100 - 1 exceeds max_seq 256" in err


def test_gemfilter_decode_restarts_at_zero(tmp_path):
    model = tmp_path / "m.gfm"
    save_model(model, short_model())
    argv = ["--prompt-random", "200", "--max-new-tokens", "100", "--strategy", "gemfilter"]
    assert generate_exit_code(model, *argv, "--select-k", "16") == 0


@pytest.mark.parametrize("strategy", list(Strategy))
def test_decode_overrun_boundary_charges_nothing(monkeypatch, strategy):
    weights, tokens = short_model(), list(range(200))
    kept = 40 if strategy is Strategy.GEMFILTER else 200
    fits = RunConfig(strategy, max_new_tokens=256 - kept + 1, select_k=40)
    assert len(run_generation(weights, tokens, fits).output_tokens) == fits.max_new_tokens
    calls = []
    # Every charge, the attention kernel's included, passes through the session.
    monkeypatch.setattr(CostSession, "count_matmul", lambda self, *args: calls.append(args))
    over = replace(fits, max_new_tokens=fits.max_new_tokens + 1)
    with pytest.raises(ContractViolation, match=f"kept prompt length {kept} "):
        run_generation(weights, tokens, over)
    assert calls == []


HUGE_KERNEL = 99999999999
# An odd kernel above the largest float: no float divisor can hold it.
OVERFLOW_KERNEL = 10**309 + 1


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_pool_window_wider_than_the_vector_covers_all_of_it(n):
    """Padding stops at n - 1 per side, so memory stays O(n) for any kernel."""
    v = np.random.default_rng(n).standard_normal(n)
    for kernel in (2 * n - 1, 2 * n + 1, HUGE_KERNEL):
        np.testing.assert_allclose(pool_1d(v, kernel), v.sum() / kernel, rtol=1e-12)


POOLING_ARGV = pytest.mark.parametrize(
    "argv",
    [
        ["select", "--prompt-random", "20", "--select-k", "4"],
        ["needle", "--haystack-len", "20", "--select-k", "4", "--max-new-tokens", "2"],
        ["generate", "--strategy", "snapkv", "--prompt-random", "20", "--select-k", "8",
         "--window", "2", "--max-new-tokens", "2"],
    ],
    ids=["select", "needle", "generate-snapkv"],
)


@POOLING_ARGV
def test_huge_pool_kernel_runs_through_cli(tmp_path, capsys, argv):
    model = tmp_path / "m.gfm"
    save_model(model, make_random_model(TINY, 3))
    flags = [*argv[1:], "--pool-kernel", str(HUGE_KERNEL)]
    assert main([argv[0], "--model", str(model), *flags]) == 0
    assert capsys.readouterr().err == ""


@POOLING_ARGV
def test_pool_kernel_above_the_largest_float_is_named(tmp_path, capsys, argv):
    model = tmp_path / "m.gfm"
    save_model(model, make_random_model(TINY, 3))
    flags = [*argv[1:], "--pool-kernel", str(OVERFLOW_KERNEL)]
    assert main([argv[0], "--model", str(model), *flags]) == 1
    err = capsys.readouterr().err
    assert "ContractViolation" in err and "pool kernel" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "pool", [dict(pool_kernel=4), dict(pool_kernel=0)], ids=["kernel-4", "kernel-0"]
)
def test_bad_pooling_rejected_before_the_filter_pass(tmp_path, capsys, monkeypatch, pool):
    weights, tokens = make_random_model(TINY, 3), list(range(10))
    model = tmp_path / "m.gfm"
    save_model(model, weights)
    calls = []
    monkeypatch.setattr(CostSession, "count_matmul", lambda self, *args: calls.append(args))
    with CostSession().activate(), pytest.raises(ContractViolation, match="pool"):
        select_indices(weights, tokens, RunConfig(Strategy.GEMFILTER, select_k=4, **pool))
    with pytest.raises(ContractViolation, match="pool"):
        run_generation(weights, tokens, RunConfig(Strategy.GEMFILTER, select_k=4, **pool))
    argv = ["--prompt-random", "10", "--pool-kernel", str(pool["pool_kernel"])]
    assert main(["select", "--model", str(model), *argv]) == 1
    assert "ContractViolation" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize(
    "pool", [dict(pool_kernel=4), dict(pool_kernel=0)], ids=["kernel-4", "kernel-0"]
)
def test_bad_pooling_is_one_error_class_for_every_strategy(tmp_path, capsys, pool):
    for strategy in Strategy:
        with pytest.raises(ContractViolation, match="pool"):
            RunConfig(strategy, **pool)
    model = tmp_path / "m.gfm"
    save_model(model, make_random_model(TINY, 3))
    flags = ["--model", str(model), "--prompt-random", "10"]
    flags += ["--pool-kernel", str(pool["pool_kernel"])]
    for argv in (["generate", "--strategy", "full"], ["generate", "--strategy", "snapkv"],
                 ["select"]):
        assert main([*argv, *flags]) == 1, argv
        assert "ContractViolation" in capsys.readouterr().err, argv


@pytest.mark.parametrize(
    "field, flag",
    [("select_k", "--select-k"), ("filter_layer", "--filter-layer")],
    ids=["select-k", "filter-layer"],
)
@pytest.mark.parametrize("value", [0, -1])
def test_budget_and_filter_layer_below_one_are_one_error_class(
    tmp_path, capsys, field, flag, value
):
    for strategy in Strategy:
        with pytest.raises(ContractViolation, match=">= 1"):
            RunConfig(strategy, **{field: value})
    model = tmp_path / "m.gfm"
    save_model(model, make_random_model(TINY, 3))
    for strategy in Strategy:
        argv = ["--strategy", strategy.value, "--prompt-random", "20", flag, str(value)]
        assert generate_exit_code(model, *argv) == 1, strategy
        captured = capsys.readouterr()
        assert "ContractViolation" in captured.err and captured.out == "", strategy


# RunConfig's settings besides the strategy, all ints.
RUN_INT_FIELDS = [f.name for f in fields(RunConfig) if f.type == "int"]


@pytest.mark.parametrize("field", sorted(RUN_INT_FIELDS))
def test_run_config_rejects_a_value_of_the_wrong_type(field):
    """A float, string or None ends in no TypeError, and a bool is not an int."""
    default = getattr(RunConfig(Strategy.FULL), field)
    for value in (float(default), str(default), None, True):
        with pytest.raises(ConfigurationError, match=f"{field} must be"):
            RunConfig(Strategy.SNAPKV, **{field: value})


@pytest.mark.parametrize("strategy", [Strategy.SNAPKV, Strategy.H2O], ids=["snapkv", "h2o"])
def test_budget_below_its_window_rejected_before_any_layer_runs(monkeypatch, strategy):
    weights, tokens = make_random_model(TINY, 3), list(range(40))
    calls = []
    monkeypatch.setattr(CostSession, "count_matmul", lambda self, *args: calls.append(args))
    with pytest.raises(ConfigurationError, match="budget k=8 smaller than"):
        run_generation(weights, tokens, RunConfig(strategy, select_k=8, window=16))
    assert calls == []


@pytest.mark.parametrize("strategy", list(Strategy))
def test_max_seq_far_beyond_the_run_costs_nothing(strategy):
    """A model may claim a max_seq it never reaches; the rotary table only covers what runs."""
    weights = make_random_model(replace(TINY, max_seq=2**62), 3)
    rc = RunConfig(
        strategy, max_new_tokens=3, select_k=4,
        window=2, pool_kernel=3,
    )
    assert len(run_generation(weights, list(range(10)), rc).output_tokens) == 3


def test_max_seq_far_beyond_the_run_through_cli(tmp_path):
    model = tmp_path / "m.gfm"
    argv = ["--out", str(model), "--layers", "2", "--heads", "2", "--kv-heads", "1",
            "--head-dim", "4", "--hidden-mlp", "8", "--max-seq", str(2**62)]
    assert main(["make-model", *argv]) == 0
    assert generate_exit_code(model, "--prompt-random", "10", "--max-new-tokens", "3") == 0


def test_bench_checks_cost_params_before_any_run(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("gemfilter.cli.run_generation", lambda *args: calls.append(args))
    model = tmp_path / "m.gfm"
    save_model(model, make_random_model(TINY, 3))
    argv = [
        "bench", "--model", str(model), "--n", "8",
        "--select-k", "4", "--max-new-tokens", "1", "--filter-layer", "99",
    ]
    assert main(argv) == 1
    assert calls == []
    assert "filter layer 99 outside 1..2" in capsys.readouterr().err


def test_needle_negative_t_max_rejected(tmp_path, capsys):
    weights = make_random_model(TINY, 3)
    spec = NeedleSpec(haystack_len=40, depth_percent=50.0, needle=(98,) * 4, query_token=98)
    with pytest.raises(ContractViolation, match="max_new_tokens must be >= 0"):
        needle_run(spec, weights, [1], RunConfig(Strategy.GEMFILTER, select_k=8, max_new_tokens=-1))
    model = tmp_path / "m.gfm"
    save_model(model, weights)
    argv = ["needle", "--model", str(model), "--haystack-len", "40", "--max-new-tokens", "-1"]
    assert main(argv) == 1
    assert "max_new_tokens must be >= 0" in capsys.readouterr().err


def test_needle_decode_overrun_rejected_before_any_run(monkeypatch):
    weights = make_copy_model(copy_model_config(max_seq=64))
    spec = NeedleSpec(haystack_len=60, depth_percent=50.0, needle=(98,) * 4, query_token=98)
    # 61 prompt tokens + 4 new - 1 = 64 positions: fits exactly.
    rc = RunConfig(Strategy.GEMFILTER, select_k=16, max_new_tokens=4)
    assert needle_run(spec, weights, [1], rc).generation_match is not None
    calls = []
    monkeypatch.setattr("gemfilter.needle.run_generation", lambda *args: calls.append(args))
    with pytest.raises(
        ContractViolation,
        match=r"kept prompt length 61 \+ max_new_tokens 10 - 1 exceeds max_seq 64",
    ):
        needle_run(spec, weights, [1], replace(rc, max_new_tokens=10))
    assert calls == []


# ------------------------------------------------------------- the integer rule

PROMPT = [1, 2, 3, 4, 5, 6, 7, 8]


def _no_setup(value_of):
    """An entry point whose setup needs nothing: each value is called as it is."""
    return lambda tmp_path: value_of


def _decode(tmp_path):
    weights = make_random_model(TINY, 3)
    caches = prefill(PROMPT, weights).caches
    return lambda token: decode_step(token, caches, weights)


def _greedy(tmp_path):
    weights = make_random_model(TINY, 3)
    caches = prefill(PROMPT, weights).caches
    return lambda steps: greedy_decode(weights, caches, 5, steps)


def _prefill(keyword):
    def make(tmp_path):
        weights = make_random_model(TINY, 3)
        return lambda value: prefill(PROMPT, weights, **{keyword: value})

    return make


def _reserve(tmp_path):
    cache = LayerKV.empty(1, 4, 2)

    def reserve(rows):
        cache.reserve(rows)
        return cache

    return reserve


def _needle(field):
    def make(tmp_path):
        weights = copy_weights()
        rc = RunConfig(Strategy.GEMFILTER, select_k=4, max_new_tokens=2)

        def run(value):
            spec = dict(haystack_len=20, depth_percent=50.0, needle=(98, 98), query_token=98)
            spec[field] = (98, value) if field == "needle" else value
            return needle_run(NeedleSpec(**spec), weights, [1], rc).to_dict()

        return run

    return make


def _prompt_tokens(tmp_path):
    def load(value):
        path = tmp_path / "prompt.json"
        path.write_text(json.dumps([3, value], default=lambda v: v.item()), encoding="utf-8")
        return _load_prompt(argparse.Namespace(prompt_text=None, prompt_tokens=path), TINY)

    return load


def _empty_cache(position):
    part = np.zeros((1, 0, 4), dtype=F32)
    return LayerKV(keys=part, values=part.copy(), next_position=position)


# Every scalar integer an entry point takes: (setup returning the call, an accepted value).
INTEGER_ARGS = {
    "ModelConfig.n_layers": (_no_setup(lambda v: replace(TINY, n_layers=v)), 2),
    "RunConfig.select_k": (_no_setup(lambda v: RunConfig(Strategy.SNAPKV, select_k=v)), 4),
    "CostParams.k": (_no_setup(lambda v: CostParams(TINY, n=8, k=v, t=1, r=1)), 4),
    "NeedleSpec.haystack_len": (_needle("haystack_len"), 20),
    "NeedleSpec.needle": (_needle("needle"), 97),
    "LayerKV.next_position": (_no_setup(_empty_cache), 3),
    "LayerKV.reserve": (_reserve, 3),
    "LayerKV.empty": (_no_setup(lambda v: LayerKV.empty(1, 4, v)), 3),
    "decode_step.token": (_decode, 5),
    "greedy_decode.steps": (_greedy, 2),
    "prefill.upto_layer": (_prefill("upto_layer"), 1),
    "prefill.score_rows": (_prefill("score_rows"), 2),
    "pool_1d.kernel": (_no_setup(lambda v: pool_1d(np.arange(8.0), v)), 3),
    "topk_indices.k": (_no_setup(lambda v: topk_indices(np.arange(8.0), v)), 3),
    "make_random_model.seed": (_no_setup(lambda v: make_random_model(TINY, v)), 3),
    "--prompt-tokens entry": (_prompt_tokens, 5),
}
NOT_INTEGERS = {
    "1.7": 1.7, "True": True, "np.True_": np.True_, "str-1": "1", "-1": -1, "None": None,
}
BAD_INTEGER_CASES = [
    pytest.param(entry, value, id=f"{entry}-{name}")
    for entry in INTEGER_ARGS
    for name, value in NOT_INTEGERS.items()
    if not (value is None and entry == "prefill.upto_layer")  # None is every layer
]


@pytest.mark.parametrize("entry, value", BAD_INTEGER_CASES)
def test_a_value_that_is_not_an_integer_is_refused_before_any_work(
    monkeypatch, tmp_path, entry, value
):
    """No integer argument is coerced: 1.7, a bool, a string or None is refused,
    as is -1, by a named error before any layer runs or any counter moves."""
    call = INTEGER_ARGS[entry][0](tmp_path)
    calls = []
    monkeypatch.setattr(CostSession, "count_matmul", lambda self, *args: calls.append(args))
    with CostSession().activate(), pytest.raises((ConfigurationError, ContractViolation)):
        call(value)
    assert calls == []


@pytest.mark.parametrize("np_int", [np.int32, np.int64])
@pytest.mark.parametrize("entry", [e for e in INTEGER_ARGS if e != "--prompt-tokens entry"])
def test_a_numpy_integer_acts_as_the_equal_int(tmp_path, entry, np_int):
    """A numpy integer gives the bytes and types the equal Python int gives."""
    make, good = INTEGER_ARGS[entry]
    want = pickle.dumps(make(tmp_path)(good))
    assert pickle.dumps(make(tmp_path)(np_int(good))) == want


@pytest.mark.parametrize("np_int", [np.int32, np.int64])
@pytest.mark.parametrize("strategy", list(Strategy))
def test_numpy_integer_settings_run_as_the_equal_ints(strategy, np_int):
    """An equal RunConfig and ModelConfig, the same run_id, tokens and session snapshot."""
    settings = dict(max_new_tokens=3, select_k=8, filter_layer=2, pool_kernel=3, window=4)
    rc = RunConfig(strategy, **settings)
    np_rc = RunConfig(strategy, **{name: np_int(v) for name, v in settings.items()})
    assert np_rc == rc and np_rc.settings() == rc.settings()
    assert {type(v) for v in np_rc.settings().values()} == {int}
    shape = {
        name: np_int(v) if type(v) is int else np.float64(v) if type(v) is float else v
        for name, v in TINY.to_dict().items()
    }
    np_cfg = ModelConfig(**shape)
    assert json.dumps(np_cfg.to_dict()) == json.dumps(TINY.to_dict())
    assert json.dumps(replace(TINY, rope_theta=np.float32(1e4)).to_dict()) == json.dumps(
        TINY.to_dict()
    )
    tokens = list(range(1, 21))
    docs = []
    for cfg, run in ((TINY, rc), (np_cfg, np_rc)):
        weights = make_random_model(cfg, np_int(3) if cfg is np_cfg else 3)
        result = run_generation(weights, tokens, run)
        doc = metrics_document(
            weights=weights, tokens=tokens, rc=run, result=result, include_wall_times=False
        )
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


# ------------------------------------------------------------- cost shapes

SHAPE_RUN = ["--n", "10", *RUN_SETTINGS, "--layers", "2"]
BAD_COST_SHAPES = {
    "kv-heads--2": (["--kv-heads", "-2"], {"n_kv_heads": -2}),
    "kv-heads-0": (["--kv-heads", "0"], {"n_kv_heads": 0}),
    "kv-heads-3": (["--kv-heads", "3"], {"n_kv_heads": 3}),
    "vocab--5": (["--vocab", "-5"], {"vocab_size": -5}),
    "hidden-mlp-0": (["--hidden-mlp", "0"], {"hidden_mlp": 0}),
    "head-dim-0": (["--head-dim", "0"], {"head_dim": 0}),
}


@pytest.mark.parametrize("flags, fields", BAD_COST_SHAPES.values(), ids=BAD_COST_SHAPES)
def test_impossible_cost_shape_rejected(capsys, no_work, flags, fields):
    """An inline shape is a ModelConfig: each command refuses it with ModelConfig's error."""
    good = {**DEFAULT_CONFIG, "n_layers": 2}
    ModelConfig.from_dict(good)
    with pytest.raises(ConfigurationError) as refused:
        ModelConfig.from_dict({**good, **fields})
    for command in ("cost", "bench"):
        assert main([command, *SHAPE_RUN, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error (ConfigurationError): {refused.value}\n"
    assert no_work == []


# ------------------------------------------------------------- output paths and seeds


@pytest.fixture
def no_work(monkeypatch):
    """Record every run and every weight build the CLI would start."""
    calls = []
    for target in (
        "gemfilter.cli.run_generation",
        "gemfilter.needle.run_generation",
        "gemfilter.cli.make_random_model",
        "gemfilter.cli.make_copy_model",
    ):
        monkeypatch.setattr(target, lambda *args, target=target: calls.append(target))
    return calls


SHAPE = ["--layers", "2", "--heads", "2", "--kv-heads", "1", "--head-dim", "4"]
# Each command that writes a file, with its output flag; "M" stands for a model path.
WRITERS = {
    "make-model": ["make-model", *SHAPE, "--out"],
    "generate": ["generate", "--model", "M", "--prompt-random", "8", "--metrics-out"],
    "select": ["select", "--model", "M", "--prompt-random", "8", "--metrics-out"],
    "bench": ["bench", *SHAPE, "--n", "8", *RUN_SETTINGS, "--metrics-out"],
    "needle": ["needle", "--model", "M", "--haystack-len", "16", "--metrics-out"],
}


def _writer_argv(tmp_path, command, out):
    model = tmp_path / "m.gfm"
    save_model(model, make_random_model(TINY, 3))
    return [str(model) if a == "M" else a for a in WRITERS[command]] + [str(out)]


@pytest.mark.parametrize("command", list(WRITERS))
@pytest.mark.parametrize("where", ["missing-dir", "existing-dir"])
def test_unwritable_output_path_rejected_before_any_work(tmp_path, capsys, no_work, command, where):
    out = tmp_path / "absent" / "x.out" if where == "missing-dir" else tmp_path
    assert main(_writer_argv(tmp_path, command, out)) == 1
    flag = WRITERS[command][-1]
    assert f"error (ContractViolation): {flag} " in capsys.readouterr().err
    assert no_work == []
    assert not (tmp_path / "absent").exists()


@pytest.mark.parametrize("command", ["make-model", "generate", "bench", "needle"])
def test_negative_seed_rejected_before_any_work(tmp_path, capsys, no_work, command):
    out = tmp_path / "out"
    assert main([*_writer_argv(tmp_path, command, out), "--seed", "-1"]) == 1
    assert "error (ContractViolation): --seed must be >= 0, got -1" in capsys.readouterr().err
    assert no_work == []
    assert not out.exists()


# ------------------------------------------------------------- model size

# One config field each, far beyond any machine's memory: a flag and its value.
HUGE_SHAPES = {
    "vocab": ("--vocab", "vocab_size"),
    "hidden-mlp": ("--hidden-mlp", "hidden_mlp"),
    "layers": ("--layers", "n_layers"),
}
HUGE = 100_000_000_000


@pytest.mark.parametrize("field", [f for _, f in HUGE_SHAPES.values()], ids=HUGE_SHAPES)
@pytest.mark.parametrize("kind", ["random", "copy"])
def test_model_beyond_physical_memory_refused_before_any_allocation(kind, field):
    if kind == "copy":
        cfg, build = copy_model_config(), make_copy_model
    else:
        cfg, build = TINY, lambda c: make_random_model(c, 0)
    cfg = replace(cfg, **{field: HUGE})
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError, match="bytes of physical memory"):
            build(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("flag", [f for f, _ in HUGE_SHAPES.values()], ids=HUGE_SHAPES)
@pytest.mark.parametrize(
    "command",
    [
        ["make-model", "--out", "OUT"],
        ["make-model", "--kind", "copy", "--out", "OUT"],
        ["bench", "--n", "8", *RUN_SETTINGS],
    ],
    ids=["make-model", "make-model-copy", "bench"],
)
def test_model_beyond_physical_memory_through_cli(tmp_path, capsys, command, flag):
    out = tmp_path / "m.gfm"
    argv = [str(out) if a == "OUT" else a for a in command]
    assert main([*argv, flag, str(HUGE)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error (ConfigurationError): model weights need ")
    assert "Traceback" not in captured.err
    assert not out.exists()
