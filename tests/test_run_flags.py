"""The CLI's flag tables: every run command builds its RunConfig the same
way, and every command that takes a model shape builds its ModelConfig the
same way."""

import json
from dataclasses import fields

import pytest

from gemfilter.cli import (
    CONFIG_FLAGS, DEFAULT_CONFIG, RUN_FLAGS, _config_from_args, build_parser, main,
)
from gemfilter.config import ModelConfig
from gemfilter.modelio import load_model
from gemfilter.needle import NeedleSpec, needle_run
from gemfilter.runner import RunConfig, Strategy


def test_every_run_config_setting_has_one_flag():
    assert list(RUN_FLAGS) == [f.name for f in fields(RunConfig) if f.name != "strategy"]
    flags = [flag for flag, _ in RUN_FLAGS.values()]
    assert len(set(flags)) == len(flags)


GENERATE = dict(max_new_tokens=16, select_k=64, filter_layer=1, pool_kernel=5, window=32)
MINIMAL_ARGV = {
    "generate": (["--model", "m", "--prompt-text", "x"], GENERATE),
    "select": (
        ["--model", "m", "--prompt-text", "x"],
        dict(select_k=64, filter_layer=1, pool_kernel=5),
    ),
    "needle": (
        ["--model", "m", "--haystack-len", "8"],
        dict(select_k=64, filter_layer=1, max_new_tokens=8, pool_kernel=5),
    ),
    "bench": (
        ["--n", "8", "--select-k", "4", "--max-new-tokens", "2", "--filter-layer", "1"],
        dict(max_new_tokens=2, select_k=4, filter_layer=1, pool_kernel=5, window=32),
    ),
    "cost": (
        ["--n", "8", "--select-k", "4", "--max-new-tokens", "2", "--filter-layer", "1"],
        dict(max_new_tokens=2, select_k=4, filter_layer=1),
    ),
}


@pytest.mark.parametrize("command", list(MINIMAL_ARGV))
def test_each_command_keeps_its_settings_and_defaults(command):
    argv, expected = MINIMAL_ARGV[command]
    args = vars(build_parser().parse_args([command, *argv]))
    assert {name: args[name] for name in RUN_FLAGS if name in args} == expected


def test_needle_json_is_needle_run_with_the_same_settings(capsys, copy_model):
    argv = ["needle", "--model", str(copy_model), "--haystack-len", "96", "--select-k", "24"]
    assert main([*argv, "--pool-kernel", "7", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    spec = NeedleSpec(haystack_len=96, depth_percent=50.0, needle=(98,) * 8, query_token=98)
    rc = RunConfig(Strategy.GEMFILTER, select_k=24, max_new_tokens=8, pool_kernel=7)
    assert doc == needle_run(spec, load_model(copy_model), [1], rc).to_dict()


# A value for each shape setting, each unlike DEFAULT_CONFIG's and valid on its own.
SHAPE = dict(
    n_layers=3, n_heads=8, n_kv_heads=1, head_dim=6, hidden_mlp=40, vocab_size=300,
    max_seq=512, rope_theta=500.0, use_rope=False,
)
RUN = MINIMAL_ARGV["bench"][0]
# Each command that takes a model shape, its other required flags and its shape settings.
SHAPE_COMMANDS = {
    "make-model": (["--out", "m.gfm"], list(CONFIG_FLAGS)),
    "bench": (RUN, list(CONFIG_FLAGS)),
    "cost": (RUN, ["n_layers", "n_heads", "n_kv_heads", "head_dim", "hidden_mlp", "vocab_size"]),
}


def test_every_shape_setting_has_one_flag():
    assert {name: flag for name, (flag, _) in CONFIG_FLAGS.items()} == {
        "n_layers": "--layers", "n_heads": "--heads", "n_kv_heads": "--kv-heads",
        "head_dim": "--head-dim", "hidden_mlp": "--hidden-mlp", "vocab_size": "--vocab",
        "max_seq": "--max-seq", "rope_theta": "--rope-theta", "use_rope": "--no-rope",
    }
    # d_model follows from the head layout; norm_eps is set only through --config.
    assert set(CONFIG_FLAGS) == {f.name for f in fields(ModelConfig)} - {"d_model", "norm_eps"}


@pytest.mark.parametrize("command", list(SHAPE_COMMANDS))
def test_each_shape_flag_sets_its_config_field(command):
    run, names = SHAPE_COMMANDS[command]
    parser = build_parser()
    args = vars(parser.parse_args([command, *run]))
    assert {name: args[name] for name in CONFIG_FLAGS if name in args} == dict.fromkeys(names)
    for name in names:
        flag = CONFIG_FLAGS[name][0]
        given = [flag] if name == "use_rope" else [flag, str(SHAPE[name])]
        config = _config_from_args(parser.parse_args([command, *run, *given]))
        assert config == ModelConfig.from_dict({**DEFAULT_CONFIG, name: SHAPE[name]})
