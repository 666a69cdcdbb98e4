"""CLI tests: exit codes, end-to-end subcommand behavior, metrics determinism."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import gemfilter
from gemfilter import cli
from gemfilter.cli import main
from gemfilter.costmodel import CostParams, cost_table
from gemfilter.counting import PROMPT, CostSession
from gemfilter.modelio import load_model
from gemfilter.needle import NeedleSpec, needle_run
from gemfilter.runner import RunConfig, Strategy


@pytest.fixture(scope="module")
def random_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "random.gfm"
    code = main(
        [
            "make-model",
            "--out",
            str(path),
            "--kind",
            "random",
            "--seed",
            "3",
            "--layers",
            "2",
            "--heads",
            "2",
            "--kv-heads",
            "2",
            "--head-dim",
            "8",
            "--hidden-mlp",
            "32",
        ]
    )
    assert code == 0
    return path


# bench's and cost's required run settings.
RUN_SETTINGS = ["--select-k", "4", "--max-new-tokens", "2", "--filter-layer", "1"]

# The deleted flags, each with the commands that took it; the short ones
# were second spellings of a run or shape setting's flag.
DELETED_FLAGS = {
    "pool-mode": (("--pool-mode", "max"), ("generate", "select", "needle", "bench")),
    "include-first": (("--include-first",), ("generate", "select")),
    "observation-window": (("--observation-window", "4"), ("generate", "bench")),
    "recent-keep": (("--recent-keep", "4"), ("generate", "bench")),
    "k": (("--k", "4"), ("bench", "cost")),
    "t": (("--t", "2"), ("bench", "cost")),
    "r": (("--r", "1"), ("bench", "cost")),
    "t-max": (("--t-max", "3"), ("needle",)),
    "m": (("--m", "3"), ("cost",)),
    "h": (("--h", "2"), ("cost",)),
}


class TestExitCodes:
    @staticmethod
    def assert_usage_errors(model, cases, capsys, monkeypatch):
        """Each (command, flags) case exits 2 naming the flag, before any counted work."""
        calls = []
        monkeypatch.setattr(CostSession, "count_matmul", lambda self, *args: calls.append(args))
        prompt = ["--model", str(model), "--prompt-random", "8"]
        run = {
            "generate": prompt,
            "select": prompt,
            "needle": ["--model", str(model), "--haystack-len", "8"],
            "bench": ["--n", "8", *RUN_SETTINGS],
            "cost": ["--n", "8", *RUN_SETTINGS],
        }
        for command, flag in cases:
            assert main([command, *run[command], *flag]) == 2, (command, flag)
            captured = capsys.readouterr()
            assert captured.out == "" and "unrecognized arguments" in captured.err
        assert calls == []

    def test_unknown_flag_is_usage_error(self, random_model, capsys, monkeypatch):
        cases = [("generate", ("--frobnicate",))]
        self.assert_usage_errors(random_model, cases, capsys, monkeypatch)

    @pytest.mark.parametrize("name", DELETED_FLAGS)
    def test_deleted_setting_flag_is_usage_error(self, random_model, capsys, monkeypatch, name):
        flag, commands = DELETED_FLAGS[name]
        cases = [(command, flag) for command in commands]
        self.assert_usage_errors(random_model, cases, capsys, monkeypatch)

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["transmogrify"]) == 2

    def test_missing_required_flag_is_usage_error(self):
        assert main(["generate"]) == 2

    def test_contract_violation_is_exit_one(self, random_model, capsys):
        code = main(
            [
                "generate",
                "--model",
                str(random_model),
                "--prompt-text",
                "hello",
                "--strategy",
                "gemfilter",
                "--filter-layer",
                "99",
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_model_path_is_exit_one(self, tmp_path):
        missing = tmp_path / "nope.gfm"
        missing.write_bytes(b"XXXX")
        assert main(["generate", "--model", str(missing), "--prompt-text", "x"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


class TestGenerate:
    def test_gemfilter_k_equals_n_matches_full(self, random_model, capsys):
        prompt = "the quick brown fox"
        n = len(prompt)
        assert (
            main(
                [
                    "generate",
                    "--model",
                    str(random_model),
                    "--prompt-text",
                    prompt,
                    "--strategy",
                    "full",
                    "--max-new-tokens",
                    "8",
                ]
            )
            == 0
        )
        full_out = capsys.readouterr().out
        assert (
            main(
                [
                    "generate",
                    "--model",
                    str(random_model),
                    "--prompt-text",
                    prompt,
                    "--strategy",
                    "gemfilter",
                    "--select-k",
                    str(n),
                    "--filter-layer",
                    "1",
                    "--max-new-tokens",
                    "8",
                ]
            )
            == 0
        )
        gem_out = capsys.readouterr().out
        assert full_out == gem_out

    @pytest.mark.parametrize("strategy", ["snapkv", "h2o"])
    def test_compressed_strategies_run(self, random_model, capsys, strategy):
        code = main(
            [
                "generate",
                "--model",
                str(random_model),
                "--prompt-text",
                "some context " * 8,
                "--strategy",
                strategy,
                "--select-k",
                "24",
                "--window",
                "8",
                "--max-new-tokens",
                "4",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out

    def test_metrics_deterministic_across_runs(self, random_model, tmp_path):
        args = lambda out: [
            "generate",
            "--model",
            str(random_model),
            "--prompt-random",
            "32",
            "--seed",
            "7",
            "--strategy",
            "gemfilter",
            "--select-k",
            "8",
            "--max-new-tokens",
            "4",
            "--metrics-out",
            str(out),
            "--no-wall-times",
        ]
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        assert main(args(a)) == 0
        assert main(args(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text().splitlines()[0])
        assert doc["strategy"] == "gemfilter"
        assert doc["params"]["n"] == 32
        assert "wall_times" not in doc
        assert doc["selection"]["indices"] == sorted(doc["selection"]["indices"])

    def test_metrics_schema_with_wall_times(self, random_model, tmp_path):
        out = tmp_path / "m.ndjson"
        assert (
            main(
                [
                    "generate",
                    "--model",
                    str(random_model),
                    "--prompt-text",
                    "abcdef",
                    "--strategy",
                    "full",
                    "--max-new-tokens",
                    "2",
                    "--metrics-out",
                    str(out),
                ]
            )
            == 0
        )
        doc = json.loads(out.read_text().splitlines()[0])
        assert {"run_id", "strategy", "params", "phase_costs", "output_tokens", "wall_times"} <= set(doc)
        phases = {pc["phase"] for pc in doc["phase_costs"]}
        assert phases == {"prompt", "generation"}


class TestPromptSources:
    def test_prompt_tokens_json_file(self, random_model, tmp_path, capsys):
        tokens_file = tmp_path / "prompt.json"
        tokens_file.write_text(json.dumps(list(range(20))))
        code = main(
            [
                "generate",
                "--model",
                str(random_model),
                "--prompt-tokens",
                str(tokens_file),
                "--strategy",
                "full",
                "--max-new-tokens",
                "3",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out

    def test_prompt_text_bytes_that_are_not_utf8_are_the_prompt(self, random_model, capsys):
        """argv bytes that are not UTF-8 reach the parser as lone surrogates."""
        argv = ["--model", str(random_model), "--prompt-text", os.fsdecode(b"\xff")]
        assert main(["generate", *argv, "--max-new-tokens", "2"]) == 0
        assert main(["select", *argv, "--select-k", "1", "--show-indices"]) == 0
        assert "indices: 0\n" in capsys.readouterr().out

    def test_conflicting_prompt_sources_usage_error(self, random_model):
        code = main(
            [
                "generate",
                "--model",
                str(random_model),
                "--prompt-text",
                "x",
                "--prompt-random",
                "5",
            ]
        )
        assert code == 2


class TestSelect:
    def test_select_prints_planted_needle(self, copy_model, capsys):
        prompt = "a" * 60 + "bbbbbbbb" + "a" * 60 + "b"
        code = main(
            [
                "select",
                "--model",
                str(copy_model),
                "--prompt-text",
                prompt,
                "--filter-layer",
                "1",
                "--select-k",
                "16",
                "--show-indices",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bbbbbbbb" in out
        assert "selected 16 of 129 tokens" in out

    def test_ids_past_the_tokenizer_print_as_escapes(self, tmp_path, capsys):
        """A model whose vocabulary outgrows the byte tokenizer prints its
        extra ids as escapes, and the run exits 0."""
        model = tmp_path / "v300.gfm"
        assert main(["make-model", "--out", str(model), "--vocab", "300", "--layers", "2",
                     "--heads", "2", "--kv-heads", "2", "--head-dim", "8"]) == 0
        flags = ["--model", str(model), "--prompt-random", "20", "--seed", "3"]
        assert main(["select", *flags, "--select-k", "20"]) == 0
        assert "<id:2" in capsys.readouterr().out
        assert main(["generate", *flags, "--max-new-tokens", "8"]) == 0

    def test_select_record_is_a_zero_token_gemfilter_run(self, random_model, tmp_path, capsys):
        flags = [
            "--model", str(random_model), "--prompt-random", "40", "--seed", "5",
            "--filter-layer", "2", "--select-k", "12", "--pool-kernel", "3", "--no-wall-times",
        ]
        sel_out, gen_out = tmp_path / "select.ndjson", tmp_path / "generate.ndjson"
        assert main(["select", *flags, "--metrics-out", str(sel_out)]) == 0
        assert main(
            ["generate", *flags, "--strategy", "gemfilter", "--max-new-tokens", "0",
             "--metrics-out", str(gen_out)]
        ) == 0
        capsys.readouterr()
        assert sel_out.read_bytes() == gen_out.read_bytes()
        doc = json.loads(sel_out.read_text())
        assert {"run_id", "params", "phase_costs", "selection"} <= set(doc)
        prompt = next(pc for pc in doc["phase_costs"] if pc["phase"] == "prompt")
        weights = load_model(random_model)
        cell = cost_table(CostParams.from_weights(weights, n=40, k=12, t=0, r=2))["gemfilter"]
        assert prompt["kv_bytes_peak"] == cell[PROMPT].kv_bytes_peak
        assert prompt["weight_bytes_touched"] == cell[PROMPT].weight_bytes_touched
        assert prompt["matmul_flops"] == cell[PROMPT].matmul_flops
        for term, flops in cell[PROMPT].flops_by_tag.items():
            assert prompt["flops_by_tag"].get(term, 0) == flops


class TestNeedleCommand:
    def test_needle_json_report(self, copy_model, capsys):
        code = main(
            [
                "needle",
                "--model",
                str(copy_model),
                "--haystack-len",
                "128",
                "--depth-percent",
                "50",
                "--select-k",
                "32",
                "--filter-layer",
                "1",
                "--max-new-tokens",
                "4",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["layers"][0]["coverage"] == 1.0
        assert doc["layers"][0]["min_distance"] == 0
        assert doc["generation_match"] is True
        # Without --query-text the query is the needle's last token: here the
        # last byte of a two-byte character.
        argv = ["needle", "--model", str(copy_model), "--haystack-len", "128", "--select-k", "32"]
        assert main([*argv, "--max-new-tokens", "4", "--json", "--needle-text", "ééé"]) == 0
        spec = NeedleSpec(
            haystack_len=128, depth_percent=50.0, needle=tuple("ééé".encode()), query_token=0xA9
        )
        rc = RunConfig(Strategy.GEMFILTER, select_k=32, max_new_tokens=4)
        report = needle_run(spec, load_model(copy_model), [1], rc)
        assert json.loads(capsys.readouterr().out) == report.to_dict()

    def test_needle_sweep_text_header(self, copy_model, capsys):
        code = main(
            [
                "needle",
                "--model",
                str(copy_model),
                "--haystack-len",
                "96",
                "--r-sweep",
                "--select-k",
                "24",
                "--max-new-tokens",
                "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "exact metrics" in out
        assert "layer   1" in out and "layer   2" in out


class TestCostCommand:
    def test_prints_layer_ratio(self, capsys):
        code = main(
            ["cost", "--n", "4096", "--select-k", "1024", "--max-new-tokens", "64",
             "--filter-layer", "13", "--layers", "32"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2.46" in out

    def test_json_structure(self, capsys):
        code = main(
            ["cost", "--n", "256", "--select-k", "32", "--max-new-tokens", "8",
             "--filter-layer", "2", "--layers", "4", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"full", "snapkv", "h2o", "gemfilter"}
        assert doc["gemfilter"]["prompt"]["weight_bytes"] * 2 == doc["full"]["prompt"]["weight_bytes"]

    def test_shape_flags_default_like_make_model(self, tmp_path, capsys):
        """Without --model, missing shape values are make-model's defaults."""
        model = tmp_path / "m.gfm"
        assert main(["make-model", "--out", str(model), "--layers", "3", "--head-dim", "8"]) == 0
        capsys.readouterr()
        docs = []
        for source in (["--layers", "3", "--head-dim", "8"], ["--model", str(model)]):
            argv = [
                "cost", *source, "--n", "256", "--select-k", "32", "--max-new-tokens", "8",
                "--filter-layer", "1", "--json",
            ]
            assert main(argv) == 0
            docs.append(json.loads(capsys.readouterr().out))
        assert docs[0] == docs[1]

    def test_model_backed_params(self, random_model, capsys):
        code = main(
            [
                "cost",
                "--model",
                str(random_model),
                "--n",
                "128",
                "--select-k",
                "16",
                "--max-new-tokens",
                "4",
                "--filter-layer",
                "1",
            ]
        )
        assert code == 0
        assert "gemfilter" in capsys.readouterr().out


class TestBenchCommand:
    def test_bench_verifies_counters(self, capsys):
        code = main(
            [
                "bench",
                "--layers",
                "2",
                "--heads",
                "2",
                "--kv-heads",
                "2",
                "--head-dim",
                "8",
                "--hidden-mlp",
                "32",
                "--n",
                "48",
                "--select-k",
                "12",
                "--max-new-tokens",
                "4",
                "--filter-layer",
                "1",
                "--window",
                "4",
                "--pool-kernel",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "counters MATCH" in out

    def test_bench_json(self, capsys):
        code = main(
            [
                "bench",
                "--layers",
                "2",
                "--heads",
                "2",
                "--kv-heads",
                "1",
                "--head-dim",
                "8",
                "--n",
                "32",
                "--select-k",
                "8",
                "--max-new-tokens",
                "2",
                "--filter-layer",
                "1",
                "--window",
                "4",
                "--pool-kernel",
                "3",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["mismatches"] == []

    BENCH = [
        "bench", "--layers", "3", "--heads", "4", "--kv-heads", "2", "--head-dim", "8",
        "--n", "64", "--select-k", "20", "--max-new-tokens", "3", "--filter-layer", "2",
        "--window", "4", "--pool-kernel", "3",
    ]

    @pytest.mark.parametrize("output", [["--json"], []], ids=["json", "text"])
    def test_counter_mismatch_exits_1(self, capsys, monkeypatch, output):
        real = cli.cost_table

        def off_by_two(params):
            table = real(params)
            table["h2o"][PROMPT].flops_by_tag["attn_score"] += 2
            return table

        monkeypatch.setattr(cli, "cost_table", off_by_two)
        assert main([*self.BENCH, "--no-wall-times", *output]) == 1
        captured = capsys.readouterr()
        if output:
            doc = json.loads(captured.out)
            assert doc["ok"] is False
            bad = [(e["method"], e["phase"], e["term"]) for e in doc["mismatches"]]
            assert bad == [("h2o", PROMPT, "attn_score")]
        else:
            assert "FAIL h2o/prompt/attn_score" in captured.out
            assert "counters DIVERGE" in captured.out
        assert "1 counter terms differ from the cost model" in captured.err

    @pytest.mark.parametrize("output", [["--json"], []], ids=["json", "text"])
    def test_no_wall_times_output_is_byte_reproducible(self, output):
        """Two processes print the same bytes: no wall time reaches stdout."""
        src = str(Path(gemfilter.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = [*self.BENCH, "--no-wall-times", *output]
        runs = [
            subprocess.run(
                [sys.executable, "-c", "from gemfilter.cli import entrypoint; entrypoint()", *argv],
                capture_output=True, env=env, timeout=120, check=True,
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert b"wall_times" not in runs[0] and b"time " not in runs[0]


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["cost", "--layers", "7", "--heads", "8"], "--layers, --heads"),
        (
            ["bench", "--layers", "0", "--heads", "8", "--window", "2"],
            "--layers, --heads",
        ),
    ],
    ids=["cost", "bench"],
)
def test_shape_flags_with_model_rejected(random_model, capsys, argv, flags):
    """A model file fixes the shape: a shape flag beside --model is an error, not ignored."""
    run = ["--model", str(random_model), "--n", "16", *RUN_SETTINGS]
    assert main([*argv, *run]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ContractViolation" in captured.err
    assert f"{flags} cannot be given with --model" in captured.err


@pytest.mark.parametrize(
    "kind, loaded, flags, d_model",
    [
        ("random", {"n_heads": 4, "head_dim": 16, "d_model": 64}, [], 64),
        ("random", {"n_heads": 4, "head_dim": 16, "d_model": 64}, ["--heads", "2"], 32),
        ("random", {"head_dim": 8, "d_model": 32}, [], 32),
        ("copy", {"n_layers": 1}, ["--head-dim", "96"], 192),
        ("copy", {"head_dim": 96, "d_model": 192}, [], 192),
    ],
    ids=["file", "heads-flag", "base-heads", "copy-head-dim-flag", "copy-file"],
)
def test_d_model_follows_the_head_layout(tmp_path, capsys, kind, loaded, flags, d_model):
    """A --config file's d_model is kept; shape flags read after it carry d_model with them,
    and the base shape's own d_model never outlives a change to its head layout."""
    config, model = tmp_path / "config.json", tmp_path / "m.gfm"
    config.write_text(json.dumps(loaded), encoding="utf-8")
    argv = ["make-model", "--kind", kind, "--out", str(model), "--config", str(config), *flags]
    assert main(argv) == 0
    assert f"d_model={d_model}" in capsys.readouterr().out
    assert load_model(model).config.d_model == d_model


@pytest.mark.parametrize(
    "argv",
    [
        ["cost", "--n", "256", "--select-k", "32", "--max-new-tokens", "8", "--filter-layer", "1",
         "--layers", "4"],
        ["select", "--prompt-random", "20", "--select-k", "4", "--show-indices"],
    ],
    ids=["cost", "select"],
)
def test_closed_stdout_exits_1_without_traceback(random_model, argv):
    """A reader that has gone away (``| head -1``) leaves no traceback."""
    if argv[0] == "select":
        argv = [*argv, "--model", str(random_model)]
    src = str(Path(gemfilter.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "from gemfilter.cli import entrypoint; entrypoint()", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def readme_cli_commands() -> list[list[str]]:
    """Each ``gemfilter ...`` command of README's ``## CLI`` code block, its
    ``\\`` continuations joined, as the argument list after ``gemfilter``."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("gemfilter ")]


def test_readme_cli_examples_parse():
    commands = readme_cli_commands()
    assert {argv[0] for argv in commands} == {
        "make-model", "generate", "select", "needle", "cost", "bench",
    }
    for argv in commands:
        cli.build_parser().parse_args(argv)
