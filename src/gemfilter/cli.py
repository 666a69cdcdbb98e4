"""Command-line interface.

Subcommands: ``make-model``, ``generate``, ``select``, ``needle``, ``cost``,
``bench``.  Exit codes: 0 success, 1 contract or runtime error (named on
stderr) or a closed stdout, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields
from functools import partial

import numpy as np

from . import tokenizer
from .config import ModelConfig, is_integer
from .costmodel import CostParams, cost_table, format_cost_table, verify_counters
from .errors import ContractViolation, EngineError
from .model import check_prompt_length
from .modelio import load_model, save_model
from .needle import METRIC_NOTE, NeedleSpec, needle_run
from .runner import RunConfig, Strategy, metrics_document, run_generation, write_metrics
from .selection import decode_selection
from .testmodels import copy_model_config, make_copy_model, make_random_model

DEFAULT_CONFIG = dict(
    n_layers=4,
    n_heads=4,
    n_kv_heads=2,
    head_dim=16,
    vocab_size=tokenizer.VOCAB_SIZE,
    hidden_mlp=128,
    max_seq=16384,
)


# One flag per model-shape setting; one left out reads None and takes the base config's value.
CONFIG_FLAGS = {
    "n_layers": ("--layers", dict(type=int)),
    "n_heads": ("--heads", dict(type=int)),
    "n_kv_heads": ("--kv-heads", dict(type=int)),
    "head_dim": ("--head-dim", dict(type=int)),
    "hidden_mlp": ("--hidden-mlp", dict(type=int)),
    "vocab_size": ("--vocab", dict(type=int)),
    "max_seq": ("--max-seq", dict(type=int)),
    "rope_theta": ("--rope-theta", dict(type=float)),
    "use_rope": ("--no-rope", dict(action="store_false")),
}

# One flag per RunConfig setting but the strategy, with RunConfig's default.
RUN_FLAGS = {
    "max_new_tokens": ("--max-new-tokens", dict(type=int)),
    "select_k": ("--select-k", dict(type=int)),
    "filter_layer": ("--filter-layer", dict(type=int)),
    "pool_kernel": ("--pool-kernel", dict(type=int)),
    "window": ("--window", dict(type=int)),
}
_RUN_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def _add_settings(p: argparse.ArgumentParser, *names, required=False) -> None:
    """Register the settings ``names``, each by its one flag.  A run setting
    defaults to RunConfig's value, a shape setting to None."""
    for name in names:
        flag, options = RUN_FLAGS[name] if name in RUN_FLAGS else CONFIG_FLAGS[name]
        default = _RUN_DEFAULTS.get(name)
        p.add_argument(flag, dest=name, default=default, required=required, **options)


def _run_config(args, **fixed) -> RunConfig:
    """The settings ``args`` carries, plus ``fixed`` ones its subcommand has no flag for."""
    return RunConfig(**{name: getattr(args, name) for name in RUN_FLAGS if name in args}, **fixed)


def _add_prompt_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--prompt-text", help="prompt as raw text (byte tokenizer)")
    src.add_argument("--prompt-tokens", help="path to a JSON array of token ids")
    src.add_argument(
        "--prompt-random",
        type=int,
        metavar="N",
        help="random prompt of N tokens (see --seed)",
    )


def _add_seed_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="seed of random weights or prompts")


def _add_metrics_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--metrics-out", help="append one NDJSON metrics document per run")
    p.add_argument(
        "--no-wall-times",
        action="store_true",
        help="omit wall times from metrics (byte-reproducible output)",
    )


def _read_json(path, flag: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ContractViolation(f"{flag} file is unreadable: {exc}") from exc


def _load_prompt(args, cfg: ModelConfig) -> list[int]:
    vocab_size = cfg.vocab_size
    if args.prompt_text is not None:
        tokens = tokenizer.tokenize(args.prompt_text)
    elif args.prompt_tokens is not None:
        tokens = _read_json(args.prompt_tokens, "--prompt-tokens")
        if not isinstance(tokens, list):
            raise ContractViolation("--prompt-tokens file must hold a JSON array")
        for t in tokens:
            if not is_integer(t) or not 0 <= t < vocab_size:
                raise ContractViolation(
                    f"--prompt-tokens entry {t!r} is not a token id in [0, {vocab_size})"
                )
    else:
        tokens = _random_prompt(args.prompt_random, args.seed, cfg)
    if not tokens:
        raise ContractViolation("prompt must be non-empty")
    return tokens


def _random_prompt(n: int, seed: int, cfg: ModelConfig) -> list[int]:
    check_prompt_length(n, cfg)
    return np.random.default_rng(seed).integers(0, cfg.vocab_size, size=n).tolist()


def _check_args(args) -> None:
    """Reject a negative seed, shape flags next to ``--model`` and an output
    path that cannot be written, before any work."""
    if getattr(args, "seed", 0) < 0:
        raise ContractViolation(f"--seed must be >= 0, got {args.seed}")
    if getattr(args, "model", None) is not None:
        shape = {"config": "--config", **{name: flag for name, (flag, _) in CONFIG_FLAGS.items()}}
        given = [flag for name, flag in shape.items() if getattr(args, name, None) is not None]
        if given:
            flags = ", ".join(given)
            raise ContractViolation(f"{flags} cannot be given with --model, which fixes the shape")
    for dest, flag in (("out", "--out"), ("metrics_out", "--metrics-out")):
        path = getattr(args, dest, None)
        if path is None:
            continue
        parent, name = os.path.split(path)
        if not name or os.path.isdir(path) or not os.path.isdir(parent or "."):
            raise ContractViolation(f"{flag} {path!r} must name a file in an existing directory")


def _run_all(args, weights, tokens, configs) -> list:
    """Run every config on ``tokens``; with --metrics-out, append one document per run."""
    results = [run_generation(weights, tokens, rc) for rc in configs]
    if args.metrics_out:
        docs = [
            metrics_document(
                weights=weights,
                tokens=tokens,
                rc=rc,
                result=result,
                include_wall_times=not args.no_wall_times,
                include_scores=getattr(args, "emit_scores", False),
            )
            for rc, result in zip(configs, results)
        ]
        write_metrics(args.metrics_out, docs)
    return results


def _config_from_args(args, base: dict | None = None) -> ModelConfig:
    values = dict(DEFAULT_CONFIG if base is None else base)
    if getattr(args, "config", None):
        loaded = _read_json(args.config, "--config")
        if not isinstance(loaded, dict):
            raise ContractViolation("--config file must hold a JSON object")
        values.update(loaded)
        if "d_model" in loaded:
            ModelConfig.from_dict(values)  # it must fit the file's head layout
    flags = {name: getattr(args, name, None) for name in CONFIG_FLAGS}
    values.update((name, value) for name, value in flags.items() if value is not None)
    values.pop("d_model", None)  # it follows the head layout the flags leave
    return ModelConfig.from_dict(values)


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file of model config fields")
    _add_settings(p, *CONFIG_FLAGS)


def cmd_make_model(args) -> int:
    if args.kind == "copy":
        base = copy_model_config(vocab_size=tokenizer.VOCAB_SIZE).to_dict()
        cfg = _config_from_args(args, base=base)
        weights = make_copy_model(cfg)
    else:
        cfg = _config_from_args(args)
        weights = make_random_model(cfg, args.seed)
    save_model(args.out, weights)
    print(f"wrote {args.kind} model to {args.out} ({cfg.n_layers} layers, d_model={cfg.d_model})")
    return 0


def cmd_generate(args) -> int:
    weights = load_model(args.model)
    tokens = _load_prompt(args, weights.config)
    rc = _run_config(args, strategy=Strategy.parse(args.strategy))
    (result,) = _run_all(args, weights, tokens, [rc])
    text = tokenizer.detokenize(result.output_tokens).decode("utf-8", errors="backslashreplace")
    print(text)
    return 0


def cmd_select(args) -> int:
    weights = load_model(args.model)
    tokens = _load_prompt(args, weights.config)
    rc = _run_config(args, strategy=Strategy.GEMFILTER, max_new_tokens=0)
    (result,) = _run_all(args, weights, tokens, [rc])
    sel = result.selection
    sub = decode_selection(tokens, sel)
    print(
        f"selected {len(sub)} of {len(tokens)} tokens "
        f"(filter layer {rc.filter_layer}, k={rc.select_k})"
    )
    if args.show_indices:
        print("indices:", " ".join(str(int(i)) for i in sel.indices))
    print(tokenizer.detokenize(sub).decode("utf-8", errors="backslashreplace"))
    return 0


def cmd_needle(args) -> int:
    weights = load_model(args.model)
    cfg = weights.config
    needle_tokens = tuple(tokenizer.tokenize(args.needle_text))
    if not needle_tokens:
        raise ContractViolation("--needle-text must be non-empty")
    query_tokens = (
        needle_tokens[-1:] if args.query_text is None else tokenizer.tokenize(args.query_text)
    )
    if len(query_tokens) != 1:
        raise ContractViolation("--query-text must be a single byte")
    spec = NeedleSpec(
        haystack_len=args.haystack_len,
        depth_percent=args.depth_percent,
        needle=needle_tokens,
        query_token=query_tokens[0],
        seed=args.seed,
    )
    rc = _run_config(args, strategy=Strategy.GEMFILTER)
    r_list = list(range(1, cfg.n_layers + 1)) if args.r_sweep else [rc.filter_layer]
    report = needle_run(spec, weights, r_list, rc)
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(f"# {METRIC_NOTE}")
        for lr in report.layer_results:
            print(
                f"layer {lr.layer:>3}: coverage={lr.coverage:.3f} min_distance={lr.min_distance}"
            )
        if report.generation_match is not None:
            print(f"generation match vs full model: {report.generation_match}")
    if args.metrics_out:
        write_metrics(args.metrics_out, [report.to_dict()])
    return 0


def cmd_cost(args) -> int:
    cfg = load_model(args.model).config if args.model else _config_from_args(args)
    params = CostParams(cfg, n=args.n, k=args.select_k, t=args.max_new_tokens, r=args.filter_layer)
    table = cost_table(params)
    if args.json:
        doc = {
            method: {
                phase: {
                    "flops": cell.flops_by_tag,
                    "total_flops": cell.matmul_flops,
                    "kv_bytes_peak": cell.kv_bytes_peak,
                    "weight_bytes": cell.weight_bytes_touched,
                }
                for phase, cell in phases.items()
            }
            for method, phases in table.items()
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        print(format_cost_table(params, table))
    return 0


def cmd_bench(args) -> int:
    if args.model:
        weights = load_model(args.model)
    else:
        weights = make_random_model(_config_from_args(args), args.seed)
    tokens = _random_prompt(args.n, args.seed, weights.config)
    configs = [
        _run_config(args, strategy=s)
        for s in (Strategy.FULL, Strategy.SNAPKV, Strategy.H2O, Strategy.GEMFILTER)
    ]
    params = CostParams.from_weights(
        weights, n=args.n, k=args.select_k, t=args.max_new_tokens, r=args.filter_layer
    )
    results = _run_all(args, weights, tokens, configs)
    measured = {rc.strategy.value: r.session.snapshot() for rc, r in zip(configs, results)}
    report = verify_counters(measured, cost_table(params))
    if args.no_wall_times:
        report.wall_times = {}
    if args.json:
        doc = {"ok": report.ok, "mismatches": [asdict(e) for e in report.mismatches]}
        if not args.no_wall_times:
            doc["wall_times"] = report.wall_times
        print(json.dumps(doc, sort_keys=True))
    else:
        print(report.format_text())
    if not report.ok:
        raise ContractViolation(
            f"{len(report.mismatches)} counter terms differ from the cost model"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gemfilter",
        description=(
            "Long-context inference engine: early-layer token selection, "
            "KV compression baselines, and an exact cost model."
        ),
    )
    # A flag parses only as spelled: no prefix of it is a second spelling.
    exact = partial(argparse.ArgumentParser, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=exact)

    p = sub.add_parser("make-model", help="create and save a model file")
    p.add_argument("--out", required=True)
    p.add_argument("--kind", choices=("random", "copy"), default="random")
    _add_seed_arg(p)
    _add_config_args(p)
    p.set_defaults(func=cmd_make_model)

    p = sub.add_parser("generate", help="generate tokens with a chosen strategy")
    p.add_argument("--model", required=True)
    _add_prompt_args(p)
    p.add_argument("--strategy", default="full", help="full | gemfilter | snapkv | h2o")
    _add_settings(p, *RUN_FLAGS)
    p.add_argument("--emit-scores", action="store_true")
    _add_seed_arg(p)
    _add_metrics_args(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("select", help="print the selected sub-sequence for inspection")
    p.add_argument("--model", required=True)
    _add_prompt_args(p)
    _add_settings(p, "filter_layer", "select_k", "pool_kernel")
    p.add_argument("--show-indices", action="store_true")
    _add_seed_arg(p)
    _add_metrics_args(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("needle", help="plant a needle and score the selection path")
    p.add_argument("--model", required=True)
    p.add_argument("--haystack-len", type=int, required=True)
    p.add_argument("--depth-percent", type=float, default=50.0)
    p.add_argument("--needle-text", default="bbbbbbbb")
    p.add_argument("--query-text", default=None)
    _add_settings(p, "select_k", "filter_layer", "pool_kernel", "max_new_tokens")
    p.set_defaults(max_new_tokens=8)
    p.add_argument("--r-sweep", action="store_true", help="evaluate every layer")
    _add_seed_arg(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--metrics-out", help="append the report as one NDJSON document")
    p.set_defaults(func=cmd_needle)

    p = sub.add_parser("cost", help="print the closed-form cost table")
    p.add_argument("--model")
    p.add_argument("--n", type=int, required=True)
    _add_settings(p, "select_k", "max_new_tokens", "filter_layer", required=True)
    _add_settings(p, "n_layers", "n_heads", "n_kv_heads", "head_dim", "hidden_mlp", "vocab_size")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("bench", help="run all strategies and verify counters")
    p.add_argument("--model")
    _add_config_args(p)
    p.add_argument("--n", type=int, required=True)
    _add_settings(p, "select_k", "max_new_tokens", "filter_layer", required=True)
    _add_seed_arg(p)
    _add_settings(p, "pool_kernel", "window")
    p.add_argument("--json", action="store_true")
    _add_metrics_args(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        _check_args(args)
        return args.func(args)
    except EngineError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout; point it at devnull so that the flush at
        # interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
