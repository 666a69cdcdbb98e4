"""The benchmark's workloads and the inputs each one derives from a seed.

A workload fixes the model shape and the run parameters ``(n, k, r, t)``.
The seed fixes everything else: the random model's weights, the prompt
tokens, and for the needle workload the needle token and its depth.  Every
model is written to a GFM1 file and read back, so the engine runs on weights
that went through the public model format.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gemfilter import config, modelio, needle, testmodels, tokenizer
from gemfilter.model import ModelWeights

STRATEGIES = ("full", "gemfilter", "snapkv", "h2o")
NEEDLE_LEN = 8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: str  # "random" (GQA profile model) or "copy" (needle model)
    n: int  # prompt length; for the needle workload, haystack plus query token
    k: int
    r: int
    t: int

    def gen_tokens(self, strategy: str) -> int:
        """Tokens the generation phase emits.

        gemfilter's generation phase holds its whole second pass, first
        token included; the other strategies emit their first token from
        the prompt pass.
        """
        return self.t if strategy == "gemfilter" else self.t - 1

    def shrunk(self, n: int, k: int, t: int) -> "Workload":
        """The same workload at another size (used by the self-tests)."""
        return dataclasses.replace(self, n=n, k=k, t=t)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "prompt-long",
            "n=4096, t=8 on the GQA profile model: the prompt phase is over 95% of the time, "
            "so attention, column sums and the filter pass dominate",
            "random", n=4096, k=256, r=3, t=8,
        ),
        Workload(
            "decode-long",
            "n=1024, t=128 on the GQA profile model: decode dominates, so KV cache appends "
            "and per-step attention show while prompt-only changes stay flat",
            "random", n=1024, k=256, r=3, t=128,
        ),
        Workload(
            "needle-8k",
            "8192-token haystack on the copy model: the largest n x n transients, no GQA "
            "groups, and selection exactly checkable against a planted needle",
            "copy", n=8193, k=64, r=1, t=8,
        ),
        Workload(
            "needle-2k",
            "2048-token haystack on the copy model, t=256: a short prefill and a long decode, no GQA "
            "groups, and selection exactly checkable against a planted needle",
            "copy", n=2049, k=64, r=1, t=256,
        ),
    )
}


def random_model_config() -> config.ModelConfig:
    """The ROADMAP profile config: m=8, h=4, h_kv=2, d_h=16, H=128."""
    return config.ModelConfig(
        n_layers=8,
        n_heads=4,
        n_kv_heads=2,
        head_dim=16,
        d_model=64,
        vocab_size=tokenizer.VOCAB_SIZE,
        hidden_mlp=128,
    )


@dataclass
class Inputs:
    weights: ModelWeights
    prompt: list[int]
    needle_span: tuple[int, int] | None  # [start, end) of the planted needle
    record: dict  # what the seed chose, for the output record


def build_inputs(wl: Workload, seed: int, workdir: Path) -> Inputs:
    """Build the model, round-trip it through GFM1, and make the prompt."""
    rng = np.random.default_rng(seed)
    span = None
    if wl.model == "random":
        weights = testmodels.make_random_model(random_model_config(), seed)
        prompt = rng.integers(0, 256, size=wl.n).tolist()
        record: dict = {}
    else:
        weights = testmodels.make_copy_model(testmodels.copy_model_config())
        token = int(rng.integers(0, 256))
        spec = needle.NeedleSpec(
            haystack_len=wl.n - 1,
            depth_percent=float(rng.uniform(0.0, 100.0)),
            needle=(token,) * NEEDLE_LEN,
            query_token=token,
            seed=seed,
        )
        prompt, span = needle.build_needle_prompt(spec, weights.config.vocab_size)
        record = {"needle_token": token, "depth_percent": spec.depth_percent, "needle_span": list(span)}
    path = workdir / f"{wl.name}.gfm"
    modelio.save_model(path, weights)
    weights = modelio.load_model(path)
    return Inputs(weights=weights, prompt=prompt, needle_span=span, record=record)


def params_record(wl: Workload, weights: ModelWeights) -> dict:
    cfg = weights.config
    return {
        "model": wl.model,
        "n": wl.n,
        "k": wl.k,
        "r": wl.r,
        "t": wl.t,
        "m": cfg.n_layers,
        "h": cfg.n_heads,
        "h_kv": cfg.n_kv_heads,
        "d_h": cfg.head_dim,
        "H": cfg.hidden_mlp,
        "V": cfg.vocab_size,
        "rope": cfg.use_rope,
    }
