"""Long-context transformer inference with early-layer token selection.

Public surface: numeric kernels, the decoder-only model, KV compression
baselines, the token-selection path, the exact cost model, and the harness
(tokenizer, model files, seeded test models, needle runs, CLI).
"""

from .config import ModelConfig
from .counting import GENERATION, PROMPT, CostSession, PhaseCost
from .costmodel import CostParams, cost_table, verify_counters
from .errors import (
    ConfigurationError,
    ContractViolation,
    EngineError,
    ModelFormatError,
)
from .model import (
    LayerKV,
    ModelWeights,
    decode_step,
    embed,
    prefill,
)
from .modelio import load_model, save_model
from .needle import NeedleReport, NeedleSpec, needle_run
from .runner import RunConfig, RunResult, Strategy, run_generation
from .selection import (
    SelectionResult,
    decode_selection,
    select_indices,
    selection_scores,
)
from .testmodels import copy_model_config, make_copy_model, make_random_model
from .tokenizer import VOCAB_SIZE, detokenize, tokenize

__version__ = "0.1.0"

__all__ = [
    "CostParams",
    "CostSession",
    "ConfigurationError",
    "ContractViolation",
    "EngineError",
    "GENERATION",
    "LayerKV",
    "ModelConfig",
    "ModelFormatError",
    "ModelWeights",
    "NeedleReport",
    "NeedleSpec",
    "PROMPT",
    "PhaseCost",
    "RunConfig",
    "RunResult",
    "SelectionResult",
    "Strategy",
    "VOCAB_SIZE",
    "copy_model_config",
    "cost_table",
    "decode_selection",
    "decode_step",
    "detokenize",
    "embed",
    "load_model",
    "make_copy_model",
    "make_random_model",
    "needle_run",
    "prefill",
    "run_generation",
    "save_model",
    "select_indices",
    "selection_scores",
    "tokenize",
    "verify_counters",
]
