"""Model architecture hyperparameters."""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, fields

import numpy as np

from .errors import ConfigurationError


def is_integer(value) -> bool:
    """The one integer rule: a Python or numpy integer, never a bool or ``np.bool_``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# Per annotated field type: the values it accepts, and how to name them.
_FIELD_KINDS = {
    "int": (is_integer, "an integer"),
    "float": (
        lambda v: (is_integer(v) or isinstance(v, (float, np.floating))) and math.isfinite(v),
        "a finite number",
    ),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
}


def check_field_types(obj) -> None:
    """Reject a value its dataclass field's annotated type does not accept.

    An accepted numpy scalar is stored as the equal Python scalar; fields of
    types other than ``int``, ``float`` and ``bool`` are left to the dataclass.
    """
    for f in fields(obj):
        accepts, kind = _FIELD_KINDS.get(f.type, (None, None))
        value = getattr(obj, f.name)
        if accepts is not None and not accepts(value):
            raise ConfigurationError(f"{f.name} must be {kind}, got {value!r}")
        elif accepts is not None and isinstance(value, np.generic):
            object.__setattr__(obj, f.name, value.item())


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    n_heads: int
    n_kv_heads: int
    head_dim: int
    d_model: int
    vocab_size: int
    hidden_mlp: int
    rope_theta: float = 10000.0
    use_rope: bool = True
    norm_eps: float = 1e-5
    max_seq: int = 8192

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.n_layers < 1:
            raise ConfigurationError("n_layers must be >= 1")
        if self.n_heads < 1 or self.n_kv_heads < 1:
            raise ConfigurationError("head counts must be >= 1")
        if self.head_dim < 1:
            raise ConfigurationError("head_dim must be >= 1")
        if self.n_heads % self.n_kv_heads != 0:
            raise ConfigurationError(
                f"n_heads ({self.n_heads}) must be divisible by n_kv_heads ({self.n_kv_heads})"
            )
        if self.d_model != self.n_heads * self.head_dim:
            raise ConfigurationError(
                f"d_model ({self.d_model}) must equal n_heads * head_dim "
                f"({self.n_heads} * {self.head_dim})"
            )
        if self.vocab_size < 2:
            raise ConfigurationError("vocab_size must be >= 2")
        if self.hidden_mlp < 1:
            raise ConfigurationError("hidden_mlp must be >= 1")
        if self.rope_theta <= 0:
            raise ConfigurationError("rope_theta must be positive")
        if self.use_rope and self.head_dim % 2 != 0:
            raise ConfigurationError("rotary embedding requires an even head_dim")
        if self.norm_eps <= 0:
            raise ConfigurationError("norm_eps must be positive")
        if self.max_seq < 1:
            raise ConfigurationError("max_seq must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        extra = set(data) - {f.name for f in fields(cls)}
        if extra:
            raise ConfigurationError(f"unknown config fields: {sorted(extra)}")
        h, dh = data.get("n_heads"), data.get("head_dim")
        # d_model may be omitted; it is determined by an integer head layout.
        values = {"d_model": h * dh if is_integer(h) and is_integer(dh) else None, **data}
        try:
            return cls(**values)
        except TypeError as exc:
            raise ConfigurationError(str(exc)) from exc
