"""Dense numeric kernels the rest of the engine composes.

All kernels are pure functions of their inputs and deterministic for a fixed
process configuration.  ``matmul`` reports its work to the ambient cost
session (see :mod:`gemfilter.counting`).  The other matrix products, those
of attention, are charged by the attention kernel itself
(:func:`gemfilter.model._attention`), at their dense size; elementwise work
is not counted, by convention.  The layer's fused Q/K/V projection is one
``matmul`` over ``[wq | wk | wv]``, so its charge is the sum of the three
separate products'.  ``rms_norm_rows`` is the one norm (a vector is a
one-row matrix); it reduces with ``np.add.reduce`` directly, the same
float32 sum and division ``np.mean`` makes, without ``np.mean``'s
Python-level dispatch, which dominated a one-row call.  Ties in
``topk_indices`` and ``argmax`` always break toward the lower index so every
downstream selection is reproducible.  Every selection and every emitted
token passes through one of those two, so both reject non-finite input
rather than pick from NaN scores or logits.
"""

from __future__ import annotations

import numpy as np

from .counting import count_matmul
from .errors import ContractViolation


def matmul(a: np.ndarray, b: np.ndarray, tag: str = "other") -> np.ndarray:
    """Matrix product of two 2-D arrays.

    Charges ``2 * M * K * N`` FLOPs to the active cost session under ``tag``
    (one multiply-add = 2 FLOPs).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ContractViolation(f"matmul expects 2-D operands, got {a.ndim}-D and {b.ndim}-D")
    if a.shape[1] != b.shape[0]:
        raise ContractViolation(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    count_matmul(tag, a.shape[0], a.shape[1], b.shape[1])
    return a @ b


def rms_norm_rows(x: np.ndarray, gain: np.ndarray, eps: float) -> np.ndarray:
    """Root-mean-square normalization of each row: ``x * gain / sqrt(mean(x^2) + eps)``."""
    x = np.asarray(x)
    gain = np.asarray(gain)
    if x.ndim != 2 or gain.ndim != 1 or x.shape[1] != gain.shape[0]:
        raise ContractViolation("rms_norm_rows expects (n, d) inputs and a length-d gain")
    # The sum and the division np.mean makes, without its dispatch.
    mean_sq = np.add.reduce(np.square(x), axis=1, keepdims=True) / x.shape[1]
    inv = 1.0 / np.sqrt(mean_sq + x.dtype.type(eps))
    return x * inv * gain


def avg_pool_1d(v: np.ndarray, kernel: int) -> np.ndarray:
    """Length-preserving 1-D average pooling with zero padding.

    ``out[i]`` is the mean of the window ``[i - kernel//2, i + kernel//2]``
    where positions outside the vector contribute zeros and still count in
    the denominator.  Only odd kernels preserve length, so even kernels are
    rejected.
    """
    v = np.asarray(v)
    if v.ndim != 1 or v.size == 0:
        raise ContractViolation("avg_pool_1d expects a non-empty vector")
    if kernel < 1 or kernel % 2 == 0:
        raise ContractViolation(f"avg_pool_1d kernel must be odd and >= 1, got {kernel}")
    if not np.issubdtype(v.dtype, np.floating):
        v = v.astype(np.float64)
    if kernel == 1:
        return v.copy()
    half = kernel // 2
    padded = np.zeros(v.size + 2 * half, dtype=v.dtype)
    padded[half : half + v.size] = v
    windows = np.lib.stride_tricks.sliding_window_view(padded, kernel)
    return windows.sum(axis=1) / v.dtype.type(kernel)


def max_pool_1d(v: np.ndarray, kernel: int) -> np.ndarray:
    """Length-preserving 1-D max pooling (windows clipped at the edges).

    The alternate smoothing mode for selection scores; padding positions are
    ignored rather than contributing zeros.
    """
    v = np.asarray(v)
    if v.ndim != 1 or v.size == 0:
        raise ContractViolation("max_pool_1d expects a non-empty vector")
    if kernel < 1 or kernel % 2 == 0:
        raise ContractViolation(f"max_pool_1d kernel must be odd and >= 1, got {kernel}")
    if not np.issubdtype(v.dtype, np.floating):
        v = v.astype(np.float64)
    if kernel == 1:
        return v.copy()
    half = kernel // 2
    padded = np.full(v.size + 2 * half, -np.inf, dtype=v.dtype)
    padded[half : half + v.size] = v
    windows = np.lib.stride_tricks.sliding_window_view(padded, kernel)
    return windows.max(axis=1)


def pool_1d(v: np.ndarray, kernel: int, mode: str = "avg") -> np.ndarray:
    """Dispatch between the two score-smoothing modes."""
    if mode == "avg":
        return avg_pool_1d(v, kernel)
    if mode == "max":
        return max_pool_1d(v, kernel)
    raise ContractViolation(f"unknown pooling mode {mode!r}; expected 'avg' or 'max'")


def topk_indices(v: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest values, in descending-score order.

    Ties break toward the lower index.  Invariant under any strictly
    increasing transform of ``v``.
    """
    v = np.asarray(v)
    if v.ndim != 1 or v.size == 0:
        raise ContractViolation("topk_indices expects a non-empty vector")
    if not 1 <= k <= v.size:
        raise ContractViolation(f"topk k={k} out of range for length {v.size}")
    _require_finite(v, "topk_indices")
    order = np.argsort(-v, kind="stable")
    return order[:k].astype(np.int64)


def argmax(v: np.ndarray) -> int:
    """Index of the maximum value; lowest index wins ties."""
    v = np.asarray(v)
    if v.ndim != 1 or v.size == 0:
        raise ContractViolation("argmax expects a non-empty vector")
    _require_finite(v, "argmax")
    return int(np.argmax(v))


def _require_finite(v: np.ndarray, what: str) -> None:
    if not np.isfinite(v).all():
        bad = int(np.flatnonzero(~np.isfinite(v))[0])
        raise ContractViolation(f"{what} input is not finite (value {v[bad]} at index {bad})")
