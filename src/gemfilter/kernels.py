"""Dense numeric kernels the rest of the engine composes.

All kernels are pure functions of their inputs and deterministic for a fixed
process configuration.  None charges the cost session: :mod:`gemfilter.model`
charges every product it runs, and elementwise work is not counted, by
convention.

``rms_norm_rows`` is the one norm (a vector is a one-row matrix), called
twice per layer and once for the logits.  It reduces with
``np.add.reduce`` directly, the same float32 sum and division ``np.mean``
makes, without ``np.mean``'s Python-level dispatch.  A one-row call (every
norm of a decode step) works out its row's statistic on scalars, each step
one IEEE operation rounded to the row's dtype, so it gives the bytes of
the array chain without four one-element ufunc calls.  ``pool_1d`` is the one
score-smoothing kernel, an average pool, and ``check_pooling`` is the check
it makes, for callers that reject a bad kernel before any work.  Ties in
``topk_indices`` and ``argmax`` always break toward the lower index so every
downstream selection is reproducible.  Every selection and every emitted
token passes through one of those two, so both reject non-finite input
rather than pick from NaN scores or logits.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .config import is_integer
from .errors import ContractViolation


def rms_norm_rows(x: np.ndarray, gain: np.ndarray, eps: float) -> np.ndarray:
    """Root-mean-square normalization of each row: ``x * gain / sqrt(mean(x^2) + eps)``.

    ``x`` is float16, float32 or float64 and ``eps >= 0``.  Every step of
    the statistic rounds to ``x``'s dtype: the row sum, ``/ d``, ``+ eps``,
    the square root and ``1 / ...``.  One row takes them on scalars: numpy
    scalars divide and add in the dtype, and ``math.sqrt``'s double result
    rounded to the dtype is the correctly rounded root.  So a one-row call
    gives the bytes of the ``(rows, 1)`` array chain taller calls run.
    """
    x = np.asarray(x)
    gain = np.asarray(gain)
    if x.ndim != 2 or x.dtype.char not in "efd" or gain.ndim != 1 or x.shape[1] != gain.shape[0]:
        raise ContractViolation(
            "rms_norm_rows expects (n, d) float16, float32 or float64 rows and a length-d gain"
        )
    if not eps >= 0:
        raise ContractViolation(f"rms_norm_rows eps must be >= 0, got {eps}")
    f = x.dtype.type
    if x.shape[0] == 1:
        mean_sq = np.add.reduce(np.square(x[0])) / x.shape[1]
        inv = 1.0 / f(math.sqrt(mean_sq + f(eps)))
    else:
        # The sum and the division np.mean makes, without its dispatch.
        mean_sq = np.add.reduce(np.square(x), axis=1, keepdims=True) / x.shape[1]
        inv = 1.0 / np.sqrt(mean_sq + f(eps))
    out = x * inv
    out *= gain  # in place, so only one array the size of x is made
    return out


def check_pooling(kernel: int) -> None:
    """Reject a kernel :func:`pool_1d` cannot apply.

    Only odd integer kernels preserve length, so even ones are rejected; a
    kernel above the largest float cannot divide a window's sum.
    """
    if not is_integer(kernel) or kernel < 1 or kernel % 2 == 0:
        raise ContractViolation(f"pool kernel must be an odd integer >= 1, got {kernel!r}")
    if kernel > sys.float_info.max:
        raise ContractViolation(f"pool kernel exceeds the largest float {sys.float_info.max}")


def pool_1d(v: np.ndarray, kernel: int) -> np.ndarray:
    """Length-preserving 1-D average pooling over the windows ``[i - kernel//2, i + kernel//2]``.

    Each output is the window's sum divided by ``kernel``, where positions
    outside the vector contribute zeros and still count in the denominator.
    Padding stops at ``n - 1`` per side, since a wider window reaches no
    further position, so memory is O(n) for any kernel.  Every position
    whose window covers the whole vector gets one shared value,
    ``sum(v) / kernel``: their padded windows differ only in where the zeros
    sit, which moves the sum's rounding, and a tie among them must break
    toward the lower index, not by rounding.
    """
    check_pooling(kernel)
    v = np.asarray(v)
    if v.ndim != 1 or v.size == 0:
        raise ContractViolation("pool_1d expects a non-empty vector")
    if not np.issubdtype(v.dtype, np.floating):
        v = v.astype(np.float64)
    reach = kernel // 2
    half = min(reach, v.size - 1)
    padded = np.zeros(v.size + 2 * half, dtype=v.dtype)
    padded[half : half + v.size] = v
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * half + 1)
    out = windows.sum(axis=1) / v.dtype.type(kernel)
    out[max(v.size - 1 - reach, 0) : reach + 1] = np.add.reduce(v) / v.dtype.type(kernel)
    return out


def topk_indices(v: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest values, in descending-score order.

    Ties break toward the lower index.  Invariant under any strictly
    increasing transform of ``v``.
    """
    v = np.asarray(v)
    if v.ndim != 1 or v.size == 0:
        raise ContractViolation("topk_indices expects a non-empty vector")
    if not is_integer(k) or not 1 <= k <= v.size:
        raise ContractViolation(f"topk k={k!r} is not an integer in 1..{v.size}")
    _require_finite(v, "topk_indices")
    # The k-th largest value by a partition, not a full sort: every position
    # above it is kept, then the lowest-index positions equal to it.
    kth = np.partition(v, v.size - k)[v.size - k]
    kept = v > kth
    kept[np.flatnonzero(v == kth)[: k - np.count_nonzero(kept)]] = True
    chosen = np.flatnonzero(kept)
    return chosen[np.argsort(-v[chosen], kind="stable")].astype(np.int64)


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
