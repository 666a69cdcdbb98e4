"""Kernel tests: frozen hand-derived values plus independent oracles."""

import math

import numpy as np
import pytest

from gemfilter.errors import ContractViolation
from gemfilter.kernels import (
    argmax,
    pool_1d,
    rms_norm_rows,
    topk_indices,
)
from helpers import pool_oracle, topk_oracle

F32 = np.float32


# ---------------------------------------------------------------- oracles


def argmax_oracle(v):
    best = 0
    for i in range(1, len(v)):
        if float(v[i]) > float(v[best]):
            best = i
    return best


# ---------------------------------------------------------------- rms norm


class TestRmsNorm:
    """One-row inputs hold the vector cases; each row is normalized on its own."""

    def test_all_ones_fixed_point(self):
        ones = np.ones(5, dtype=F32)
        assert rms_norm_rows(ones[None], ones, 0.0)[0] == pytest.approx([1.0] * 5)

    def test_signed_pair(self):
        out = rms_norm_rows(np.asarray([[3.0, -3.0]], dtype=F32), np.ones(2, dtype=F32), 0.0)
        assert out[0] == pytest.approx([1.0, -1.0])

    def test_against_literal_formula(self):
        x = np.asarray([1.0, 2.0, 2.0], dtype=F32)
        gain = np.asarray([2.0, 2.0, 2.0], dtype=F32)
        expected = [
            float(xi) * float(gi) / math.sqrt((1 + 4 + 4) / 3)
            for xi, gi in zip(x, gain)
        ]
        assert rms_norm_rows(x[None], gain, 0.0)[0] == pytest.approx(expected, rel=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(ContractViolation):
            rms_norm_rows(np.ones((1, 3), dtype=F32), np.ones(2, dtype=F32), 0.0)

    def test_each_row_matches_a_one_row_call(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 9)).astype(F32)
        gain = rng.standard_normal(9).astype(F32)
        rows = rms_norm_rows(x, gain, 1e-5)
        for i in range(x.shape[0]):
            one_row = rms_norm_rows(x[i : i + 1], gain, 1e-5)[0]
            np.testing.assert_allclose(rows[i], one_row, rtol=1e-6)

    @pytest.mark.parametrize("d", [1, 7, 64, 129])
    def test_bit_identical_to_mean_formula(self, d):
        rng = np.random.default_rng(d)
        x = (rng.standard_normal((33, d)) * 10.0 ** rng.integers(-3, 4, (33, 1))).astype(F32)
        gain = rng.standard_normal(d).astype(F32)
        inv = 1.0 / np.sqrt(np.mean(np.square(x), axis=1, keepdims=True) + F32(1e-5))
        assert np.array_equal(rms_norm_rows(x, gain, 1e-5), x * inv * gain)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [1, 7, 64, 129, 300])
    def test_one_row_bytes_equal_the_array_formula(self, d, dtype):
        """A one-row call, which works its statistic out on scalars, gives the
        bytes of the (rows, 1) array chain: on signed zeros, infinities, NaN,
        subnormals, the largest finite values and random bit patterns."""
        finfo = np.finfo(dtype)
        bits = np.dtype(f"u{finfo.dtype.itemsize}")
        specials = np.array(
            [0.0, -0.0, np.inf, -np.inf, np.nan, finfo.max, -finfo.max,
             finfo.smallest_subnormal, -finfo.smallest_subnormal, finfo.tiny, 1.0],
            dtype=dtype,
        )
        rng = np.random.default_rng(d)
        rows = [specials[i : i + 1].repeat(d) for i in range(len(specials))]
        with np.errstate(all="ignore"):
            for _ in range(24):
                patterns = rng.integers(0, np.iinfo(bits).max, d, dtype=bits, endpoint=True)
                rows.append(patterns.view(dtype))
                rows.append(rng.choice(specials, d))
                rows.append((rng.standard_normal(d) * 10.0 ** rng.integers(-45, 45)).astype(dtype))
            for eps in (1e-12, 1e-9, 1e-6, 1e-5, 1e-3, 0.1, 1.0):
                for row in rows:
                    x = row[None]
                    gain = rng.standard_normal(d).astype(dtype)
                    mean_sq = np.add.reduce(np.square(x), axis=1, keepdims=True) / d
                    expected = x * (1.0 / np.sqrt(mean_sq + dtype(eps))) * gain
                    assert rms_norm_rows(x, gain, eps).tobytes() == expected.tobytes(), (eps, row)

    @pytest.mark.parametrize("eps", [-1e-5, float("nan")])
    def test_negative_or_nan_eps_rejected(self, eps):
        with pytest.raises(ContractViolation, match="eps must be >= 0"):
            rms_norm_rows(np.ones((1, 3), dtype=F32), np.ones(3, dtype=F32), eps)

    @pytest.mark.parametrize("dtype", [np.int32, np.bool_, np.longdouble])
    def test_rows_that_are_not_float16_32_or_64_rejected(self, dtype):
        with pytest.raises(ContractViolation, match="float16, float32 or float64"):
            rms_norm_rows(np.ones((1, 3), dtype=dtype), np.ones(3, dtype=F32), 1e-5)


# ---------------------------------------------------------------- pooling


class TestAvgPool1d:
    def test_frozen_plateau(self):
        out = pool_1d(np.asarray([1.0, 1.0, 1.0, 1.0, 1.0]), 5)
        assert out == pytest.approx([0.6, 0.8, 1.0, 0.8, 0.6])

    def test_kernel_one_is_identity(self):
        v = np.asarray([3.0, -1.0, 2.0], dtype=F32)
        assert np.array_equal(pool_1d(v, 1), v)

    def test_single_spike_spreads(self):
        out = pool_1d(np.asarray([0.0, 0.0, 5.0, 0.0, 0.0]), 5)
        assert out == pytest.approx([1.0, 1.0, 1.0, 1.0, 1.0])

    def test_even_kernel_rejected(self):
        with pytest.raises(ContractViolation):
            pool_1d(np.ones(4), 2)

    def test_against_window_oracle_1000_trials(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(1, 24))
            kernel = int(rng.choice([1, 3, 5, 7]))
            v = rng.standard_normal(n)
            np.testing.assert_allclose(pool_1d(v, kernel), pool_oracle(v, kernel), atol=1e-6)

    @pytest.mark.parametrize("kernel", [1, 3, 7, 99, 2**70 + 1])
    def test_integer_vector_pools_as_float64(self, kernel):
        v = np.asarray([3, -1, 4, 1, -5, 9, 2], dtype=np.int64)
        out = pool_1d(v, kernel)
        assert out.dtype == np.float64
        assert out.tobytes() == pool_1d(v.astype(np.float64), kernel).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, F32])
    def test_windows_over_the_whole_vector_tie_toward_the_lower_index(self, dtype):
        """Every window that covers the whole vector holds ``v`` and the same
        count of padding zeros, so all of them pool to the same bits, and
        top-k among them keeps the lowest positions."""
        rng = np.random.default_rng(29)
        for n in range(2, 41):
            v = rng.standard_normal(n).astype(dtype)
            for kernel in (2 * n - 1, 2 * n + 1, 4 * n + 1):
                out = pool_1d(v, kernel)
                assert out.dtype == dtype
                assert out.tobytes() == np.full(n, out[0], dtype=dtype).tobytes(), (n, kernel)
                np.testing.assert_allclose(out, pool_oracle(v, kernel), rtol=1e-5, atol=1e-6)
                for k in (1, n // 2, n):
                    assert topk_indices(out, k).tolist() == list(range(k))
        # Kernel 17 over 12 positions: only the windows of positions 3..8 cover all 12.
        v = rng.standard_normal(12)
        out = pool_1d(v, 17)
        assert out[3:9].tobytes() == np.full(6, out[3]).tobytes()
        for k in (1, 3, 6):
            assert topk_indices(out[3:9], k).tolist() == list(range(k))
        np.testing.assert_allclose(out, pool_oracle(v, 17), atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, F32])
    def test_windows_over_the_same_values_tie_toward_the_lower_index(self, dtype):
        """``v[0] == v[5]``, so the kernel-5 windows of positions 2 and 3 hold
        the same values in another order: they pool to the same bits, and
        top-k keeps position 2 first, whatever order a sum would meet them."""
        rng = np.random.default_rng(31)
        for _ in range(200):
            v = rng.standard_normal(6).astype(dtype)
            v[5] = v[0]
            out = pool_1d(v, 5)
            assert out[2].tobytes() == out[3].tobytes(), v
            if out[2] >= out.max():
                assert topk_indices(out, 1).tolist() == [2]

    def test_sum_conservation_minus_boundary_leakage(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(32)
        kernel = 5
        pooled = pool_1d(v, kernel)
        # The oracle accounts for exactly the same boundary leakage.
        assert pooled.sum() == pytest.approx(pool_oracle(v, kernel).sum(), abs=1e-9)


# ---------------------------------------------------------------- top-k


class TestTopkIndices:
    def test_frozen_example(self):
        assert topk_indices(np.asarray([3.0, 1.0, 4.0, 1.0, 5.0]), 2).tolist() == [4, 2]

    def test_ties_break_to_lower_index(self):
        assert topk_indices(np.asarray([7.0, 7.0, 7.0]), 2).tolist() == [0, 1]

    def test_k_equals_length_is_permutation(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(11)
        assert sorted(topk_indices(v, 11).tolist()) == list(range(11))

    def test_k_out_of_range(self):
        with pytest.raises(ContractViolation):
            topk_indices(np.ones(3), 4)
        with pytest.raises(ContractViolation):
            topk_indices(np.ones(3), 0)

    def test_against_full_sort_oracle_1000_trials(self):
        rng = np.random.default_rng(6)
        for trial in range(1000):
            # Every tenth trial is as long as gemfilter's needle-2k scores.
            n = int(rng.integers(1, 2050 if trial % 10 == 0 else 30))
            k = int(rng.integers(1, n + 1))
            # Duplicates included so tie-breaking is exercised, and zeros of
            # either sign, which tie with each other.
            v = rng.integers(-4, 5, size=n).astype(np.float64)
            zeros = v == 0
            v[zeros] = np.copysign(0.0, rng.standard_normal(zeros.sum()))
            assert topk_indices(v, k).tolist() == topk_oracle(v, k)

    def test_constant_vector_tie_break_rule(self):
        v = np.full(9, 2.5)
        assert topk_indices(v, 4).tolist() == [0, 1, 2, 3]

    def test_invariant_under_strictly_increasing_transforms(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = rng.standard_normal(20)
            base = topk_indices(v, 7).tolist()
            assert topk_indices(2.0 * v, 7).tolist() == base
            assert topk_indices(v + 10.0, 7).tolist() == base
            assert topk_indices(0.5 * v - 3.0, 7).tolist() == base


# ---------------------------------------------------------------- argmax


class TestArgmax:
    def test_basic(self):
        assert argmax(np.asarray([0.0, 1.0, 0.0])) == 1

    def test_tie_break(self):
        assert argmax(np.asarray([2.0, 2.0])) == 0

    def test_against_linear_scan_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            v = rng.integers(-3, 4, size=int(rng.integers(1, 25))).astype(np.float64)
            assert argmax(v) == argmax_oracle(v)

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            argmax(np.asarray([]))
