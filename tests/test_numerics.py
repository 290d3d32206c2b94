"""Core numeric helpers: RNG, finiteness checks, checksums, flat views, AdamW."""

import hashlib

import numpy as np
import pytest

from metalora.errors import DimensionError, NumericError
from metalora.numerics import (AdamWState, adamw_step, check_finite, checksum,
                               flat_views, make_rng)


class TestRngAndGaussian:
    def test_make_rng_deterministic(self):
        a = make_rng(123).standard_normal(10)
        b = make_rng(123).standard_normal(10)
        assert np.array_equal(a, b)

    def test_make_rng_distinct_seeds(self):
        assert not np.array_equal(make_rng(1).standard_normal(10),
                                  make_rng(2).standard_normal(10))

    def test_checksum_sensitive_and_stable(self):
        a = np.arange(6.0).reshape(2, 3)
        c1 = checksum(a)
        assert c1 == checksum(a.copy())
        b = a.copy()
        b[1, 2] += 1e-15
        assert checksum(b) != c1

    def test_checksum_hashes_little_endian_bytes(self):
        a = make_rng(3).normal(size=(3, 5))
        big = a.astype(">f8")
        assert big.tobytes() != a.astype("<f8").tobytes()
        assert checksum(big) == checksum(a.astype("<f8"))
        assert checksum(big) == hashlib.sha1(a.astype("<f8").tobytes()).hexdigest()


class TestFiniteChecks:
    def test_check_finite_passes(self):
        check_finite(np.ones((2, 2)), "w")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_check_finite_raises(self, bad):
        arr = np.ones((2, 2))
        arr[0, 1] = bad
        with pytest.raises(NumericError):
            check_finite(arr, "w")


def hand_adamw(p, g, lr, b1, b2, eps, wd, steps):
    """Independent scalar AdamW oracle."""
    m = v = 0.0
    for t in range(1, steps + 1):
        p = p - lr * wd * p
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        p = p - lr * mh / (np.sqrt(vh) + eps)
    return p


class TestAdamW:
    def test_single_step_hand_evaluated(self):
        # One step, scalar: m = 0.1*g, v = 0.001*g^2, bias correction exact.
        p = np.array([[2.0]])
        g = np.array([[0.5]])
        st_ = AdamWState(lr=0.1)
        adamw_step(p, g, st_)
        want = hand_adamw(2.0, 0.5, 0.1, 0.9, 0.999, 1e-8, 0.0, 1)
        assert abs(p[0, 0] - want) < 1e-14

    def test_multi_step_matches_scalar_oracle(self):
        p = np.array([[1.5]])
        g = np.array([[-0.3]])
        st_ = AdamWState(lr=0.05, weight_decay=0.01)
        for _ in range(7):
            adamw_step(p, g, st_)
        want = hand_adamw(1.5, -0.3, 0.05, 0.9, 0.999, 1e-8, 0.01, 7)
        assert abs(p[0, 0] - want) < 1e-12

    def test_zero_grad_zero_wd_is_noop(self):
        p = make_rng(3).standard_normal((4, 4))
        before = p.copy()
        st_ = AdamWState(lr=0.1)
        adamw_step(p, np.zeros_like(p), st_)
        assert np.array_equal(p, before)

    def test_zero_lr_is_identity(self):
        p = make_rng(4).standard_normal((3, 3))
        before = p.copy()
        st_ = AdamWState(lr=0.0, weight_decay=0.0)
        adamw_step(p, np.ones_like(p), st_)
        assert np.array_equal(p, before)

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            adamw_step(np.zeros((1, 1)), np.zeros((1, 1)), AdamWState(lr=-1.0))

    @pytest.mark.parametrize("buffer", ["step", "m", "v"])
    def test_constructor_takes_only_the_settings(self, buffer):
        # the step count and the moments are the optimizer's own, made by its first step
        with pytest.raises(TypeError):
            AdamWState(lr=0.1, **{buffer: 3 if buffer == "step" else np.zeros((1, 1))})
        st_ = AdamWState(lr=0.1, weight_decay=0.01)
        assert (st_.step, st_.m, st_.v) == (0, None, None)

    def test_nonfinite_grad_rejected(self):
        p = np.zeros((2, 2))
        g = np.full((2, 2), np.nan)
        with pytest.raises(NumericError):
            adamw_step(p, g, AdamWState(lr=0.1))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            adamw_step(np.zeros((2, 2)), np.zeros((2, 3)), AdamWState(lr=0.1))

    def test_deterministic_across_runs(self):
        def run():
            rng = make_rng(9)
            p = rng.standard_normal((5, 5))
            st_ = AdamWState(lr=0.01)
            for _ in range(20):
                adamw_step(p, rng.standard_normal((5, 5)), st_)
            return p
        assert np.array_equal(run(), run())


class TestFlatViews:
    def test_views_are_consecutive_slices_shaped_after_the_leading_axes(self):
        buf = np.arange(2 * 18.0).reshape(2, 18)
        a, b, c = flat_views(buf, [(3, 4), (5,), ()])
        assert (a.shape, b.shape, c.shape) == ((2, 3, 4), (2, 5), (2,))
        assert np.array_equal(a, buf[:, :12].reshape(2, 3, 4))
        assert np.array_equal(b, buf[:, 12:17]) and np.array_equal(c, buf[:, 17])
        assert all(np.shares_memory(view, buf) for view in (a, b, c))
        a[1, 2, 3] = -1.0  # a write through a view lands in the buffer
        assert buf[1, 11] == -1.0
