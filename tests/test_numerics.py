"""Core numeric helpers: RNG, gaussian init, finiteness checks, AdamW."""

import numpy as np
import pytest

from metalora.errors import DimensionError, NumericError
from metalora.numerics import (AdamWState, FlatGroup, adamw_step, check_finite,
                               checksum, gaussian, make_rng)


class TestRngAndGaussian:
    def test_make_rng_deterministic(self):
        a = make_rng(123).standard_normal(10)
        b = make_rng(123).standard_normal(10)
        assert np.array_equal(a, b)

    def test_make_rng_distinct_seeds(self):
        assert not np.array_equal(make_rng(1).standard_normal(10),
                                  make_rng(2).standard_normal(10))

    def test_gaussian_zero_std_exact_zeros(self):
        g = gaussian(make_rng(0), 4, 5, 0.0)
        assert g.shape == (4, 5)
        assert np.count_nonzero(g) == 0

    def test_gaussian_negative_std_rejected(self):
        with pytest.raises(ValueError):
            gaussian(make_rng(0), 2, 2, -1.0)

    def test_gaussian_moments(self):
        # 1e5 samples: sample mean within 3*sigma/sqrt(n) of 0,
        # sample std within 2% of requested.
        n = 100_000
        std = 0.7
        g = gaussian(make_rng(5), n, 1, std)
        assert abs(g.mean()) < 3 * std / np.sqrt(n)
        assert abs(g.std() - std) / std < 0.02

    def test_checksum_sensitive_and_stable(self):
        a = np.arange(6.0).reshape(2, 3)
        c1 = checksum(a)
        assert c1 == checksum(a.copy())
        b = a.copy()
        b[1, 2] += 1e-15
        assert checksum(b) != c1


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


class TestFlatGroup:
    def test_matches_an_adamw_step_per_tensor(self):
        rng = make_rng(3)
        tensors = [rng.standard_normal((4, 3)), rng.standard_normal((2, 5))]
        group = FlatGroup(tensors, AdamWState(lr=0.05, weight_decay=0.01))
        states = [AdamWState(lr=0.05, weight_decay=0.01) for _ in tensors]
        for _ in range(5):
            items = [rng.standard_normal((3, *t.shape)) for t in tensors]
            group.step(items)
            for t, g, st_ in zip(tensors, items, states):
                adamw_step(t, sum(g, np.zeros(t.shape)), st_)
        assert [t.tobytes() for t in group.tensors] == [t.tobytes() for t in tensors]
        assert all(np.shares_memory(t, group.flat) for t in group.tensors)

    def test_gradient_adds_items_onto_zeros_in_item_order(self):
        # signed zeros: 0.0 + -0.0 is 0.0; order: (1e16 + 1) - 1e16 is 0
        g = np.array([[-0.0, 1e16, 0.5], [-0.0, 1.0, -0.0], [-0.0, -1e16, 0.25]])
        items = [np.stack([g, -g, 2 * g], axis=1), g[:, :2]]  # (3 items, 3, 3), (3 items, 2)
        group = FlatGroup([np.zeros((3, 3)), np.zeros(2)], AdamWState(lr=0.0))
        group.step(items)
        want = [sum(i, np.zeros(i.shape[1:])) for i in items]
        assert group.grad.tobytes() == b"".join(w.tobytes() for w in want)
        assert not np.signbit(want[0][0, 0]) and want[0][0, 1] == 0.0

    def test_negative_lr_rejected_before_any_step(self):
        with pytest.raises(ValueError, match="lr must be >= 0"):
            FlatGroup([np.zeros(2)], AdamWState(lr=-1.0))
