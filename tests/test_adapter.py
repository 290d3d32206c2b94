"""Three-factor adapter: forward chain, analytic gradients, merge."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metalora import kernels
from metalora.adapter import (AdaptedLayer, AdapterFactors, init_factors,
                              merge, merged_forward)
from metalora.errors import DimensionError, RankError
from metalora.numerics import AdamWState, adamw_step, checksum, make_rng


def random_layer(rng, d1, d2, r1, r2, scale=1.0, nonzero_up=True):
    f = init_factors(rng, d1, d2, r1, r2, mode="fresh")
    if nonzero_up:
        f.l_up[:] = rng.standard_normal(f.l_up.shape) / np.sqrt(r2)
    w0 = rng.standard_normal((d2, d1)) / np.sqrt(d1)
    return AdaptedLayer(w0, f, scale=scale)


class TestForwardChain:
    def test_hand_computed_scalar_chain(self):
        # d1=d2=1, r1=r2=1, all factors scalars:
        # h = w0*x + s * lu*lm*lmd*x = 2*3 + 0.5*5*1*4*3 = 6 + 30 = 36
        f = AdapterFactors(l_meta_down=np.array([[4.0]]),
                           l_mid=np.array([[1.0]]),
                           l_up=np.array([[5.0]]))
        layer = AdaptedLayer(np.array([[2.0]]), f, scale=0.5)
        h = layer.forward(np.array([[3.0]]))
        assert h.shape == (1, 1)
        assert h[0, 0] == pytest.approx(36.0, abs=1e-15)

    def test_matches_explicit_dense_expression(self):
        rng = make_rng(1)
        layer = random_layer(rng, d1=6, d2=4, r1=3, r2=2, scale=0.7)
        x = rng.standard_normal((6, 5))
        f = layer.factors
        want = layer.w0 @ x + 0.7 * (f.l_up @ (f.l_mid @ (f.l_meta_down @ x)))
        assert np.max(np.abs(layer.forward(x) - want)) <= 1e-13

    def test_zero_up_factor_is_noop(self):
        rng = make_rng(2)
        f = init_factors(rng, 5, 4, 3, 2, mode="fresh")  # l_up zeros
        w0 = rng.standard_normal((4, 5))
        layer = AdaptedLayer(w0, f)
        x = rng.standard_normal((5, 3))
        assert np.array_equal(layer.forward(x), w0 @ x)

    def test_rank_ordering_enforced(self):
        with pytest.raises(RankError):
            AdapterFactors(l_meta_down=np.zeros((2, 8)),
                           l_mid=np.zeros((4, 2)),   # r2 > r1
                           l_up=np.zeros((8, 4)))

    def test_chain_shape_mismatch(self):
        with pytest.raises(DimensionError):
            AdapterFactors(l_meta_down=np.zeros((3, 8)),
                           l_mid=np.zeros((2, 4)),   # r1 mismatch
                           l_up=np.zeros((8, 2)))


def finite_diff(layer, x, g, param, h=1e-5):
    """Central finite differences of sum(g * forward(x)) wrt param entries."""
    grad = np.zeros_like(param)
    for idx in np.ndindex(param.shape):
        orig = param[idx]
        param[idx] = orig + h
        fp = float(np.sum(g * layer.forward(x)))
        param[idx] = orig - h
        fm = float(np.sum(g * layer.forward(x)))
        param[idx] = orig
        grad[idx] = (fp - fm) / (2 * h)
    return grad


def rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-12)
    return np.max(np.abs(a - b)) / denom


class TestAnalyticGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_factor_grads_match_finite_differences(self, seed):
        rng = make_rng(100 + seed)
        d1, d2, r1, r2 = 7, 6, 4, 2
        layer = random_layer(rng, d1, d2, r1, r2, scale=0.9)
        x = rng.standard_normal((d1, 3))
        g = rng.standard_normal((d2, 3))
        layer.forward(x)
        grads = layer.backward(x, g)
        f = layer.factors
        assert rel_err(grads.l_up, finite_diff(layer, x, g, f.l_up)) <= 1e-4
        assert rel_err(grads.l_mid, finite_diff(layer, x, g, f.l_mid)) <= 1e-4
        assert rel_err(grads.l_meta_down,
                       finite_diff(layer, x, g, f.l_meta_down)) <= 1e-4

    def test_input_grad_matches_finite_differences(self):
        rng = make_rng(200)
        layer = random_layer(rng, 5, 4, 3, 2, scale=0.5)
        x = rng.standard_normal((5, 2))
        g = rng.standard_normal((4, 2))
        layer.forward(x)
        dx = layer.backward(x, g).x
        fd = np.zeros_like(x)
        h = 1e-5
        for idx in np.ndindex(x.shape):
            orig = x[idx]
            x[idx] = orig + h
            fp = float(np.sum(g * layer.forward(x)))
            x[idx] = orig - h
            fm = float(np.sum(g * layer.forward(x)))
            x[idx] = orig
            fd[idx] = (fp - fm) / (2 * h)
        assert rel_err(dx, fd) <= 1e-4

    def test_zero_up_blocks_meta_down_gradient(self):
        # With l_up = 0 the chain output is insensitive to l_meta_down,
        # so its gradient must be exactly zero.
        rng = make_rng(300)
        f = init_factors(rng, 6, 5, 3, 2, mode="fresh")
        layer = AdaptedLayer(rng.standard_normal((5, 6)), f)
        x = rng.standard_normal((6, 4))
        layer.forward(x)
        grads = layer.backward(x, rng.standard_normal((5, 4)))
        assert np.count_nonzero(grads.l_meta_down) == 0
        # but l_up itself still receives signal
        assert np.max(np.abs(grads.l_up)) > 0

    def test_backward_without_matching_forward(self):
        # backward recomputes the chain from x, so it needs no forward call
        # and gives the bits of the kernels fed the forward's intermediates
        rng = make_rng(301)
        layer = random_layer(rng, 4, 4, 2, 1)
        x = rng.standard_normal((4, 2))
        g = rng.standard_normal((4, 2))
        f = layer.factors
        operands = (layer.w0, f.l_meta_down, f.l_mid, f.l_up, layer.scale, x)
        _, u, mid = kernels.chain_forward(*operands)
        want = kernels.chain_backward(*operands, u, mid, g)
        alone = layer.backward(x, g)
        layer.forward(rng.standard_normal((4, 2)))
        after_other_input = layer.backward(x.copy(), g)
        for grads in (alone, after_other_input):
            got = (grads.l_up, grads.l_mid, grads.l_meta_down, grads.x, grads.w0)
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


class TestMerge:
    def test_hand_computed_merge(self):
        # down = l_mid @ l_meta_down: (1x2)@(2x3)
        f = AdapterFactors(l_meta_down=np.array([[1.0, 0.0, 2.0],
                                                 [0.0, 3.0, 1.0]]),
                           l_mid=np.array([[2.0, -1.0]]),
                           l_up=np.array([[1.0], [4.0], [0.5]]))
        m = merge(f)
        assert np.array_equal(m.down, np.array([[2.0, -3.0, 3.0]]))
        assert np.array_equal(m.up, f.l_up)

    @pytest.mark.parametrize("seed", range(3))
    def test_merged_forward_equivalence(self, seed):
        rng = make_rng(400 + seed)
        layer = random_layer(rng, d1=12, d2=9, r1=5, r2=2, scale=1.3)
        m = merge(layer.factors)
        for _ in range(20):
            x = rng.standard_normal((12, 4))
            a = layer.forward(x)
            b = merged_forward(layer.w0, m, x, scale=1.3)
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_merged_rank_bounded_by_r2(self):
        rng = make_rng(500)
        layer = random_layer(rng, d1=16, d2=16, r1=8, r2=3)
        m = merge(layer.factors)
        delta = m.up @ m.down
        sv = np.linalg.svd(delta, compute_uv=False)
        assert np.sum(sv > 1e-10) <= 3

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_merge_equivalence_property(self, seed):
        rng = make_rng(seed)
        d1 = int(rng.integers(2, 10))
        d2 = int(rng.integers(2, 10))
        r1 = int(rng.integers(1, min(d1, d2) + 1))
        r2 = int(rng.integers(1, r1 + 1))
        layer = random_layer(rng, d1, d2, r1, r2, scale=0.8)
        x = rng.standard_normal((d1, 3))
        a = layer.forward(x)
        b = merged_forward(layer.w0, merge(layer.factors), x, scale=0.8)
        assert np.max(np.abs(a - b)) <= 1e-12


class TestBaseFreezing:
    def test_update_then_freeze_then_immutability(self):
        # the base trains in place until frozen; write protection alone then
        # refuses every in-place update, and the checksum records the frozen bits
        rng = make_rng(600)
        layer = random_layer(rng, 4, 4, 2, 1)
        assert layer.base_checksum is None
        layer.w0 += np.ones((4, 4))
        c = layer.freeze_base()
        assert layer.base_checksum == c == checksum(layer.w0)
        frozen = layer.w0.copy()
        with pytest.raises(ValueError, match="read-only"):
            layer.w0 += np.ones((4, 4))
        with pytest.raises(ValueError, match="read-only"):
            layer.w0[0, 0] = 99.0
        with pytest.raises(ValueError, match="read-only"):
            adamw_step(layer.w0, np.ones((4, 4)), AdamWState())
        assert np.array_equal(layer.w0, frozen)
        assert layer.base_checksum == c == checksum(layer.w0)

    def test_init_factors_zero_mode(self):
        f = init_factors(make_rng(0), 6, 6, 3, 2, mode="zero")
        for arr in (f.l_meta_down, f.l_mid, f.l_up):
            assert np.count_nonzero(arr) == 0

    def test_init_factors_bad_mode(self):
        with pytest.raises(ValueError):
            init_factors(make_rng(0), 4, 4, 2, 1, mode="dense")
