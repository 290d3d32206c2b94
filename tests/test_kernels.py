"""The numpy kernels against their direct expressions."""

from itertools import combinations

import numpy as np
import pytest

from metalora import kernels
from metalora.numerics import make_rng


class TestNumpyBackend:
    def test_chain_forward_matches_direct_expression(self):
        rng = make_rng(0)
        w0 = rng.standard_normal((6, 5))
        lmd = rng.standard_normal((3, 5))
        lm = rng.standard_normal((2, 3))
        lu = rng.standard_normal((6, 2))
        x = rng.standard_normal((5, 4))
        h, u, mid = kernels.chain_forward(w0, lmd, lm, lu, 0.7, x)
        assert np.allclose(u, lmd @ x)
        assert np.allclose(mid, lm @ (lmd @ x))
        assert np.allclose(h, w0 @ x + 0.7 * (lu @ (lm @ (lmd @ x))))

    def test_adamw_update_in_place(self):
        rng = make_rng(1)
        p = rng.standard_normal((3, 3))
        g = rng.standard_normal((3, 3))
        m = np.zeros((3, 3))
        v = np.zeros((3, 3))
        kernels.adamw_update(p, g, m, v, 1, 0.1, 0.0)
        assert np.allclose(m, 0.1 * g)
        assert np.allclose(v, 0.001 * g * g)

    def test_adamw_update_step_column_matches_per_row_calls_bitwise(self):
        # one call over rows at their own step counts 1..20,000 gives each
        # row the bits of a lone call at its count, and both take the bias
        # corrections from Python's float ** int, not numpy's vectorised
        # power (which differs from it in the last bit at some counts). The
        # parameters start at zero, so an update's last bit is not rounded
        # away in the sum.
        rng = make_rng(4)
        k, lr, b1, b2, eps = 20_000, 0.1, 0.9, 0.999, 1e-8
        g, m0 = rng.standard_normal((2, k, 4))
        v0 = rng.random((k, 4))
        p, m, v = np.zeros((k, 4)), m0.copy(), v0.copy()
        kernels.adamw_update(p, g, m, v, np.arange(1, k + 1)[:, None], lr, 0.0)
        for i in range(k):
            step = i + 1
            m_i = m0[i] * b1 + (1.0 - b1) * g[i]
            v_i = v0[i] * b2 + (1.0 - b2) * g[i] * g[i]
            p_i = -(lr * ((m_i / (1.0 - b1 ** step))
                          / (np.sqrt(v_i / (1.0 - b2 ** step)) + eps)))
            p_l, m_l, v_l = np.zeros(4), m0[i].copy(), v0[i].copy()
            kernels.adamw_update(p_l, g[i], m_l, v_l, step, lr, 0.0)
            for want, lone, column in ((p_i, p_l, p[i]), (m_i, m_l, m[i]), (v_i, v_l, v[i])):
                assert lone.tobytes() == column.tobytes() == want.tobytes(), step


def stacked_operands(rng, R=3, d1=5, d2=6, r1=3, r2=2, cols=4):
    """A shared 2-d base weight and R stacked factor chains, inputs and
    upstream gradients."""
    w0 = rng.standard_normal((d2, d1))
    lmd = rng.standard_normal((R, r1, d1))
    lm = rng.standard_normal((R, r2, r1))
    lu = rng.standard_normal((R, d2, r2))
    x = rng.standard_normal((R, d1, cols))
    g = rng.standard_normal((R, d2, cols))
    return w0, lmd, lm, lu, x, g


class TestStackedChain:
    @pytest.mark.parametrize("cols", [1, 4])
    def test_stack_equals_per_slice_calls_bitwise(self, cols):
        w0, lmd, lm, lu, x, g = stacked_operands(make_rng(2), cols=cols)
        h, u, mid = kernels.chain_forward(w0, lmd, lm, lu, 0.7, x)
        back = kernels.chain_backward(w0, lmd, lm, lu, 0.7, x, u, mid, g)
        for r in range(len(x)):
            one = kernels.chain_forward(w0, lmd[r], lm[r], lu[r], 0.7, x[r])
            for stacked, alone in zip((h, u, mid), one):
                assert stacked[r].tobytes() == alone.tobytes()
            one_back = kernels.chain_backward(w0, lmd[r], lm[r], lu[r], 0.7, x[r],
                                              one[1], one[2], g[r])
            for stacked, alone in zip(back, one_back):
                assert stacked[r].tobytes() == alone.tobytes()

    def test_stacked_gradients_match_central_differences(self):
        w0, lmd, lm, lu, x, g = stacked_operands(make_rng(3))
        scale, h = 0.7, 1e-5

        def objective():
            return float(np.sum(g * kernels.chain_forward(w0, lmd, lm, lu, scale, x)[0]))

        def central(param):
            grad = np.zeros_like(param)
            for idx in np.ndindex(param.shape):
                orig = param[idx]
                param[idx] = orig + h
                fp = objective()
                param[idx] = orig - h
                fm = objective()
                param[idx] = orig
                grad[idx] = (fp - fm) / (2 * h)
            return grad

        _h, u, mid = kernels.chain_forward(w0, lmd, lm, lu, scale, x)
        d_lu, d_lm, d_lmd, dx, dw0 = kernels.chain_backward(
            w0, lmd, lm, lu, scale, x, u, mid, g)
        # w0 is shared by the stack: its gradient is the sum of the runs'
        for analytic, param in ((d_lu, lu), (d_lm, lm), (d_lmd, lmd), (dx, x),
                                (dw0.sum(axis=0), w0)):
            numeric = central(param)
            err = np.max(np.abs(analytic - numeric)) / np.max(np.abs(numeric))
            assert err <= 1e-4


NAMES = ("lu", "lm", "lmd", "x", "w0")  # chain_backward's outputs, in order


class TestNeed:
    @pytest.mark.parametrize("stacked", [False, True], ids=["2d", "stacked"])
    def test_every_subset_gives_the_default_bits_and_none_elsewhere(self, stacked):
        w0, lmd, lm, lu, x, g = stacked_operands(make_rng(5))
        if not stacked:
            lmd, lm, lu, x, g = (a[0] for a in (lmd, lm, lu, x, g))
        _h, u, mid = kernels.chain_forward(w0, lmd, lm, lu, 0.7, x)
        operands = (w0, lmd, lm, lu, 0.7, x, u, mid, g)
        full = kernels.chain_backward(*operands)
        assert kernels.GRADIENTS == set(NAMES)
        subsets = [set(c) for k in range(1, len(NAMES) + 1)
                   for c in combinations(NAMES, k)]
        assert len(subsets) == 31
        for need in subsets:
            got = kernels.chain_backward(*operands, need=need)
            for name, want, out in zip(NAMES, full, got):
                if name in need:
                    assert out.tobytes() == want.tobytes(), (need, name)
                else:
                    assert out is None, (need, name)

    def test_need_may_be_a_tuple(self):
        w0, lmd, lm, lu, x, g = stacked_operands(make_rng(6))
        _h, u, mid = kernels.chain_forward(w0, lmd, lm, lu, 0.7, x)
        got = kernels.chain_backward(w0, lmd, lm, lu, 0.7, x, u, mid, g, need=("lm",))
        assert got[1] is not None and all(o is None for o in got[:1] + got[2:])

    @pytest.mark.parametrize("need", [{"lu", "dw0"}, {"u"}, "lm", "x", ["lmd", "mid"]])
    def test_unknown_name_raises(self, need):
        w0, lmd, lm, lu, x, g = stacked_operands(make_rng(7))
        _h, u, mid = kernels.chain_forward(w0, lmd, lm, lu, 0.7, x)
        with pytest.raises(ValueError, match="need"):
            kernels.chain_backward(w0, lmd, lm, lu, 0.7, x, u, mid, g, need=need)
