"""The numpy kernels against their direct expressions."""

import numpy as np

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
        kernels.adamw_update(p, g, m, v, 1, 0.1, 0.9, 0.999, 1e-8, 0.0)
        assert np.allclose(m, 0.1 * g)
        assert np.allclose(v, 0.001 * g * g)
