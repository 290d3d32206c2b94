"""The numpy kernels against their direct expressions."""

from itertools import combinations

import numpy as np
import pytest

from metalora import kernels
from metalora.adapter import SCALE
from metalora.numerics import make_rng

CPU_BASELINE = np._core._multiarray_umath.__cpu_baseline__


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

        # 3,000 calls whose counts rise by one per call, as the identity
        # bank's do, over rows at the call's count and below it: each row
        # keeps the bits of a lone call at its count
        (g, m0), v0 = rng.standard_normal((2, 3, 4)), rng.random((3, 4))
        for top in range(1, 3001):
            steps = [top, (top + 1) // 2, max(1, top - 63)]
            p, m, v = np.zeros((3, 4)), m0.copy(), v0.copy()
            kernels.adamw_update(p, g, m, v, np.array(steps)[:, None], lr, 0.0)
            for i, step in enumerate(steps):
                p_l, m_l, v_l = np.zeros(4), m0[i].copy(), v0[i].copy()
                kernels.adamw_update(p_l, g[i], m_l, v_l, step, lr, 0.0)
                assert (p_l.tobytes(), m_l.tobytes(), v_l.tobytes()) == \
                    (p[i].tobytes(), m[i].tobytes(), v[i].tobytes()), (top, step)


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


def ordered_sum(slices):
    """The slices added one by one, in order, onto +0.0."""
    return sum(slices, np.zeros(slices[0].shape))


def every_gradient(*operands):
    """chain_backward's four gradients and the input gradient, all computed,
    as one tuple in :data:`NAMES` order."""
    grads, dx = kernels.chain_backward(*operands, dx=True)
    return (*grads, dx)


def per_slice_backward(w0, lmd, lm, lu, x, g):
    """chain_backward slice by slice, lone 2-d calls: per output, in
    :data:`NAMES` order, the list of the slices' gradients. A 2-d ``lmd`` is
    every slice's."""
    per = []
    for r in range(len(x)):
        lmd_r = lmd if lmd.ndim == 2 else lmd[r]
        _h, u, mid = kernels.chain_forward(w0, lmd_r, lm[r], lu[r], 0.7, x[r])
        per.append(every_gradient(w0, lmd_r, lm[r], lu[r], 0.7, x[r], u, mid, g[r]))
    return list(zip(*per))


class TestStackedChain:
    @pytest.mark.parametrize("cols", [1, 4])
    def test_stack_equals_per_slice_calls_bitwise(self, cols):
        # the stacked factors' gradients are the slices', and the shared w0's
        # the slices' summed in order
        w0, lmd, lm, lu, x, g = stacked_operands(make_rng(2), cols=cols)
        h, u, mid = kernels.chain_forward(w0, lmd, lm, lu, 0.7, x)
        back = every_gradient(w0, lmd, lm, lu, 0.7, x, u, mid, g)
        for r in range(len(x)):
            one = kernels.chain_forward(w0, lmd[r], lm[r], lu[r], 0.7, x[r])
            for stacked, alone in zip((h, u, mid), one):
                assert stacked[r].tobytes() == alone.tobytes()
        per = per_slice_backward(w0, lmd, lm, lu, x, g)
        for name, stacked, slices in zip(NAMES, back, per):
            if name == "w0":
                assert stacked.shape == w0.shape
                assert stacked.tobytes() == ordered_sum(slices).tobytes()
            else:
                assert [s.tobytes() for s in stacked] == [s.tobytes() for s in slices], name

    @pytest.mark.parametrize("cols", [1, 4])
    def test_shared_operands_get_the_ordered_sum_of_per_slice_calls(self, cols):
        # a 2-d lmd against stacked inputs: its gradient, as w0's, is the
        # slices' summed in item order onto +0.0, in its own shape
        w0, lmd, lm, lu, x, g = stacked_operands(make_rng(8), cols=cols)
        lmd = lmd[0]
        _h, u, mid = kernels.chain_forward(w0, lmd, lm, lu, 0.7, x)
        back = every_gradient(w0, lmd, lm, lu, 0.7, x, u, mid, g)
        per = per_slice_backward(w0, lmd, lm, lu, x, g)
        for name, stacked, slices in zip(NAMES, back, per):
            if name in ("lmd", "w0"):
                want = ordered_sum(slices)
                assert stacked.shape == want.shape == slices[0].shape, name
                assert stacked.tobytes() == want.tobytes(), name
            else:
                assert [s.tobytes() for s in stacked] == [s.tobytes() for s in slices], name

    @pytest.mark.parametrize("cols", [1, 2])
    def test_shared_gradient_adds_items_onto_zeros_in_item_order(self, cols):
        # items whose w0 products are g's rows (x's first column is ones, any
        # other column zeros): signed zeros, 0.0 + -0.0 is 0.0; order,
        # (1e16 + 1) - 1e16 is 0, where adding 1e16 and -1e16 first gives 1
        rows = np.array([[-0.0, 1e16, 0.5], [-0.0, 1.0, -0.0], [-0.0, -1e16, 0.25]])
        w0, lmd, lm, lu, _x, _g = stacked_operands(make_rng(9), d1=2, d2=3, r1=2, r2=1,
                                                   cols=cols)
        x = np.zeros((3, 2, cols))
        x[:, :, 0] = 1.0
        g = np.zeros((3, 3, cols))
        g[:, :, 0] = rows
        _h, u, mid = kernels.chain_forward(w0, lmd, lm, lu, 0.7, x)
        dw0 = kernels.chain_backward(w0, lmd, lm, lu, 0.7, x, u, mid, g,
                                     out=(None, None, None, np.empty(w0.shape)))[0][3]
        assert dw0.tobytes() == np.repeat([[0.0], [0.0], [0.75]], 2, axis=1).tobytes()
        assert not np.signbit(dw0).any()

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
        (d_lmd, d_lm, d_lu, dw0), dx = kernels.chain_backward(
            w0, lmd, lm, lu, scale, x, u, mid, g, dx=True)
        # w0 is shared by the stack: its gradient is the sum of the runs'
        for analytic, param in ((d_lu, lu), (d_lm, lm), (d_lmd, lmd), (dx, x), (dw0, w0)):
            numeric = central(param)
            err = np.max(np.abs(analytic - numeric)) / np.max(np.abs(numeric))
            assert err <= 1e-4


# chain_backward's four gradients, in the order of its out slots, then dx
NAMES = ("lmd", "lm", "lu", "w0", "x")


def fuzzed(rng, shape):
    """Normal draws at magnitudes 1e-8 to 1e8, a tenth of them +0.0 and a
    tenth -0.0."""
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    pick = rng.random(shape)
    a[pick < 0.1] = 0.0
    a[(pick >= 0.1) & (pick < 0.2)] = -0.0
    return a


def test_stack_sum_is_the_per_item_products_reduced_in_order():
    # 3,000 stacks of single-column items, B 1-11 and widths 1-79: the
    # contraction has the bits of the per-item (BLAS) products added in item
    # order onto +0.0. A numpy built to fuse the multiply and the add
    # (FMA) in einsum's loop would round differently, so the message names
    # numpy's version and its SIMD baseline. In every fourth stack each odd
    # item negates the item before it, so the in-order sum is exactly +0.0
    # (or the last item's product, for odd B), and every fifth is in
    # Fortran order, whose strides would have einsum loop over the items
    # innermost. A 1 x 1 result, which einsum would sum in its vector loop,
    # is pinned at B 1-64 after them.
    rng = make_rng(10)
    shapes = [(int(rng.integers(1, 12)), *(int(w) for w in rng.integers(1, 80, size=2)))
              for _ in range(3000)]
    for trial, (B, d2, d1) in enumerate(shapes + [(B, 1, 1) for B in range(1, 65)]):
        a, b = fuzzed(rng, (B, d2, 1)), fuzzed(rng, (B, d1, 1))
        if trial % 4 == 0:
            a[1::2], b[1::2] = -a[0:B - 1:2], b[0:B - 1:2]
        if trial % 5 == 0:
            a, b = np.asfortranarray(a), np.asfortranarray(b)
        want = np.add.reduce(a @ b.mT, axis=0, initial=0.0)
        got = kernels.stack_sum(a, b)
        assert got.tobytes() == want.tobytes(), (
            f"stack_sum of ({B}, {d2}, 1) and ({B}, {d1}, 1) differs from the ordered "
            f"reduce on numpy {np.__version__}, SIMD baseline {CPU_BASELINE}")


# stack_sum's branches: (items B or None for 2-d, d1 = d2, r1, columns, Fortran order)
STACK_SUM_BRANCHES = {
    "2d": (None, 5, 3, 4, False),
    "single-column-einsum": (6, 5, 3, 1, False),
    "wider-items": (6, 5, 3, 4, False),
    "fortran-order": (6, 5, 3, 1, True),
    "one-by-one": (6, 1, 1, 1, False),
}


@pytest.mark.parametrize("branch", list(STACK_SUM_BRANCHES))
def test_summed_gradient_written_into_out_has_the_bits_of_a_new_one(branch):
    # per branch of stack_sum, through chain_backward over a shared 2-d down
    # factor: dw0 and d_lmd written into NaN-filled arrays are returned as
    # them, with a fresh return's bytes; and stack_sum's own out does the same
    B, d, r1, cols, fortran = STACK_SUM_BRANCHES[branch]
    rng = make_rng(12)
    lead = () if B is None else (B,)
    w0, lmd = fuzzed(rng, (d, d)), fuzzed(rng, (r1, d))
    lm, lu = (fuzzed(rng, lead + shape) for shape in ((2, r1), (d, 2)))
    x, g = (fuzzed(rng, lead + (d, cols)) for _ in range(2))
    if fortran:
        x, g = np.asfortranarray(x), np.asfortranarray(g)
    _h, u, mid = kernels.chain_forward(w0, lmd, lm, lu, 0.7, x)
    operands = (w0, lmd, lm, lu, 0.7, x, u, mid, g)
    (want_lmd, _, _, want_w0), _ = kernels.chain_backward(*operands)
    out = (np.full(lmd.shape, np.nan), None, None, np.full(w0.shape, np.nan))
    (got_lmd, _, _, got_w0), _ = kernels.chain_backward(*operands, out=out)
    assert got_lmd is out[0] and got_lmd.tobytes() == want_lmd.tobytes()
    assert got_w0 is out[3] and got_w0.tobytes() == want_w0.tobytes()
    dst = np.full(w0.shape, np.nan)
    assert kernels.stack_sum(g, x, dst) is dst and dst.tobytes() == want_w0.tobytes()


@pytest.mark.parametrize("dx", [False, True], ids=["no-dx", "dx"])
@pytest.mark.parametrize("stacked", [False, True], ids=["2d", "stacked"])
def test_slots_name_the_gradients_computed(stacked, dx):
    # every subset of the four out slots: a gradient with an array is
    # written into it and returned as it, with the bits of an out=None call;
    # a gradient with None comes back None; dx only when asked for
    w0, lmd, lm, lu, x, g = stacked_operands(make_rng(5))
    if not stacked:
        lmd, lm, lu, x, g = (a[0] for a in (lmd, lm, lu, x, g))
    _h, u, mid = kernels.chain_forward(w0, lmd, lm, lu, 0.7, x)
    operands = (w0, lmd, lm, lu, 0.7, x, u, mid, g)
    full, want_dx = kernels.chain_backward(*operands, dx=True)
    subsets = [set(c) for k in range(5) for c in combinations(NAMES[:4], k)]
    assert len(subsets) == 16
    for chosen in subsets:
        out = tuple(np.full(a.shape, np.nan) if name in chosen else None
                    for name, a in zip(NAMES, (lmd, lm, lu, w0)))
        got, got_dx = kernels.chain_backward(*operands, out=out, dx=dx)
        for name, want, slot, grad in zip(NAMES, full, out, got):
            if name in chosen:
                assert grad is slot and grad.tobytes() == want.tobytes(), (chosen, name)
            else:
                assert grad is None, (chosen, name)
        if dx:
            assert got_dx.tobytes() == want_dx.tobytes(), chosen
        else:
            assert got_dx is None, chosen


@pytest.mark.parametrize("B", [None, 5], ids=["2d", "stacked"])
def test_rank_zero_chain_adds_exact_zeros(B):
    # pretraining trains the base alone through chains of (0, d1), (0, 0)
    # and (d2, 0) factors: h and dx are w0's products plus +0.0, and dw0 is
    # stack_sum's
    rng = make_rng(14)
    d1, d2 = 7, 4
    w0 = fuzzed(rng, (d2, d1))
    x, g = (fuzzed(rng, (d, 3) if B is None else (B, d, 1)) for d in (d1, d2))
    lmd, lm, lu = np.zeros((0, d1)), np.zeros((0, 0)), np.zeros((d2, 0))
    h, u, mid = kernels.chain_forward(w0, lmd, lm, lu, SCALE, x)
    (*_, dw0), dx = kernels.chain_backward(w0, lmd, lm, lu, SCALE, x, u, mid, g,
                                           out=(None, None, None, np.empty(w0.shape)), dx=True)
    for got, want in ((h, w0 @ x + 0.0), (dx, w0.mT @ g + 0.0),
                      (dw0, kernels.stack_sum(g, x))):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
