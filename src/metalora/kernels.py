"""Hot numeric kernels: the factor-chain forward/backward and the AdamW update.

They live in their own module so that callers reach them as
``kernels.<name>`` attributes; the benchmark's tracer wraps them there.

The chain kernels take 2-d operands, or stacks of independent items (batch
items or runs) with a leading axis: ``(B, ., .)`` factors and inputs against
a shared 2-d ``w0``. Stacked matmuls make the same BLAS call per item as the
2-d call, so an item gives the same bits alone or inside a stack, and a
gradient written into a caller's array (``out``) has the bits of a new one.
The gradient of an operand the whole stack shares (``w0``, and a 2-d
``lmd``) is the items' gradients summed in item order onto +0.0, in the
operand's shape: see :func:`stack_sum`. A chain of rank 0, with ``(0, d1)``,
``(0, 0)`` and ``(d2, 0)`` factors, is valid: numpy's empty products are
zeros, so its adapter terms add exact zeros to ``w0 @ x`` and ``w0.T @ g``.

AdamW's β1, β2 and ε are stated once, here: every trainer uses the defaults
of Loshchilov & Hutter, "Decoupled Weight Decay Regularization" (ICLR 2019).
"""

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

def adamw_update(param, grad, m, v, step, lr, weight_decay):
    m *= BETA1
    m += (1.0 - BETA1) * grad
    v *= BETA2
    v += (1.0 - BETA2) * grad * grad
    if isinstance(step, np.ndarray):  # a column of counts, one per row of param
        # each row's bias corrections are Python's float ** int, as for one
        # count: numpy's vectorised power can differ from it in the last bit
        c1, c2 = (np.array([[1.0 - beta ** s] for s in step.ravel().tolist()])
                  for beta in (BETA1, BETA2))
    else:
        c1, c2 = 1.0 - BETA1 ** step, 1.0 - BETA2 ** step
    m_hat = m / c1
    v_hat = v / c2
    param -= lr * (m_hat / (np.sqrt(v_hat) + EPS) + weight_decay * param)


def chain_forward(w0, lmd, lm, lu, scale, x):
    u = lmd @ x
    mid = lm @ u
    h = w0 @ x + scale * (lu @ mid)
    return h, u, mid


def stack_sum(a, b, out=None):
    """``a @ b.mT`` of 2-d operands, written into ``out`` if given. Of stacks,
    the items' products summed in item order onto +0.0: the bits of
    ``np.add.reduce(a @ b.mT, axis=0, initial=0.0)``, without the (B, ., .)
    stack of products.

    C-contiguous stacks of single-column items make one contraction, numpy's
    own loop over the items outermost, each product rounded before it is
    added: no BLAS. numpy orders that loop by the strides, and would sum a
    1 x 1 result in its vector loop, both in another order, so other layouts
    and a 1 x 1 result take the per-item path, as stacks of wider items do.
    """
    if a.ndim == 2:
        return np.matmul(a, b.mT, out=out)
    if (a.shape[-1] == 1 and a.shape[-2] * b.shape[-2] > 1
            and a.flags.c_contiguous and b.flags.c_contiguous):
        return np.einsum("bi,bj->ij", a[..., 0], b[..., 0], out=out)
    return np.add.reduce(a @ b.mT, axis=0, initial=0.0, out=out)


def chain_backward(w0, lmd, lm, lu, scale, x, u, mid, g, *, out=None, dx=False):
    """Gradients ``(d_lmd, d_lm, d_lu, dw0), dx`` of the chain, given
    d(loss)/dh ``g`` and the forward's ``u`` and ``mid``.

    ``out`` holds one slot per gradient, in that order: an array, which the
    gradient is written into and returned as, or ``None``, which leaves the
    gradient uncomputed, with the matmuls only it uses, and returns ``None``.
    ``out=None`` computes all four, each as a new array. ``dx=True``
    computes the input gradient, else it is ``None``. A computed gradient has
    the same bits whatever else is computed. ``dw0``, and a 2-d ``lmd``'s
    ``d_lmd``, are summed by :func:`stack_sum`; ``d_lmd`` scales ``lm.T lu.T
    g`` before the product with ``x``, so that an item's sum term is its lone
    call's gradient.
    """
    new = out is None  # every gradient, each as a new array
    o_lmd, o_lm, o_lu, o_w0 = (None,) * 4 if new else out
    get_lmd, get_lm = new or o_lmd is not None, new or o_lm is not None
    d_lmd = d_lm = d_lu = dw0 = d_x = None
    if new or o_lu is not None:
        d_lu = np.multiply(scale, g @ mid.mT, out=o_lu)
    if get_lm or get_lmd or dx:  # the users of lu.T g
        lut_g = lu.mT @ g
        if get_lm:
            d_lm = np.multiply(scale, lut_g @ u.mT, out=o_lm)
        if get_lmd or dx:
            lmt_lut_g = lm.mT @ lut_g
            if get_lmd:
                scaled = scale * lmt_lut_g
                d_lmd = (stack_sum(scaled, x, o_lmd) if lmd.ndim == 2
                         else np.matmul(scaled, x.mT, out=o_lmd))
            if dx:
                d_x = w0.mT @ g + scale * (lmd.mT @ lmt_lut_g)
    if new or o_w0 is not None:
        dw0 = stack_sum(g, x, o_w0)
    return (d_lmd, d_lm, d_lu, dw0), d_x
