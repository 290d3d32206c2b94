"""Hot numeric kernels: the factor-chain forward/backward and the AdamW update.

They live in their own module so that callers reach them as
``kernels.<name>`` attributes; the benchmark's tracer wraps them there.

The chain kernels take 2-d operands, or stacks of independent items (batch
items or runs) with a leading axis: ``(B, ., .)`` factors and inputs against
a shared 2-d ``w0``. Stacked matmuls make the same BLAS call per item as the
2-d call, so an item gives the same bits alone or inside a stack, and a
gradient written into a caller's array (``out``) has the bits of a new one.

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


# the gradients chain_backward can compute, named for the operand each is of
GRADIENTS = frozenset({"lu", "lm", "lmd", "x", "w0"})


def chain_backward(w0, lmd, lm, lu, scale, x, u, mid, g, *, need=GRADIENTS, out=(None, None)):
    """Gradients ``(d_lu, d_lm, d_lmd, dx, dw0)`` of the chain, given
    d(loss)/dh ``g`` and the forward's ``u`` and ``mid``.

    ``need`` names the gradients to compute, from :data:`GRADIENTS`; each
    one left out is ``None``, and the matmuls only it uses are skipped. A
    computed gradient has the same bits whatever else is needed. An unknown
    name, or a bare string in place of a collection of names, raises
    ``ValueError``. A needed ``d_lu`` or ``d_lm`` is written into its array
    in ``out``, if not ``None``, with the bits of a new array.
    """
    if isinstance(need, str) or not GRADIENTS.issuperset(need):
        raise ValueError(f"chain_backward: need={need!r} is not a collection of "
                         f"names from {sorted(GRADIENTS)}")
    need = frozenset(need)
    d_lu = d_lm = d_lmd = dx = dw0 = None
    if "lu" in need:
        d_lu = np.multiply(scale, g @ mid.mT, out=out[0])
    if not need.isdisjoint(("lm", "lmd", "x")):  # the users of lu.T g
        lut_g = lu.mT @ g
        if "lm" in need:
            d_lm = np.multiply(scale, lut_g @ u.mT, out=out[1])
        if not need.isdisjoint(("lmd", "x")):
            lmt_lut_g = lm.mT @ lut_g
            if "lmd" in need:
                d_lmd = scale * (lmt_lut_g @ x.mT)
            if "x" in need:
                dx = w0.mT @ g + scale * (lmd.mT @ lmt_lut_g)
    if "w0" in need:
        dw0 = g @ x.mT
    return d_lu, d_lm, d_lmd, dx, dw0
