"""Hot numeric kernels: the factor-chain forward/backward and the AdamW update.

They live in their own module so that callers reach them as
``kernels.<name>`` attributes; the benchmark's tracer wraps them there.
"""

import numpy as np


def adamw_update(param, grad, m, v, step, lr, beta1, beta2, eps, weight_decay):
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** step)
    v_hat = v / (1.0 - beta2 ** step)
    param -= lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * param)


def chain_forward(w0, lmd, lm, lu, scale, x):
    u = lmd @ x
    mid = lm @ u
    h = w0 @ x + scale * (lu @ mid)
    return h, u, mid


def chain_backward(w0, lmd, lm, lu, scale, x, u, mid, g):
    d_lu = scale * (g @ mid.T)
    lut_g = lu.T @ g
    d_lm = scale * (lut_g @ u.T)
    lmt_lut_g = lm.T @ lut_g
    d_lmd = scale * (lmt_lut_g @ x.T)
    dx = w0.T @ g + scale * (lmd.T @ lmt_lut_g)
    dw0 = g @ x.T
    return d_lu, d_lm, d_lmd, dx, dw0
