"""Seeded PRNG, Gaussian init, finiteness checks, checksums and AdamW.

Parameters are plain float64 numpy arrays throughout the package. Random
streams come from numpy's PCG64 generator, whose algorithm is fixed and
documented, so a seed gives the same stream everywhere. The same seed,
config, numpy build and BLAS core (the kernels OpenBLAS picks for the CPU,
such as SkylakeX or Haswell) give byte-identical artifacts, whatever the
BLAS thread count. Another BLAS core may round the matmuls differently and
change every trained artifact.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import kernels
from .errors import DimensionError, NumericError


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator; identical seed gives an identical stream everywhere."""
    return np.random.Generator(np.random.PCG64(seed))


def check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"{what} contains non-finite values")


def gaussian(rng: np.random.Generator, rows: int, cols: int, std: float) -> np.ndarray:
    """i.i.d. N(0, std^2) matrix; std=0 yields exact zeros."""
    if std < 0:
        raise ValueError(f"gaussian: std must be >= 0, got {std}")
    if std == 0:
        return np.zeros((rows, cols))
    return rng.normal(0.0, std, size=(rows, cols))


def checksum(arr: np.ndarray) -> str:
    """SHA-1 of the raw little-endian bytes; used for freeze/immutability audits."""
    data = np.ascontiguousarray(arr, dtype=np.float64)
    if data.dtype.byteorder == ">":
        data = data.astype("<f8")
    return hashlib.sha1(data).hexdigest()  # hashes the contiguous buffer, uncopied


@dataclass
class AdamWState:
    """Per-parameter AdamW state with decoupled weight decay.

    Defaults follow common practice (beta1=0.9, beta2=0.999, eps=1e-8,
    weight_decay=0); only the learning rate is externally prescribed.
    """

    lr: float = 4e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step: int = 0
    m: np.ndarray | None = field(default=None, repr=False)
    v: np.ndarray | None = field(default=None, repr=False)

    def _ensure_buffers(self, shape) -> None:
        if self.m is None:
            self.m = np.zeros(shape)
            self.v = np.zeros(shape)
        elif self.m.shape != shape:
            raise DimensionError("adamw_step: state buffers", self.m.shape, shape)


def adamw_step(param: np.ndarray, grad: np.ndarray, state: AdamWState) -> np.ndarray:
    """One AdamW update, applied in place to ``param``. Returns ``param``."""
    if param.shape != grad.shape:
        raise DimensionError("adamw_step", param.shape, grad.shape)
    if state.lr < 0:
        raise ValueError(f"adamw_step: lr must be >= 0, got {state.lr}")
    check_finite(grad, "adamw_step: gradient")
    state._ensure_buffers(param.shape)
    state.step += 1
    kernels.adamw_update(param, np.ascontiguousarray(grad), state.m, state.v,
                         state.step, state.lr, state.beta1, state.beta2,
                         state.eps, state.weight_decay)
    return param


class FlatGroup:
    """Tensors trained together. Their values are copied into one flat buffer,
    ``flat``, of which ``tensors`` are views, and one :func:`adamw_step`
    moves them all: AdamW is elementwise, so each gets the bits of its own."""

    def __init__(self, tensors: list[np.ndarray], state: AdamWState):
        if state.lr < 0:  # adamw_step's check, made once before any step
            raise ValueError(f"adamw_step: lr must be >= 0, got {state.lr}")
        ends = list(accumulate((t.size for t in tensors), initial=0))
        self.flat = np.concatenate([t.ravel() for t in tensors])
        self.grad = np.empty_like(self.flat)
        self.tensors, self._grads = ([buf[a:b].reshape(t.shape) for a, b, t
                                      in zip(ends, ends[1:], tensors)]
                                     for buf in (self.flat, self.grad))
        self.state = state

    def step(self, item_grads: list[np.ndarray]) -> None:
        """One AdamW step. Each tensor's gradient adds its per-item gradients
        (B, ...) from ``item_grads`` in item order onto zeros: the bits of
        ``sum(items, np.zeros(...))``, signed zeros included."""
        for g, items in zip(self._grads, item_grads):
            np.add.reduce(items, axis=0, initial=0.0, out=g)
        adamw_step(self.flat, self.grad, self.state)
