"""Seeded PRNG, finiteness checks, checksums, flat views and AdamW.

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
import math
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


# a dtype object, not the string "<f8": parsing the string costs each call
_LE_F8 = np.dtype("<f8")


def checksum(arr: np.ndarray) -> str:
    """SHA-1 of the raw little-endian bytes; used for freeze/immutability audits."""
    # hashes the contiguous buffer, uncopied if it already is little-endian float64
    return hashlib.sha1(np.ascontiguousarray(arr, dtype=_LE_F8)).hexdigest()


def flat_views(buf: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of consecutive slices of ``buf``'s last axis, one per shape (a
    tuple) in ``shapes``, each shaped ``buf.shape[:-1] + shape``."""
    ends = list(accumulate(map(math.prod, shapes), initial=0))
    return [buf[..., a:b].reshape(buf.shape[:-1] + shape)
            for a, b, shape in zip(ends, ends[1:], shapes)]


@dataclass
class AdamWState:
    """One tensor's :func:`adamw_step` state, with decoupled weight decay.

    Holds the two settings a trainer chooses, ``lr`` and ``weight_decay``;
    β1, β2 and ε are the constants of :mod:`metalora.kernels`. A negative
    ``lr`` is refused here, as :func:`metalora.config.check` refuses a trainer's.
    """

    lr: float
    weight_decay: float = 0.0
    step: int = field(default=0, init=False)
    m: np.ndarray | None = field(default=None, init=False, repr=False)
    v: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError(f"AdamWState: lr must be >= 0, got {self.lr}")

    def _ensure_buffers(self, shape) -> None:
        if self.m is None:
            self.m = np.zeros(shape)
            self.v = np.zeros(shape)
        elif self.m.shape != shape:
            raise DimensionError("adamw_step: state buffers", self.m.shape, shape)


def adamw_step(param: np.ndarray, grad: np.ndarray, state: AdamWState) -> np.ndarray:
    """One AdamW update, applied in place to ``param``. Returns ``param``. No
    trainer calls it: it is the one-tensor reference that tests compare the
    trainers' flat steps with, and the benchmark's tracer wraps it by name."""
    if param.shape != grad.shape:
        raise DimensionError("adamw_step", param.shape, grad.shape)
    check_finite(grad, "adamw_step: gradient")
    state._ensure_buffers(param.shape)
    state.step += 1
    kernels.adamw_update(param, np.ascontiguousarray(grad), state.m, state.v,
                         state.step, state.lr, state.weight_decay)
    return param
