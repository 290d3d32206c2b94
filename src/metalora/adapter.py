"""Three-factor low-rank adapted linear layer.

A frozen base weight ``w0`` (d2 x d1) carries a residual update built from a
chain of three factors: a shared down-projection ``l_meta_down`` (r1 x d1),
an identity-specific compressor ``l_mid`` (r2 x r1), and an identity-specific
up-projection ``l_up`` (d2 x r2):

    h = w0 @ x + SCALE * l_up @ (l_mid @ (l_meta_down @ x))

The chain is always applied factor-by-factor; the dense delta-W is never
materialized. Collapsing ``l_mid @ l_meta_down`` into a single down factor
yields a standard two-factor rank-r2 adapter (:func:`merge`) whose forward
pass is exactly equivalent.

Gradients are analytic (chain rule on the expression above); there is no
autodiff engine anywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DimensionError, RankError

# LoRA's alpha / r, one constant: no checkpoint, export, merge or benchmark oracle records another
SCALE = 1.0


def check_ranks(r1: int, r2: int, d1: int, d2: int) -> None:
    """:class:`RankError` unless the ranks satisfy 1 <= r2 <= r1 <= min(d1, d2)."""
    if not 1 <= r2 <= r1 <= min(d1, d2):
        raise RankError(f"need 1 <= r2 <= r1 <= min(d1, d2), got {r1=}, {r2=}, {d1=}, {d2=}")


@dataclass
class AdapterFactors:
    l_meta_down: np.ndarray  # (r1, d1), shared across identities
    l_mid: np.ndarray        # (r2, r1), identity-specific
    l_up: np.ndarray         # (d2, r2), identity-specific

    def __post_init__(self):
        r1, d1 = self.l_meta_down.shape
        r2, r1b = self.l_mid.shape
        d2, r2b = self.l_up.shape
        if r1 != r1b or r2 != r2b:
            raise DimensionError("AdapterFactors: factor chain",
                                 self.l_up.shape, self.l_mid.shape, self.l_meta_down.shape)
        check_ranks(r1, r2, d1, d2)

    @property
    def d1(self) -> int:
        return self.l_meta_down.shape[1]

    @property
    def d2(self) -> int:
        return self.l_up.shape[0]


@dataclass
class MergedLoRA:
    """Standard two-factor adapter: delta-W = up @ down, rank <= r2."""

    down: np.ndarray  # (r2, d1)
    up: np.ndarray    # (d2, r2)


@dataclass
class FactorGrads:
    l_up: np.ndarray
    l_mid: np.ndarray
    l_meta_down: np.ndarray
    x: np.ndarray
    w0: np.ndarray


class AdaptedLayer:
    """A linear layer with a frozen base weight and a three-factor residual.

    The base weight is written in place only before :meth:`freeze_base`, by
    pretraining or a checkpoint load installing its values. Freezing
    write-protects it, so any later in-place write raises ``ValueError``.
    """

    def __init__(self, w0: np.ndarray, factors: AdapterFactors):
        if w0.shape != (factors.d2, factors.d1):
            raise DimensionError("AdaptedLayer: w0 vs factors", w0.shape,
                                 (factors.d2, factors.d1))
        self.w0 = np.ascontiguousarray(w0, dtype=np.float64)
        self.factors = factors

    def freeze_base(self) -> None:
        self.w0.setflags(write=False)

    def _operands(self, x: np.ndarray) -> tuple[np.ndarray, ...]:
        if x.ndim != 2 or x.shape[0] != self.factors.d1:
            raise DimensionError("AdaptedLayer: x", x.shape, (self.factors.d1, "batch"))
        f = self.factors
        return (self.w0, np.ascontiguousarray(f.l_meta_down),
                np.ascontiguousarray(f.l_mid), np.ascontiguousarray(f.l_up),
                SCALE, np.ascontiguousarray(x))

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Residual forward pass over the columns of ``x`` (d1, batch)."""
        return kernels.chain_forward(*self._operands(x))[0]

    def backward(self, x: np.ndarray, upstream_grad: np.ndarray) -> FactorGrads:
        """Analytic gradients for all three factors, x, and w0, given
        d(loss)/d(forward(x)). Recomputes the chain's intermediates from x."""
        if upstream_grad.shape[0] != self.factors.d2 or upstream_grad.shape[1] != x.shape[1]:
            raise DimensionError("backward: upstream_grad", upstream_grad.shape,
                                 (self.factors.d2, x.shape[1]))
        w0, lmd, lm, lu, _, x = self._operands(x)
        u = lmd @ x
        (d_lmd, d_lm, d_lu, dw0), dx = kernels.chain_backward(
            w0, lmd, lm, lu, SCALE, x, u, lm @ u, np.ascontiguousarray(upstream_grad), dx=True)
        return FactorGrads(l_up=d_lu, l_mid=d_lm, l_meta_down=d_lmd, x=dx, w0=dw0)


def merge(factors: AdapterFactors) -> MergedLoRA:
    """Collapse the mid and meta-down factors into one standard down factor."""
    return MergedLoRA(down=factors.l_mid @ factors.l_meta_down, up=factors.l_up.copy())


def init_factors(rng: np.random.Generator, d1: int, d2: int, r1: int, r2: int,
                 mode: str = "fresh") -> AdapterFactors:
    """Initialize a factor chain.

    "fresh" draws the down and mid factors at 1/sqrt(fan-in) scale and zeros
    the up factor, so the residual starts as an exact no-op. "zero" zeros
    everything (used for the identity-agnostic backbone).
    """
    check_ranks(r1, r2, d1, d2)  # before a draw, which a negative rank would fail
    if mode == "zero":
        return AdapterFactors(np.zeros((r1, d1)), np.zeros((r2, r1)), np.zeros((d2, r2)))
    if mode != "fresh":
        raise ValueError(f"unknown init mode {mode!r}")
    return AdapterFactors(rng.normal(0.0, 1.0 / np.sqrt(d1), size=(r1, d1)),
                          rng.normal(0.0, 1.0 / np.sqrt(r1), size=(r2, r1)), np.zeros((d2, r2)))
