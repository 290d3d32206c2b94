"""Toy conditional denoiser standing in for a latent diffusion backbone.

A DDPM-style forward process corrupts d-dimensional latent vectors, and a
two-layer tanh network predicts the injected noise from the noisy latent, a
sinusoidal timestep embedding, and a one-hot prompt code. Both linear layers
carry three-factor adapters; identity information enters the model ONLY
through those adapter factors — the base weights and the conditioning are
identity-agnostic by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import islice, repeat

import numpy as np

from . import kernels
from .adapter import AdaptedLayer, AdapterFactors, init_factors
from .errors import ConvergenceError, DimensionError, NumericError
from .numerics import AdamWState, FlatGroup, make_rng

TEMB_DIM = 8
# iterations whose inputs a training loop draws ahead of its steps
DRAW_BLOCK = 64


@dataclass
class DiffusionSchedule:
    alpha_bar: np.ndarray  # strictly decreasing, in (0, 1]
    # row t: time_embedding(t, T), the conditioning features of timestep t
    time_table: np.ndarray = field(init=False, repr=False, compare=False)
    sqrt_ab: np.ndarray = field(init=False, repr=False, compare=False)  # sqrt(alpha_bar)
    sqrt_1m_ab: np.ndarray = field(init=False, repr=False, compare=False)  # sqrt(1 - ab)

    def __post_init__(self):
        ab = np.asarray(self.alpha_bar, dtype=np.float64)
        if ab.ndim != 1 or len(ab) < 1:
            raise DimensionError("DiffusionSchedule: alpha_bar", ab.shape)
        if np.any(ab <= 0) or np.any(ab > 1):
            raise ValueError("alpha_bar values must lie in (0, 1]")
        if np.any(np.diff(ab) >= 0):
            raise ValueError("alpha_bar must be strictly decreasing")
        self.alpha_bar = ab
        self.time_table = np.stack([time_embedding(t, len(ab)) for t in range(len(ab))])
        self.sqrt_ab, self.sqrt_1m_ab = np.sqrt(ab), np.sqrt(1.0 - ab)

    @property
    def T(self) -> int:
        return len(self.alpha_bar)


def linear_schedule(T: int = 50) -> DiffusionSchedule:
    """alpha_bar falling linearly from 0.999 to 0.01 over T steps."""
    return DiffusionSchedule(np.linspace(0.999, 0.01, T))


def noisify(schedule: DiffusionSchedule, x0: np.ndarray, t: int,
            rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Forward-process sample: x_t = sqrt(ab_t) x0 + sqrt(1 - ab_t) eps."""
    if not 0 <= t < schedule.T:
        raise ValueError(f"timestep {t} out of range [0, {schedule.T})")
    ab = schedule.alpha_bar[t]
    eps = rng.normal(0.0, 1.0, size=x0.shape)
    x_t = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
    return x_t, eps


def time_embedding(t: int, T: int) -> np.ndarray:
    """TEMB_DIM sinusoidal features of t/T; usable constants for the no-bias network."""
    freqs = np.arange(1, TEMB_DIM // 2 + 1, dtype=np.float64)
    phase = 2.0 * np.pi * freqs * (t / T)
    return np.concatenate([np.sin(phase), np.cos(phase)])


@dataclass
class Example:
    identity: int
    x0: np.ndarray  # (d,)
    prompt_id: int
    split: str  # "reference" or "test"
    # synthetic source-image geometry, consumed by the crop planner
    image_w: int = 1024
    image_h: int = 1024
    face_box: tuple[int, int, int, int] = (384, 384, 256, 256)


@dataclass
class ToyIdentityDataset:
    prototypes: np.ndarray  # (n_identities, d)
    examples: list[Example]
    n_prompts: int
    perturbation_std: float

    @property
    def n_identities(self) -> int:
        return len(self.prototypes)

    @property
    def d(self) -> int:
        return self.prototypes.shape[1]

    def of_identity(self, identity: int) -> list[Example]:
        return [e for e in self.examples if e.identity == identity]

    def reference_of(self, identity: int) -> Example:
        return next(e for e in self.of_identity(identity) if e.split == "reference")


def make_dataset(rng: np.random.Generator, n_identities: int = 16, d: int = 32,
                 samples_per_identity: int = 20, n_prompts: int = 4,
                 single_prototype: bool = False) -> ToyIdentityDataset:
    """Synthesize a per-identity latent dataset.

    Prototypes are resampled until pairwise separation is at least 4x the
    perturbation std, so identities are genuinely distinguishable. With
    ``single_prototype`` every identity shares one prototype (a degenerate
    control where there is nothing identity-specific to learn).
    """
    for _ in range(100):
        prototypes = rng.normal(0.0, 1.0, size=(n_identities, d))
        if single_prototype:
            prototypes = np.tile(prototypes[:1], (n_identities, 1))
        # perturbation norm is 0.1 of the mean prototype norm,
        # i.e. per-dimension std = 0.1 * |p| / sqrt(d)
        mean_norm = float(np.mean(np.linalg.norm(prototypes, axis=1)))
        pert_std = 0.1 * mean_norm / np.sqrt(d)
        if single_prototype:
            break
        diffs = prototypes[:, None, :] - prototypes[None, :, :]
        dists = np.linalg.norm(diffs, axis=2)
        np.fill_diagonal(dists, np.inf)
        if dists.min() >= 4.0 * pert_std:
            break
    else:
        raise ConvergenceError("could not draw sufficiently separated prototypes")

    examples = []
    for i in range(n_identities):
        for k in range(samples_per_identity):
            x0 = prototypes[i] + rng.normal(0.0, pert_std, size=d)
            prompt_id = int(rng.integers(n_prompts))
            fw, fh = int(rng.integers(180, 420)), int(rng.integers(180, 420))
            fx = int(rng.integers(0, 1024 - fw))
            fy = int(rng.integers(0, 1024 - fh))
            examples.append(Example(identity=i, x0=x0, prompt_id=prompt_id,
                                    split="reference" if k == 0 else "test",
                                    image_w=1024, image_h=1024,
                                    face_box=(fx, fy, fw, fh)))
    return ToyIdentityDataset(prototypes=prototypes, examples=examples,
                              n_prompts=n_prompts, perturbation_std=pert_std)


def subset_dataset(dataset: ToyIdentityDataset, identity_ids: list[int]) -> ToyIdentityDataset:
    """Restrict to the given identities, renumbering them 0..k-1."""
    remap = {old: new for new, old in enumerate(identity_ids)}
    examples = [replace(e, identity=remap[e.identity])
                for e in dataset.examples if e.identity in remap]
    return ToyIdentityDataset(prototypes=dataset.prototypes[identity_ids],
                              examples=examples, n_prompts=dataset.n_prompts,
                              perturbation_std=dataset.perturbation_std)


class ToyDenoiser:
    """Two adapted linear layers around a tanh, predicting the injected noise."""

    def __init__(self, layer1: AdaptedLayer, layer2: AdaptedLayer, d: int,
                 n_prompts: int):
        self.layer1 = layer1
        self.layer2 = layer2
        self.d = d
        self.n_prompts = n_prompts
        self.prompt_codes = np.eye(n_prompts)  # row p: the one-hot code of prompt p

    @classmethod
    def build(cls, rng: np.random.Generator, d: int = 32, hidden: int = 64,
              n_prompts: int = 4, r1: int = 16, r2: int = 1,
              factor_mode: str = "zero") -> "ToyDenoiser":
        d_in = d + TEMB_DIM + n_prompts
        w0_1 = rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(hidden, d_in))
        w0_2 = rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(d, hidden))
        f1 = init_factors(rng, d_in, hidden, r1, r2, mode=factor_mode)
        f2 = init_factors(rng, hidden, d, r1, r2, mode=factor_mode)
        return cls(AdaptedLayer(w0_1, f1), AdaptedLayer(w0_2, f2), d, n_prompts)

    @property
    def layers(self) -> list[AdaptedLayer]:
        return [self.layer1, self.layer2]

    @property
    def dims(self) -> list[tuple[int, int]]:
        """Per layer, its input and output widths ``(d1, d2)``, from ``w0``."""
        return [l.w0.shape[::-1] for l in self.layers]

    def set_factors(self, f1: AdapterFactors, f2: AdapterFactors) -> None:
        self.layer1.factors = f1
        self.layer2.factors = f2

    def operands(self) -> tuple[list, list, list[tuple]]:
        """:func:`forward`'s ``(w0s, scales, chains)``, the installed factors made
        contiguous. The only reader of the installed factors."""
        chains = [(np.ascontiguousarray(f.l_meta_down), np.ascontiguousarray(f.l_mid),
                   np.ascontiguousarray(f.l_up)) for f in (l.factors for l in self.layers)]
        return [l.w0 for l in self.layers], [l.scale for l in self.layers], chains

    def fields(self, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of the noisy latent (d), time features (TEMB_DIM) and prompt
        code (n_prompts) along the last axis of network inputs (..., d_in):
        the input layout, stated once."""
        d, t = self.d, self.d + TEMB_DIM
        return inputs[..., :d], inputs[..., d:t], inputs[..., t:]

    def conditioned(self, x_t: np.ndarray, ts, prompt_ids,
                    schedule: DiffusionSchedule, out=None) -> np.ndarray:
        """Network input rows (B, d_in), into ``out`` if given: each noisy latent
        (B, d), its timestep's row of ``schedule.time_table``, its prompt's code,
        laid out by :meth:`fields`."""
        if out is None:
            out = np.empty((len(x_t), self.layer1.w0.shape[1]))
        x, temb, code = self.fields(out)
        x[...] = x_t  # a no-op when x_t is already that view of ``out``
        temb[...] = schedule.time_table[ts]
        code[...] = self.prompt_codes[prompt_ids]
        return out

    def noised_inputs(self, x0: np.ndarray, ts, prompt_ids, eps: np.ndarray,
                      schedule: DiffusionSchedule, out=None) -> np.ndarray:
        """:meth:`conditioned` rows of the latents ``x0`` (N, d) noised at
        timesteps ``ts`` by ``eps`` (N, d), as :func:`noisify` noises one.
        ``x0`` is overwritten by the noisy latents."""
        x0 *= schedule.sqrt_ab[ts, None]
        x0 += schedule.sqrt_1m_ab[ts, None] * eps
        return self.conditioned(x0, ts, prompt_ids, schedule, out)


def forward(w0s, scales, chains, inp: np.ndarray) -> np.ndarray:
    """The noise prediction (d, cols) for the network inputs ``inp`` (d_in, cols),
    given per layer the base weight, its scale and the ``(lmd, lm, lu)`` chain."""
    h = kernels.chain_forward(w0s[0], *chains[0], scales[0], inp)[0]
    return kernels.chain_forward(w0s[1], *chains[1], scales[1], np.tanh(h))[0]


# the trained tensors whose gradients train_step and diffusion_loss can return
TRAINED = frozenset({"lu", "lm", "lmd", "w0"})


def train_step(w0s, scales, chains, inp: np.ndarray, eps: np.ndarray, n, *,
               need=TRAINED, out=None):
    """One forward/backward of the denoiser over B stacked items.

    ``w0s``, ``scales`` and the ``(lmd, lm, lu)`` ``chains`` are
    :func:`forward`'s: a down factor is (B, r1, d1), or one (r1, d1) shared
    by all items, a mid (B, r2, r1) and an up (B, d2, r2). ``inp``
    (B, d_in, 1) holds the network inputs, ``eps`` (B, d) the injected
    noise. A layer makes one ``kernels.chain_forward`` and one
    ``chain_backward`` call; their stacked matmuls make the same BLAS call
    per item as a lone item. Returns the per-item losses (B,) and, per
    layer, the per-item gradients ``(d_lmd, d_lm, d_lu, dw0)`` of
    ``sum(losses) / n``. The caller checks them for non-finite values.

    ``need`` names the gradients to compute, from :data:`TRAINED`; each one
    left out is ``None`` in every layer, and its matmuls are skipped. The
    gradient with respect to layer 2's input is always computed, because
    it carries the backward pass into layer 1; layer 1's is never
    computed. A computed gradient has the same bits whatever else is needed.
    ``out`` holds per layer two arrays, or ``None``, that the needed mid and
    up gradients are written into and returned as, say ``split_params`` views.
    """
    need = frozenset(need)
    if not need <= TRAINED:
        raise ValueError(f"train_step: need={sorted(need)} names a tensor outside "
                         f"{sorted(TRAINED)}")
    (lm_out1, lu_out1), (lm_out2, lu_out2) = out or [(None, None)] * 2
    (lmd1, lm1, lu1), (lmd2, lm2, lu2) = chains  # no *-unpacking per call (~1.5 µs/step)
    z, u1, mid1 = kernels.chain_forward(w0s[0], lmd1, lm1, lu1, scales[0], inp)
    a = np.tanh(z)
    out2, u2, mid2 = kernels.chain_forward(w0s[1], lmd2, lm2, lu2, scales[1], a)
    resid = out2[:, :, 0] - eps
    # np.mean's own sum and division, without its Python wrapper
    losses = np.add.reduce(resid ** 2, axis=1) / resid.shape[1]
    g_out = (2.0 * resid / (resid.shape[1] * n))[:, :, None]
    d_lu2, d_lm2, d_lmd2, g_a, dw0_2 = kernels.chain_backward(
        w0s[1], lmd2, lm2, lu2, scales[1], a, u2, mid2, g_out, need=need | {"x"},
        out=(lu_out2, lm_out2))
    d_lu1, d_lm1, d_lmd1, _, dw0_1 = kernels.chain_backward(
        w0s[0], lmd1, lm1, lu1, scales[0], inp, u1, mid1, g_a * (1.0 - a * a),
        need=need, out=(lu_out1, lm_out1))
    return losses, [(d_lmd1, d_lm1, d_lu1, dw0_1), (d_lmd2, d_lm2, d_lu2, dw0_2)]


def drawn_batches(rng: np.random.Generator, model: ToyDenoiser, schedule: DiffusionSchedule,
                  pools, batch_size: int):
    """Each iteration's batch (examples), network inputs (B, d_in) and noise
    (B, d), drawn :data:`DRAW_BLOCK` iterations ahead in a lone loop's order:
    ``batch_size`` picks from the iteration's pool (the next of ``pools``),
    then each item's ``t`` and noise. A block is noised and conditioned at
    once, in buffers allocated once per call: an iteration's arrays are
    overwritten when the next block is drawn."""
    pools = iter(pools)
    noise = np.empty((DRAW_BLOCK, batch_size, model.d))
    inputs = np.empty((DRAW_BLOCK, batch_size, model.layer1.w0.shape[1]))
    while block := list(islice(pools, DRAW_BLOCK)):
        batches, ts = [], []
        for j, pool in enumerate(block):
            batches.append([pool[i] for i in rng.integers(len(pool), size=batch_size).tolist()])
            for k in range(batch_size):
                ts.append(rng.integers(schedule.T))
                noise[j, k] = rng.normal(0.0, 1.0, size=model.d)
        items = [item for batch in batches for item in batch]
        rows = inputs[:len(block)].reshape(len(items), -1)  # the latents go in place
        model.noised_inputs(np.stack([e.x0 for e in items], out=rows[:, :model.d]),
                            np.array(ts), [e.prompt_id for e in items],
                            noise[:len(block)].reshape(len(items), -1), schedule, out=rows)
        yield from zip(batches, inputs, noise)


def diffusion_loss(w0s, scales, chains, inp: np.ndarray, eps: np.ndarray, *,
                   need=TRAINED, out=None) -> tuple[float, list[tuple]]:
    """Mean squared error between predicted and injected noise over a batch:
    the network inputs ``inp`` (B, d_in) and the noise ``eps`` (B, d), one
    iteration's draw of :func:`drawn_batches`.

    ``w0s``, ``scales`` and ``chains`` are :func:`train_step`'s. The whole
    batch makes one :func:`train_step`, whose per-item gradients are returned,
    per layer ``(d_lmd, d_lm, d_lu, dw0)``: those named in ``need``, and
    ``None`` for each one left out; ``out`` is :func:`train_step`'s. The
    operands are only read.
    """
    if not len(eps):
        raise ValueError("diffusion_loss: empty batch")
    losses, layer_grads = train_step(w0s, scales, chains, inp[:, :, None], eps, len(eps),
                                     need=need, out=out)
    if not np.isfinite(losses).all():
        raise NumericError(f"non-finite loss at batch index "
                           f"{np.flatnonzero(~np.isfinite(losses))[0]}")
    # a running sum adds the item losses one by one, as a loop over the items
    return float(np.cumsum(losses)[-1]) / len(eps), layer_grads


def pretrain_base(dataset: ToyIdentityDataset, schedule: DiffusionSchedule,
                  seed: int, hidden: int = 64, lr: float = 2e-3,
                  batch_size: int = 8, loss_threshold: float = 0.22,
                  max_iters: int = 15000, window: int = 200) -> ToyDenoiser:
    """Train the identity-agnostic base weights on pooled data, then freeze.

    The pool ignores identity labels entirely. Stops once the windowed mean
    loss drops below ``loss_threshold``; raises if the budget runs out first.
    The last block of :func:`drawn_batches` may draw past the stop; nothing
    reads the stream after the loop, so no bit depends on it. Both base
    weights train as one :class:`~metalora.numerics.FlatGroup`'s own tensors,
    then are copied into the model's base weights, which are frozen; the zero
    factors never train, so the smallest chain (``r1 = r2 = 1``) will do.
    """
    rng = make_rng(seed)
    model = ToyDenoiser.build(rng, d=dataset.d, hidden=hidden, r1=1, r2=1,
                              n_prompts=dataset.n_prompts, factor_mode="zero")
    w0s, scales, chains = model.operands()
    base = FlatGroup(w0s, AdamWState(lr=lr))
    recent, kept = np.empty(window + DRAW_BLOCK), 0  # the losses, in iteration order
    batches = drawn_batches(rng, model, schedule, repeat(dataset.examples), batch_size)
    for it, (_, inp, eps) in zip(range(max_iters), batches):
        try:
            loss, layer_grads = diffusion_loss(base.tensors, scales, chains, inp, eps,
                                               need={"w0"})
            base.step([dw0 for *_, dw0 in layer_grads])
        except NumericError as exc:
            raise NumericError(f"pretraining iteration {it}: {exc}") from exc
        del layer_grads  # not held through the next step, which builds its own
        if kept == len(recent):  # the last window - 1 losses move to the front
            recent[:window - 1], kept = recent[kept - window + 1:], window - 1
        recent[kept], kept = loss, kept + 1
        # np.mean's own sum and division, without its Python wrapper
        if kept >= window and np.add.reduce(recent[kept - window:kept]) / window < loss_threshold:
            break
    else:
        raise ConvergenceError(
            f"pretraining did not reach loss {loss_threshold} within {max_iters} "
            f"iterations (windowed loss {np.mean(recent[max(kept - window, 0):kept]):.4f})")
    for layer, trained in zip(model.layers, base.tensors):
        layer.w0[...] = trained
        layer.freeze_base()
    return model


def generate(model: ToyDenoiser, schedule: DiffusionSchedule, prompt_id: int,
             rng: np.random.Generator) -> np.ndarray:
    """Deterministic reverse pass (DDIM-style) from a seeded Gaussian latent.
    The model's operands are read once; each step is one :func:`forward` of
    one input column (d_in, 1), allocated once per call: its prompt code is
    written once, its latent and time features in place at each step. The
    step coefficients are the schedule's ``sqrt_ab`` and ``sqrt_1m_ab``."""
    operands = model.operands()
    col = np.empty((model.layer1.w0.shape[1], 1))
    x, temb, code = model.fields(col[:, 0])
    x[...] = rng.normal(0.0, 1.0, size=model.d)
    code[...] = model.prompt_codes[prompt_id]
    sqrt_ab, sqrt_1m_ab = schedule.sqrt_ab, schedule.sqrt_1m_ab
    for t in range(schedule.T - 1, -1, -1):
        temb[...] = schedule.time_table[t]
        eps_hat = forward(*operands, col)[:, 0]
        x0_hat = (x - sqrt_1m_ab[t] * eps_hat) / sqrt_ab[t]
        if t > 0:
            x[...] = sqrt_ab[t - 1] * x0_hat + sqrt_1m_ab[t - 1] * eps_hat
    return x0_hat
