"""Stage-2 personalization: fit identity factors from one example.

The shared down factors arrive frozen from a Stage-1 checkpoint; fresh mid
and up factors are initialized (the up factor at zero, so iteration 0 is the
unmodified base model) and trained with batch-size-1 AdamW over the crop-
augmented views of the reference example. Independent runs train in
lockstep (:func:`run_stage2_many`), each with the bits it would get alone.
The result is exported as a standard two-factor adapter via
:func:`metalora.adapter.merge`.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .adapter import SCALE, AdapterFactors, MergedLoRA, init_factors, merge
from .augment import CropSpec, FaceBox, plan_crops, sample_view
from .checkpoint import load_layers
from .config import Settings, check, setting
from .errors import DimensionError, MetaLoraError, NumericError, RankError
from .metatrain import fresh_identity_params, split_params
from .numerics import checksum, make_rng
from .toymodel import (DRAW_BLOCK, DiffusionSchedule, Example, ToyDenoiser,
                       ToyIdentityDataset, train_step)


@dataclass
class PersonalizeConfig(Settings):
    """Stage 2's settings: each field is the config key that its ``setting`` names."""
    q_st2: int = setting("q_st2")
    r1: int = setting("r1")
    r2: int = setting("r2")
    lr: float = setting("stage2_lr")
    seed: int = setting("seed")
    weight_decay: float = setting("weight_decay")
    view_strength: float = setting("view_strength")
    tau_fraction: float = setting("tau_fraction")
    smoothing_window: int = setting("smoothing_window")


def load_stage1(path, expected_r1: int, expected_dims: list[tuple[int, int]]
                ) -> list[np.ndarray]:
    """Load the Stage-1 shared down factors and flag them frozen.

    The returned arrays are write-protected: any in-place update attempt
    raises. Rank or shape mismatches against the target model are refused.
    """
    lmd = load_layers(path, "stage1")[1]["lmd"]
    want = [(expected_r1, d1) for d1, _d2 in expected_dims]
    if [m.shape for m in lmd] != want:
        raise RankError(f"stage-1 lmd shapes {[m.shape for m in lmd]}, expected {want}")
    for m in lmd:
        m.setflags(write=False)
    return lmd


def view_latent(x0: np.ndarray, rect: tuple[int, int, int, int], flip: bool,
                strength: float) -> np.ndarray:
    """Deterministic crop-conditioned latent for one augmented view.

    The toy pipeline never resamples pixels; each (rect, flip) pair maps to a
    reproducible small perturbation of the reference latent.
    """
    seed = zlib.crc32(struct.pack("<4i?", *rect, flip))
    scale = strength * float(np.linalg.norm(x0)) / np.sqrt(x0.size)
    return x0 + scale * make_rng(seed).normal(0.0, 1.0, size=x0.shape)


def make_probe(model: ToyDenoiser, dataset: ToyIdentityDataset, identity: int,
               schedule: DiffusionSchedule, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed evaluation batch over an identity's first 16 held-out samples:
    network inputs (d_in, n) and noise targets (d, n). Each sample draws its
    ``t`` and then its noise."""
    rng = make_rng(seed)
    items = [e for e in dataset.of_identity(identity) if e.split == "test"][:16]
    draws = [(int(rng.integers(schedule.T)), rng.normal(0.0, 1.0, size=e.x0.shape))
             for e in items]
    eps = np.stack([noise for _, noise in draws])
    rows = model.noised_inputs(np.stack([e.x0 for e in items]), [t for t, _ in draws],
                               [e.prompt_id for e in items], eps, schedule)
    return np.ascontiguousarray(rows.T), np.ascontiguousarray(eps.T)


def probe_loss(w0s, chains, w0x: np.ndarray, u: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Each run's probe loss (n,): the mean squared error of the denoiser's
    prediction for a stack of n probes against their noise ``eps`` (n, d, cols).
    ``chains`` are :func:`~metalora.toymodel.forward`'s, stacked; ``w0x`` =
    ``w0s[0] @ inp`` and ``u`` = ``lmd1 @ inp`` are layer 1's products of the
    probes' inputs with its frozen operands. Layer 1 adds up in
    ``kernels.chain_forward``'s order, so a run's loss has the bits of
    ``forward`` on the inputs."""
    (_, lm1, lu1), (lmd2, lm2, lu2) = chains
    h = lu1 @ (lm1 @ u)  # layer 1's pre-activation, then its tanh, in place
    np.add(w0x, np.multiply(SCALE, h, out=h), out=h)
    out = kernels.chain_forward(w0s[1], lmd2, lm2, lu2, SCALE, np.tanh(h, out=h))[0]
    return np.mean(((out - eps) ** 2).reshape(len(eps), -1), axis=1)


@dataclass
class Stage2Result:
    factors: list[AdapterFactors]
    train_losses: list[float]
    probe_losses: list[float] = field(default_factory=list)
    lmd_checksum_before: str = ""
    lmd_checksum_after: str = ""
    # a probed run's iterations to threshold, the probe row it stopped on:
    # its curves and factors are those of its first min(count, q_st2)
    # iterations. None for a run without a probe, which trains q_st2
    iters_to_threshold: int | None = None

    @property
    def merged(self) -> list[MergedLoRA]:
        """Each layer's two-factor export, merged from ``factors`` when read."""
        return [merge(f) for f in self.factors]

    @property
    def lmd_frozen(self) -> bool:
        return self.lmd_checksum_before == self.lmd_checksum_after


@dataclass
class Stage2Job:
    """What one run of a :func:`run_stage2_many` call has of its own: its frozen
    shared down factors (one per layer), its one reference example, its seed
    and an optional loss probe (:func:`make_probe`'s inputs and noise), which
    stops it. The call's config holds the rest."""
    lmd: list[np.ndarray]
    reference: Example
    seed: int
    probe: tuple[np.ndarray, np.ndarray] | None = None


def run_stage2(model: ToyDenoiser, lmd: list[np.ndarray], reference: Example,
               schedule: DiffusionSchedule, config: PersonalizeConfig) -> Stage2Result:
    """Fit fresh mid/up factors from the augmented views of one reference example.

    AdamW runs with batch size 1 for q_st2 iterations, without a probe. The
    shared down factors never move, and ``model`` is only read. This is
    :func:`run_stage2_many` with one job, seeded with ``config.seed``.
    """
    return run_stage2_many(model, [Stage2Job(lmd, reference, config.seed)], schedule,
                           config)[0]


def _check_jobs(model: ToyDenoiser, jobs: list[Stage2Job], r1: int) -> None:
    if not jobs:
        raise MetaLoraError("run_stage2_many: no jobs")
    first = jobs[0]
    for k, job in enumerate(jobs):
        if (job.probe is None) != (first.probe is None):
            raise MetaLoraError(f"job {k}: either every job has a probe or none has")
        if job.probe is not None and ([a.shape for a in job.probe]
                                      != [a.shape for a in first.probe]):
            raise MetaLoraError(f"job {k}: probe shapes {[a.shape for a in job.probe]}, "
                                f"job 0's {[a.shape for a in first.probe]}")
        for li, (d1, _d2) in enumerate(model.dims):
            want = (r1, d1)
            if job.lmd[li].shape != want:
                raise DimensionError(f"job {k}: shared down factor {li}",
                                     job.lmd[li].shape, want)


@dataclass
class _Stream:
    """One seeded random stream of :func:`run_stage2_many`, shared by the jobs
    with its seed and reference object. ``latents[v, flip]`` is the latent
    of crop spec ``v`` with that flip."""
    rng: np.random.Generator
    specs: list[CropSpec]
    latents: np.ndarray  # (n_specs, 2, d)
    prompt: int          # the reference's prompt
    fresh: np.ndarray    # the fresh mid/up factors, drawn first


def _make_streams(jobs: list[Stage2Job], d: int, dims: list[tuple[int, int]],
                  config: PersonalizeConfig):
    """The call's streams, one per distinct (seed, reference object), and the
    stream of each job. Each reference object's crop plan and view latents
    are made once per call, in one view table keyed by the reference's
    ``id``, and shared by its streams. Both are for speed: one stream per
    job made the default speed experiment 18-22 % slower, and a
    :func:`view_latent` per draw 38-52 % (2-vCPU Xeon, 1 BLAS thread)."""
    streams: list[_Stream] = []
    stream_of: dict[tuple[int, int], int] = {}  # (seed, reference id) -> stream
    tables: dict[int, tuple] = {}  # reference id -> (crop plan, view latents)
    job_stream = []
    for k, job in enumerate(jobs):
        ref = job.reference
        if id(ref) not in tables:
            if ref.x0.shape != (d,):
                raise DimensionError(f"job {k}: reference latent", ref.x0.shape, (d,))
            specs = plan_crops(ref.image_w, ref.image_h, FaceBox(*ref.face_box))
            tables[id(ref)] = specs, np.array(
                [[view_latent(ref.x0, spec.rect, flip, config.view_strength)
                  for flip in (False, True)] for spec in specs])
        key = (job.seed, id(ref))
        if key not in stream_of:
            rng = make_rng(job.seed)
            fresh = fresh_identity_params(rng, dims, config.r1, config.r2)
            stream_of[key] = len(streams)
            streams.append(_Stream(rng, *tables[id(ref)], ref.prompt_id, fresh))
        job_stream.append(stream_of[key])
    return streams, np.array(job_stream)


def run_stage2_many(model: ToyDenoiser, jobs: list[Stage2Job],
                    schedule: DiffusionSchedule,
                    config: PersonalizeConfig) -> list[Stage2Result]:
    """Train R independent stage-2 runs in lockstep, all with one ``config``.

    A job states only what its run has of its own (:class:`Stage2Job`); the
    call's ``config`` holds every other setting, and its ``seed`` is not
    read. Each run gives the same bits as when trained alone. It replays its
    own random stream in the order of a single run: fresh factors, then a
    crop spec index, a flip, ``t`` and the noise on every iteration. Jobs
    with the same seed and the same reference object replay the same
    stream, so they share one generator and its draws. Every stream draws
    its next :data:`DRAW_BLOCK` iterations ahead of the loop, so memory does
    not grow with ``q_st2``. Each reference object has one view table per
    call, its crop plan and each spec's and flip's :func:`view_latent`, made
    before the loop and shared by its streams. A drawn block is noised and
    conditioned at once, per stream, by one ``model.noised_inputs`` call,
    and gathered once by the runs' streams into (block, R, .) buffers
    allocated once per call. An iteration makes one
    :func:`metalora.toymodel.train_step` over per-layer ``(lmd, lm, lu)``
    chains of stacked (R, ., .) views, made once per stack size, whose
    matmuls make the same BLAS call per run as a lone run, and one
    ``kernels.adamw_update`` of a flat (R, n) buffer holding every run's mid
    and up factors in stage 1's layout (:func:`metalora.metatrain.split_params`);
    the step writes their gradients into an (R, n) buffer of the same
    layout. The loss curves fill (R, iterations) arrays, a run's curve in a
    row. A probe's frozen layer-1 products are built once per run, and each
    probe row of the stack is one :func:`probe_loss` call.

    The probe is the stopping rule. A probed run stops on the first probe
    row that :func:`threshold_reached` marks, its iterations to threshold:
    a smoothed entry reads only earlier entries and the threshold only the
    first, so this is the count of a full ``q_st2`` curve. The run then
    leaves the stack with its result, made there: its count in
    ``iters_to_threshold`` and the factors and curves of its ``count``
    iterations, which have the bits of a full-length run's first
    ``count``. The runs still training move up into the leading rows of the
    call's buffers, by one gather per buffer, and the next block draws only
    the streams that one of them replays. A run that never crosses trains
    ``q_st2`` iterations and reports ``q_st2 + 1``; with
    ``tau_fraction = 0`` no positive loss crosses, so every run gives its
    whole curve. A run without a probe trains ``q_st2`` iterations and
    reports ``iters_to_threshold = None``.

    Either every job or none has a probe, all of one shape. ``model`` is only
    read. An error names the job by its index in ``jobs``.
    """
    _check_jobs(model, jobs, config.r1)
    R, d, T, q = len(jobs), model.d, schedule.T, config.q_st2
    dims = model.dims
    streams, job_stream = _make_streams(jobs, d, dims, config)
    block = min(DRAW_BLOCK, q)
    job_inputs = np.empty((block, R, dims[0][0], 1))
    job_noise = np.empty((block, R, d))
    before = ["".join(checksum(m) for m in job.lmd) for job in jobs]

    params = np.stack([streams[s].fresh for s in job_stream])
    lmd1, lmd2 = (np.stack([job.lmd[li] for job in jobs]) for li in range(2))
    grads, *moments = np.zeros((3, *params.shape))  # and AdamW's two moments
    w0s = [l.w0 for l in model.layers]
    train_losses = np.empty((R, q))
    # what a run's stack row holds across iterations, moved up when a run
    # leaves (each step overwrites the gradients)
    stacked = [params, *moments, lmd1, lmd2, train_losses]

    probed = jobs[0].probe is not None
    if probed:
        p_inp, p_eps = (np.stack([job.probe[i] for job in jobs]) for i in range(2))
        # frozen: the base weight and the shared down factor never move in
        # stage 2, so their products with the inputs are made once. Probing
        # through forward on the inputs gives the same bits, but made the
        # default speed experiment 1-8 % slower (2-vCPU Xeon, 1 BLAS thread)
        p_w0x, p_u = w0s[0] @ p_inp, lmd1 @ p_inp
        del p_inp
        probe_losses = np.empty((R, q + 1))
        stacked += [p_eps, p_w0x, p_u, probe_losses]

    def stack(n):
        """Views of the stack's first n rows, made once per stack size: the
        training step's chains and gradients, AdamW's flat parameters,
        gradients and moments, the drawn block's inputs and noise, and the
        train losses by iteration."""
        flat = (params[:n], grads[:n], moments[0][:n], moments[1][:n])
        return ([(lmd[:n], lm, lu) for lmd, (lm, lu)
                 in zip((lmd1, lmd2), split_params(flat[0], dims, config.r1, config.r2))],
                [(None, lm, lu, None) for lm, lu
                 in split_params(flat[1], dims, config.r1, config.r2)], flat,
                job_inputs[:, :n], job_noise[:, :n], train_losses[:n].T)

    def draw_block(nb):
        """The next nb iterations of the ``live`` streams, drawn in a lone
        run's order: a crop spec index, its flip, ``t`` and the noise. They
        are noised, conditioned and gathered by the stack's streams ``pos``
        into the leading rows of the (block, R, .) buffers."""
        noise, latents = np.empty((2, nb, len(live), d))
        ts = np.empty((nb, len(live)), dtype=np.intp)
        for s, st in enumerate(streams[k] for k in live):
            rng, specs = st.rng, st.specs
            picks, flips, times = [], [], []
            for i in range(nb):
                v = int(rng.integers(len(specs)))
                picks.append(v)
                flips.append(int(sample_view(specs[v], rng)))
                times.append(rng.integers(T))
                noise[i, s] = rng.normal(0.0, 1.0, size=d)
            latents[:, s], ts[:, s] = st.latents[picks, flips], times
        prompts = np.tile([streams[k].prompt for k in live], nb)
        np.take(model.noised_inputs(latents.reshape(-1, d), ts.ravel(), prompts,
                                    noise.reshape(-1, d), schedule).reshape(nb, len(live), -1),
                pos, axis=1, out=block_inputs[:nb, :, :, 0])
        np.take(noise, pos, axis=1, out=block_noise[:nb])

    def finish(j, count):
        """Stack row j's job's result at ``count`` (q + 1: never reached), from copies
        of its factors and curves; ``lmd_checksum_after`` comes after the loop."""
        k, iters = rows[j], min(count, q)
        factors = [AdapterFactors(m, lm[j].copy(), lu[j].copy())
                   for m, (_, lm, lu) in zip(jobs[k].lmd, chains)]
        results[k] = Stage2Result(
            factors, train_losses[j, :iters].tolist(),
            probe_losses[j, :iters + 1].tolist() if probed else [],
            lmd_checksum_before=before[k], iters_to_threshold=count if probed else None)

    n, rows = R, np.arange(R)  # the stack's size, and the job of each row
    live, pos = np.arange(len(streams)), job_stream  # the streams drawn, and each row's
    chains, grad_views, flat, block_inputs, block_noise, losses_at = stack(n)
    results = [None] * R  # each job's result, made as it leaves the stack
    for it in range(q + 1):
        i = it % DRAW_BLOCK  # the iteration's row of its drawn block
        if probed:  # probe row `it`: the model after `it` iterations
            probe_losses[:n, it] = probe_loss(w0s, chains, p_w0x[:n], p_u[:n], p_eps[:n])
            hit = threshold_reached(probe_losses[:n], it, config.tau_fraction,
                                    config.smoothing_window)
            if hit.any():
                for j in np.flatnonzero(hit):
                    finish(j, it)
                keep = np.flatnonzero(~hit)
                n, rows = len(keep), rows[keep]
                # the rows left move up, with their rows of the drawn block
                # still to train: one gather per buffer
                for buf in stacked + [b[i:].swapaxes(0, 1) for b in (job_inputs, job_noise) if i]:
                    buf[:n] = buf[keep]
                chains, grad_views, flat, block_inputs, block_noise, losses_at = stack(n)
                live, pos = np.unique(job_stream[rows], return_inverse=True)
        if it == q or n == 0:
            break
        if i == 0:
            draw_block(min(DRAW_BLOCK, q - it))
        losses, _ = train_step(w0s, chains, block_inputs[i], block_noise[i], 1,
                               out=grad_views)
        if not np.isfinite(losses).all():
            bad = rows[np.flatnonzero(~np.isfinite(losses))[0]]
            raise NumericError(f"job {bad}: non-finite loss at stage-2 iteration {it}")
        if not np.isfinite(flat[1]).all():
            bad = rows[np.flatnonzero(~np.isfinite(flat[1]).all(axis=1))[0]]
            raise NumericError(f"job {bad}: non-finite gradient at stage-2 iteration {it}")
        kernels.adamw_update(*flat, it + 1, config.lr, config.weight_decay)
        losses_at[it] = losses

    del job_inputs, job_noise, block_inputs, block_noise
    for j in range(n):  # the runs still training, once the blocks' buffers are gone
        finish(j, q + 1)
    for result, job in zip(results, jobs):
        result.lmd_checksum_after = "".join(checksum(m) for m in job.lmd)
    return results


def threshold_reached(curves: np.ndarray, row: int, tau_fraction: float,
                      window: int) -> np.ndarray:
    """Per curve (a row of ``curves``, at least ``row + 1`` long), whether its
    smoothed value at ``row`` is at or below ``tau_fraction`` x its first
    value. The smoothed value is the trailing moving average: the mean of
    the curve's last ``window`` entries up to ``row``, fewer at the start.
    """
    lo = max(0, row - window + 1)
    return curves[:, lo:row + 1].mean(axis=1) <= tau_fraction * curves[:, 0]


def adaptation_speed_experiment(model: ToyDenoiser, dataset: ToyIdentityDataset,
                                heldout_identities: list[int],
                                lmd_meta: list[np.ndarray],
                                schedule: DiffusionSchedule,
                                config: PersonalizeConfig,
                                seeds: list[int]) -> dict:
    """Iterations-to-threshold comparison: meta-trained vs random shared
    down factors, per held-out identity per seed.

    All 2 x |seeds| x |identities| probed runs train in one
    :func:`run_stage2_many` call, where each run stops on the iteration its
    count becomes known, and that count equals the one on a full ``q_st2``
    probe curve. A run that never reaches the threshold reports the
    sentinel ``q_st2 + 1`` (the length of its full probe curve), and that
    value enters the medians like any other;
    ``meta_never_reached`` and ``random_never_reached`` count such runs,
    overall and per seed.
    """
    check({"speed_seeds": len(seeds)})
    jobs = []
    for seed in seeds:
        for ident in heldout_identities:
            ref = dataset.reference_of(ident)
            probe = make_probe(model, dataset, ident, schedule, seed=seed * 10007 + ident)
            rrng = make_rng(seed * 977 + ident)
            lmd_rand = [init_factors(rrng, d1, d2, config.r1, config.r2).l_meta_down
                        for d1, d2 in model.dims]
            jobs += [Stage2Job(lmd_meta, ref, seed * 31 + ident, probe),
                     Stage2Job(lmd_rand, ref, seed * 31 + ident, probe)]
    iters = iter([res.iters_to_threshold for res in
                  run_stage2_many(model, jobs, schedule, config)])
    never = config.q_st2 + 1

    def summary(per_identity: list[dict]) -> dict:
        meta = [p["meta_iters"] for p in per_identity]
        rand = [p["random_iters"] for p in per_identity]
        return {"median_meta": float(np.median(meta)),
                "median_random": float(np.median(rand)),
                "meta_never_reached": meta.count(never),
                "random_never_reached": rand.count(never)}

    results = []
    for seed in seeds:
        per_identity = [{"identity": ident, "meta_iters": next(iters),
                         "random_iters": next(iters)}
                        for ident in heldout_identities]
        results.append({"seed": seed, "per_identity": per_identity,
                        **summary(per_identity)})
    return {
        "seeds": results,
        **summary([p for r in results for p in r["per_identity"]]),
        "seeds_meta_faster": sum(r["median_meta"] < r["median_random"] for r in results),
        "max_iterations": config.q_st2,
    }
