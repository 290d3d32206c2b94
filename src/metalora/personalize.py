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
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import kernels
from .adapter import AdapterFactors, MergedLoRA, init_factors, merge
from .augment import CropSpec, FaceBox, plan_crops, sample_view
from .checkpoint import load_layers
from .errors import DimensionError, MetaLoraError, NumericError, RankError
from .metatrain import fresh_identity_params, split_params
from .numerics import AdamWState, checksum, make_rng
from .toymodel import (DRAW_BLOCK, DiffusionSchedule, Example, ToyDenoiser,
                       ToyIdentityDataset, forward, train_step)


@dataclass
class PersonalizeConfig:
    q_st2: int = 375
    r1: int = 16
    r2: int = 1
    lr: float = 1e-2
    seed: int = 0
    weight_decay: float = 0.0
    view_strength: float = 0.05  # latent perturbation per augmented view
    tau_fraction: float = 0.5    # speed-experiment loss threshold
    smoothing_window: int = 15

    def __post_init__(self):
        if self.r2 < 1 or self.q_st2 < 1:
            raise MetaLoraError("need r2 >= 1 and q_st2 >= 1")


def load_stage1(path, expected_r1: int, expected_dims: list[tuple[int, int]]
                ) -> list[np.ndarray]:
    """Load the Stage-1 shared down factors and flag them frozen.

    The returned arrays are write-protected: any in-place update attempt
    raises. Rank or shape mismatches against the target model are refused.
    """
    header, layers = load_layers(path, "stage1")
    if header["r1"] != expected_r1:
        raise RankError(f"checkpoint has r1={header['r1']}, model expects r1={expected_r1}")
    lmd, want = layers["lmd"], [(expected_r1, d1) for d1, _d2 in expected_dims]
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
    vrng = np.random.Generator(np.random.PCG64(seed))
    scale = strength * float(np.linalg.norm(x0)) / np.sqrt(x0.size)
    return x0 + scale * vrng.normal(0.0, 1.0, size=x0.shape)


@dataclass
class ProbeItem:
    """A frozen (latent, prompt, t, eps) tuple for loss probing."""
    x0: np.ndarray
    prompt_id: int
    t: int
    eps: np.ndarray


def make_probe(dataset: ToyIdentityDataset, identity: int,
               schedule: DiffusionSchedule, seed: int,
               max_items: int = 16) -> list[ProbeItem]:
    """Fixed evaluation set over an identity's held-out samples."""
    rng = make_rng(seed)
    items = [e for e in dataset.of_identity(identity) if e.split == "test"]
    items = items[:max_items]
    probe = []
    for e in items:
        t = int(rng.integers(schedule.T))
        eps = rng.normal(0.0, 1.0, size=e.x0.shape)
        probe.append(ProbeItem(x0=e.x0, prompt_id=e.prompt_id, t=t, eps=eps))
    return probe


def _probe_batch(model: ToyDenoiser, schedule: DiffusionSchedule,
                 probe: list[ProbeItem]) -> tuple[np.ndarray, np.ndarray]:
    """The probe as one batch: network inputs (d_in, n) and noise targets (d, n)."""
    eps = np.stack([p.eps for p in probe])
    rows = model.noised_inputs(np.stack([p.x0 for p in probe]), [p.t for p in probe],
                               [p.prompt_id for p in probe], eps, schedule)
    return np.ascontiguousarray(rows.T), np.ascontiguousarray(eps.T)


def probe_loss(model: ToyDenoiser, schedule: DiffusionSchedule,
               probe: list[ProbeItem]) -> float:
    """Probe loss of the model with its installed factors."""
    inp, eps = _probe_batch(model, schedule, probe)
    return float(np.mean((forward(*model.operands(), inp) - eps) ** 2))


@dataclass
class Stage2Result:
    factors: list[AdapterFactors]
    merged: list[MergedLoRA]
    train_losses: list[float]
    probe_losses: list[float] = field(default_factory=list)
    lmd_checksum_before: str = ""
    lmd_checksum_after: str = ""
    # with run_stage2_many's stop_at_threshold: the iterations_to_threshold
    # of the run's probe curve
    iters_to_threshold: int | None = None


@dataclass
class Stage2Job:
    """One stage-2 run: frozen shared down factors (one per layer), the
    reference example(s), its config and an optional loss probe."""
    lmd: list[np.ndarray]
    references: Example | list[Example]
    config: PersonalizeConfig
    probe: list[ProbeItem] | None = None


def run_stage2(model: ToyDenoiser, lmd: list[np.ndarray],
               references: Example | list[Example],
               schedule: DiffusionSchedule, config: PersonalizeConfig,
               probe: list[ProbeItem] | None = None) -> Stage2Result:
    """Fit fresh mid/up factors from the augmented reference view set.

    Accepts one reference example or several (the multi-reference
    extension); views from all references are pooled. AdamW runs with batch
    size 1 for q_st2 iterations. The shared down factors never move, and
    ``model`` is only read. This is :func:`run_stage2_many` with one job.
    """
    return run_stage2_many(model, [Stage2Job(lmd, references, config, probe)],
                           schedule)[0]


def _check_jobs(model: ToyDenoiser, jobs: list[Stage2Job]) -> None:
    if not jobs:
        raise MetaLoraError("run_stage2_many: no jobs")
    first = jobs[0]
    for k, job in enumerate(jobs):
        if replace(job.config, seed=first.config.seed) != first.config:
            raise MetaLoraError(f"job {k}: config differs from job 0 in more "
                                f"than its seed")
        if (job.probe is None) != (first.probe is None):
            raise MetaLoraError(f"job {k}: either every job has a probe or none has")
        if job.probe is not None and len(job.probe) != len(first.probe):
            raise MetaLoraError(f"job {k}: probe has {len(job.probe)} items, "
                                f"job 0's has {len(first.probe)}")
        for li, (d1, _d2) in enumerate(model.dims):
            want = (first.config.r1, d1)
            if job.lmd[li].shape != want:
                raise DimensionError(f"job {k}: shared down factor {li}",
                                     job.lmd[li].shape, want)


@dataclass
class _Stream:
    """One seeded random stream of :func:`run_stage2_many`, shared by the jobs
    with its seed and reference objects. ``latents[v, flip]`` is the latent
    of view ``v`` (a reference and a crop spec) with that flip."""
    rng: np.random.Generator
    views: list[tuple[Example, CropSpec]]
    latents: np.ndarray  # (n_views, 2, d)
    prompts: np.ndarray  # (n_views,) each view's reference prompt
    fresh: np.ndarray    # the fresh mid/up factors, drawn first


def _make_streams(jobs: list[Stage2Job], d: int, dims: list[tuple[int, int]],
                  strength: float):
    """The call's streams, one per distinct (seed, reference objects), and
    the stream of each job. The streams' view latents come from one dict
    keyed by content (reference latent bytes, rect, flip), so each key's
    :func:`view_latent` is computed once per call."""
    streams: list[_Stream] = []
    stream_of: dict[tuple, int] = {}  # (seed, reference ids) -> stream
    made: dict[tuple, np.ndarray] = {}  # (latent bytes, rect, flip) -> view latent
    job_stream = []
    for k, job in enumerate(jobs):
        refs = [job.references] if isinstance(job.references, Example) else job.references
        key = (job.config.seed, tuple(id(ref) for ref in refs))
        if key not in stream_of:
            views = []
            for ref in refs:
                if ref.x0.shape != (d,):
                    raise DimensionError(f"job {k}: reference latent", ref.x0.shape, (d,))
                specs = plan_crops(ref.image_w, ref.image_h, FaceBox(*ref.face_box))
                views.extend((ref, spec) for spec in specs)
            if not views:
                raise MetaLoraError(f"job {k}: augmentation plan is empty")
            latents = np.empty((len(views), 2, d))
            for v, (ref, spec) in enumerate(views):
                for flip in (False, True):
                    content = (ref.x0.tobytes(), spec.rect, flip)
                    if content not in made:
                        made[content] = view_latent(ref.x0, spec.rect, flip, strength)
                    latents[v, int(flip)] = made[content]
            rng = make_rng(job.config.seed)
            fresh = fresh_identity_params(rng, dims, job.config.r1, job.config.r2)
            stream_of[key] = len(streams)
            streams.append(_Stream(rng, views, latents,
                                   np.array([ref.prompt_id for ref, _ in views]), fresh))
        job_stream.append(stream_of[key])
    return streams, np.array(job_stream)


def _draw_block(streams: list[_Stream], noise: np.ndarray, latents: np.ndarray, T: int):
    """Each stream's next ``len(noise)`` iterations, drawn in a lone run's
    order: a view index, its flip, ``t`` and the noise, which goes into the
    (n, S, d) ``noise``; the drawn views' latents go into the (n, S, d)
    ``latents``. Returns the (n, S) timesteps and prompts."""
    n = len(noise)
    ts = np.empty((n, len(streams)), dtype=np.intp)
    prompts = np.empty((n, len(streams)), dtype=np.intp)
    for s, st in enumerate(streams):
        rng, views = st.rng, st.views
        picks, flips, times = [], [], []
        for i in range(n):
            v = int(rng.integers(len(views)))
            picks.append(v)
            flips.append(int(sample_view(views[v][1], rng).flip))
            times.append(rng.integers(T))
            noise[i, s] = rng.normal(0.0, 1.0, size=noise.shape[2])
        latents[:, s] = st.latents[picks, flips]
        ts[:, s] = times
        prompts[:, s] = st.prompts[picks]
    return ts, prompts


# the gradients stage 2 trains: the mid and up factors
STAGE2_NEED = frozenset({"lu", "lm"})


def run_stage2_many(model: ToyDenoiser, jobs: list[Stage2Job],
                    schedule: DiffusionSchedule, *,
                    stop_at_threshold: bool = False) -> list[Stage2Result]:
    """Train R independent stage-2 runs in lockstep.

    Each run gives the same bits as when trained alone. It replays its own
    random stream in the order of a single run: fresh factors, then a view
    index, a flip, ``t`` and the noise on every iteration. Jobs with the
    same seed and the same reference objects replay the same stream, so
    they share one generator and its draws. Every stream draws its next
    :data:`DRAW_BLOCK` iterations ahead of the loop, so memory does not grow
    with ``q_st2``. Each stream holds its views' latents, made before the
    loop from one dict per call keyed by content (the reference latent's
    bytes, the rect and the flip): each key's :func:`view_latent` is computed
    once. A drawn block is noised and conditioned at once, per stream, by one
    ``model.noised_inputs`` call, and gathered once by the jobs' streams
    into (block, R, .) buffers allocated once per call. An iteration makes
    one :func:`metalora.toymodel.train_step` over stacked (R, ., .) operands
    listed once per call, whose matmuls make the same BLAS call per run as
    a lone run, and one ``kernels.adamw_update`` of a flat (R, n) buffer
    holding every run's mid and up factors in stage 1's layout
    (:func:`metalora.metatrain.split_params`); the step writes their
    gradients into an (R, n) buffer of the same layout. The loss curves fill
    (iterations, R) arrays. A probe's input and its frozen layer-1 products
    are built once per run, and its layer-1 pre-activation is written into
    one preallocated buffer.

    With ``stop_at_threshold`` (probed jobs only), the loop ends at the first
    block boundary, before the next block is drawn, where every run's
    :func:`iterations_to_threshold` is known: its count on the probe curve so
    far is below the curve's length, so the full curve's count is the same.
    Each result then holds that count in ``iters_to_threshold``, and its
    curves and factors are those of the iterations run; the iterations run
    have the bits of a full-length run. A run that never crosses keeps the
    loop going to ``q_st2``.

    Jobs may differ in their seed, references, shared down factors and
    probe; the rest of their configs must agree, and either every job or
    none has a probe, all of one size. ``model`` is only read.
    """
    _check_jobs(model, jobs)
    cfg = jobs[0].config
    if stop_at_threshold and jobs[0].probe is None:
        raise MetaLoraError("run_stage2_many: stop_at_threshold needs probed jobs")
    if cfg.lr < 0:  # adamw_step's check, made once before the loop
        raise ValueError(f"adamw_step: lr must be >= 0, got {cfg.lr}")
    R, d, T = len(jobs), model.d, schedule.T
    dims = model.dims
    streams, job_stream = _make_streams(jobs, d, dims, cfg.view_strength)
    block = min(DRAW_BLOCK, cfg.q_st2)
    noise = np.empty((block, len(streams), d))
    latents = np.empty((block, len(streams), d))
    job_inputs = np.empty((block, R, dims[0][0], 1))
    job_noise = np.empty((block, R, d))
    before = ["".join(checksum(m) for m in job.lmd) for job in jobs]

    params = np.stack([streams[s].fresh for s in job_stream])
    (lm1, lu1), (lm2, lu2) = split_params(params, dims, cfg.r1, cfg.r2)
    lmd1, lmd2 = (np.stack([job.lmd[li] for job in jobs]) for li in range(2))
    state = AdamWState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    hyper = (state.lr, state.beta1, state.beta2, state.eps, state.weight_decay)
    grads, *moments = np.zeros((3, *params.shape))  # and AdamW's two moments
    grad_views = split_params(grads, dims, cfg.r1, cfg.r2)
    (w0_1, w0_2), (s1, s2), _ = model.operands()
    operands = ([w0_1, w0_2], [s1, s2], [lmd1, lmd2], [lm1, lm2], [lu1, lu2])

    probed = jobs[0].probe is not None
    if probed:
        batches = [_probe_batch(model, schedule, job.probe) for job in jobs]
        p_inp = np.stack([b[0] for b in batches])
        p_eps = np.stack([b[1] for b in batches])
        p_w0x = w0_1 @ p_inp   # frozen: the base weight and the shared
        p_u = lmd1 @ p_inp     # down factor never move in stage 2
        p_mid = np.empty((R, cfg.r2, p_inp.shape[2]))
        p_h = np.empty_like(p_w0x)  # layer 1's pre-activation, then its tanh
        probe_losses = np.empty((cfg.q_st2 + 1, R))

    def record_probe(row):
        np.matmul(lu1, np.matmul(lm1, p_u, out=p_mid), out=p_h)
        np.add(p_w0x, np.multiply(s1, p_h, out=p_h), out=p_h)
        out = kernels.chain_forward(w0_2, lmd2, lm2, lu2, s2, np.tanh(p_h, out=p_h))[0]
        probe_losses[row] = np.mean(((out - p_eps) ** 2).reshape(R, -1), axis=1)

    if probed:
        record_probe(0)
    train_losses = np.empty((cfg.q_st2, R))
    for it in range(cfg.q_st2):
        i = it % DRAW_BLOCK
        if i == 0:
            n = min(DRAW_BLOCK, cfg.q_st2 - it)
            ts, prompts = _draw_block(streams, noise[:n], latents[:n], T)
            np.take(model.noised_inputs(latents[:n].reshape(-1, d), ts.ravel(), prompts.ravel(),
                                        noise[:n].reshape(-1, d), schedule
                                        ).reshape(n, len(streams), -1),
                    job_stream, axis=1, out=job_inputs[:n, :, :, 0])
            np.take(noise[:n], job_stream, axis=1, out=job_noise[:n])
        losses, _ = train_step(*operands, job_inputs[i], job_noise[i], 1, need=STAGE2_NEED,
                               out=grad_views)
        if not np.isfinite(losses).all():
            bad = np.flatnonzero(~np.isfinite(losses))[0]
            raise NumericError(f"job {bad}: non-finite loss at stage-2 iteration {it}")
        if not np.isfinite(grads).all():
            bad = np.flatnonzero(~np.isfinite(grads).all(axis=1))[0]
            raise NumericError(f"job {bad}: non-finite gradient at stage-2 iteration {it}")
        kernels.adamw_update(params, grads, *moments, it + 1, *hyper)
        train_losses[it] = losses
        if probed:
            record_probe(it + 1)
        if stop_at_threshold and ((it + 1) % DRAW_BLOCK == 0 or it + 1 == cfg.q_st2):
            # each curve so far as a contiguous row, like a result's full curve
            counts = [iterations_to_threshold(curve, cfg.tau_fraction, cfg.smoothing_window)
                      for curve in probe_losses[:it + 2].T.copy()]
            if max(counts) < it + 2:
                break
    done = it + 1

    # the blocks' buffers go before the curves become lists
    del noise, latents, job_inputs, job_noise
    train_curves = train_losses[:done].T.tolist()
    probe_curves = probe_losses[:done + 1].T.tolist() if probed else [[] for _ in jobs]
    results = []
    for k, job in enumerate(jobs):
        factors = [AdapterFactors(job.lmd[0], lm1[k].copy(), lu1[k].copy()),
                   AdapterFactors(job.lmd[1], lm2[k].copy(), lu2[k].copy())]
        results.append(Stage2Result(
            factors=factors, merged=[merge(f) for f in factors],
            train_losses=train_curves[k], probe_losses=probe_curves[k],
            lmd_checksum_before=before[k],
            lmd_checksum_after="".join(checksum(m) for m in job.lmd),
            iters_to_threshold=counts[k] if stop_at_threshold else None))
    return results


def smooth(values: list[float], window: int) -> np.ndarray:
    """Trailing moving average (window shrinks at the start).

    Each mean is taken over a contiguous run of the curve, the full windows
    all at once, so an entry has the same bits as ``arr[lo:i + 1].mean()``.
    """
    arr = np.asarray(values, dtype=np.float64)
    out = np.empty_like(arr)
    head = min(window - 1, len(arr))
    for i in range(head):
        out[i] = arr[:i + 1].mean()
    if len(arr) >= window:
        out[head:] = sliding_window_view(arr, window).mean(axis=1)
    return out


def iterations_to_threshold(probe_losses: list[float], tau_fraction: float,
                            window: int) -> int:
    """First iteration whose smoothed probe loss is <= tau_fraction x the
    initial loss; sentinel = len(curve) when never reached."""
    sm = smooth(probe_losses, window)
    tau = tau_fraction * sm[0]
    hits = np.nonzero(sm <= tau)[0]
    return int(hits[0]) if len(hits) else len(probe_losses)


def adaptation_speed_experiment(model: ToyDenoiser, dataset: ToyIdentityDataset,
                                heldout_identities: list[int],
                                lmd_meta: list[np.ndarray],
                                schedule: DiffusionSchedule,
                                config: PersonalizeConfig,
                                seeds: list[int]) -> dict:
    """Iterations-to-threshold comparison: meta-trained vs random shared
    down factors, per held-out identity per seed.

    All 2 x |seeds| x |identities| probed runs train in one
    :func:`run_stage2_many` call with ``stop_at_threshold``: the runs stop at
    the first block boundary where every run's count is known, and each count
    equals the one on a full ``q_st2`` probe curve. A run that never reaches
    the threshold reports the sentinel ``q_st2 + 1`` (the length of its full
    probe curve), and that value enters the medians like any other;
    ``meta_never_reached`` and ``random_never_reached`` count such runs,
    overall and per seed.
    """
    if len(seeds) < 3:
        raise MetaLoraError("need at least 3 seeds")
    jobs = []
    for seed in seeds:
        for ident in heldout_identities:
            ref = dataset.reference_of(ident)
            probe = make_probe(dataset, ident, schedule, seed=seed * 10007 + ident)
            cfg = replace(config, seed=seed * 31 + ident)
            rrng = make_rng(seed * 977 + ident)
            lmd_rand = [init_factors(rrng, d1, d2, config.r1, config.r2).l_meta_down
                        for d1, d2 in model.dims]
            jobs += [Stage2Job(lmd_meta, ref, cfg, probe),
                     Stage2Job(lmd_rand, ref, cfg, probe)]
    iters = iter([res.iters_to_threshold for res in
                  run_stage2_many(model, jobs, schedule, stop_at_threshold=True)])
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
