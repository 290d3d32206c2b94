"""Stage-2 personalization: fit identity factors from one example.

The shared down factors arrive frozen from a Stage-1 checkpoint; fresh mid
and up factors are initialized (the up factor at zero, so iteration 0 is the
unmodified base model) and trained with batch-size-1 AdamW over the crop-
augmented views of the reference example. The result is exported as a
standard two-factor adapter via :func:`metalora.adapter.merge`.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .adapter import AdapterFactors, MergedLoRA, init_factors, merge
from .augment import FaceBox, plan_crops, sample_view
from .checkpoint import load_checkpoint
from .errors import CheckpointError, MetaLoraError, NumericError, RankError
from .metatrain import fresh_identity_factors
from .numerics import adamw_step, checksum, make_rng
from .toymodel import (DiffusionSchedule, Example, ToyDenoiser,
                       ToyIdentityDataset, noisify)


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
    header, tensors = load_checkpoint(path)
    if header.get("kind") != "stage1":
        raise CheckpointError(f"not a stage-1 checkpoint (kind={header.get('kind')!r})")
    r1 = header.get("r1")
    if r1 != expected_r1:
        raise RankError(f"checkpoint has r1={r1}, model expects r1={expected_r1}")
    lmd = []
    for li, (d1, _d2) in enumerate(expected_dims):
        name = f"lmd.{li}"
        if name not in tensors:
            raise CheckpointError(f"missing tensor {name!r}")
        arr = tensors[name]
        if arr.shape != (expected_r1, d1):
            raise RankError(f"tensor {name!r} has shape {arr.shape}, "
                            f"expected {(expected_r1, d1)}")
        arr.setflags(write=False)
        lmd.append(arr)
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


def probe_loss(model: ToyDenoiser, schedule: DiffusionSchedule,
               probe: list[ProbeItem]) -> float:
    # evaluated every stage-2 iteration, so all items go through in one batch
    cols = []
    eps_mat = []
    for p in probe:
        ab = schedule.alpha_bar[p.t]
        x_t = np.sqrt(ab) * p.x0 + np.sqrt(1.0 - ab) * p.eps
        cols.append(np.concatenate([x_t, model._conditioning(p.t, schedule.T,
                                                             p.prompt_id)]))
        eps_mat.append(p.eps)
    inp = np.stack(cols, axis=1)
    a = np.tanh(model.layer1.forward(inp))
    out = model.layer2.forward(a)
    return float(np.mean((out - np.stack(eps_mat, axis=1)) ** 2))


@dataclass
class Stage2Result:
    factors: list[AdapterFactors]
    merged: list[MergedLoRA]
    train_losses: list[float]
    probe_losses: list[float] = field(default_factory=list)
    lmd_checksum_before: str = ""
    lmd_checksum_after: str = ""


def run_stage2(model: ToyDenoiser, lmd: list[np.ndarray],
               references: Example | list[Example],
               schedule: DiffusionSchedule, config: PersonalizeConfig,
               probe: list[ProbeItem] | None = None) -> Stage2Result:
    """Fit fresh mid/up factors from the augmented reference view set.

    Accepts one reference example or several (the multi-reference
    extension); views from all references are pooled. AdamW runs with batch
    size 1 for q_st2 iterations. The shared down factors never move.
    """
    if isinstance(references, Example):
        references = [references]
    rng = make_rng(config.seed)
    views = []
    for ref in references:
        specs = plan_crops(ref.image_w, ref.image_h, FaceBox(*ref.face_box))
        views.extend((ref, spec) for spec in specs)
    if not views:
        raise MetaLoraError("augmentation plan is empty")

    dims = [(l.factors.d1, l.factors.d2) for l in model.layers]
    factors, states = fresh_identity_factors(rng, lmd, dims, config.r1, config.r2,
                                             config.lr, config.weight_decay)
    model.set_factors(factors[0], factors[1])

    before = "".join(checksum(m) for m in lmd)
    train_losses = []
    probe_losses = []
    if probe is not None:
        probe_losses.append(probe_loss(model, schedule, probe))
    for it in range(config.q_st2):
        ref, spec = views[int(rng.integers(len(views)))]
        view = sample_view(spec, rng)
        x0_v = view_latent(ref.x0, view.rect, view.flip, config.view_strength)
        t = int(rng.integers(schedule.T))
        x_t, eps = noisify(schedule, x0_v, t, rng)
        eps_hat = model.predict(x_t, t, schedule.T, ref.prompt_id)
        resid = eps_hat - eps
        loss = float(np.mean(resid ** 2))
        if not np.isfinite(loss):
            raise NumericError(f"non-finite loss at stage-2 iteration {it}")
        g1, g2 = model.backprop(2.0 * resid / resid.size)
        for li, g in enumerate((g1, g2)):
            st_lm, st_lu = states[li]
            adamw_step(factors[li].l_mid, g.l_mid, st_lm)
            adamw_step(factors[li].l_up, g.l_up, st_lu)
        train_losses.append(loss)
        if probe is not None:
            probe_losses.append(probe_loss(model, schedule, probe))
    after = "".join(checksum(m) for m in lmd)
    return Stage2Result(factors=factors, merged=[merge(f) for f in factors],
                        train_losses=train_losses, probe_losses=probe_losses,
                        lmd_checksum_before=before, lmd_checksum_after=after)


def smooth(values: list[float], window: int) -> np.ndarray:
    """Trailing moving average (window shrinks at the start)."""
    arr = np.asarray(values, dtype=np.float64)
    out = np.empty_like(arr)
    for i in range(len(arr)):
        lo = max(0, i - window + 1)
        out[i] = arr[lo:i + 1].mean()
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
    down factors, per held-out identity per seed."""
    if len(seeds) < 3:
        raise MetaLoraError("need at least 3 seeds")
    results = []
    for seed in seeds:
        per_identity = []
        for ident in heldout_identities:
            ref = dataset.reference_of(ident)
            probe = make_probe(dataset, ident, schedule, seed=seed * 10007 + ident)
            cfg = replace(config, seed=seed * 31 + ident)
            res_meta = run_stage2(model, lmd_meta, ref, schedule, cfg, probe=probe)
            rrng = make_rng(seed * 977 + ident)
            lmd_rand = [init_factors(rrng, l.factors.d1, l.factors.d2,
                                     config.r1, config.r2).l_meta_down
                        for l in model.layers]
            res_rand = run_stage2(model, lmd_rand, ref, schedule, cfg, probe=probe)
            per_identity.append({
                "identity": ident,
                "meta_iters": iterations_to_threshold(
                    res_meta.probe_losses, cfg.tau_fraction, cfg.smoothing_window),
                "random_iters": iterations_to_threshold(
                    res_rand.probe_losses, cfg.tau_fraction, cfg.smoothing_window),
            })
        results.append({
            "seed": seed,
            "per_identity": per_identity,
            "median_meta": float(np.median([p["meta_iters"] for p in per_identity])),
            "median_random": float(np.median([p["random_iters"] for p in per_identity])),
        })
    all_meta = [p["meta_iters"] for r in results for p in r["per_identity"]]
    all_random = [p["random_iters"] for r in results for p in r["per_identity"]]
    return {
        "seeds": results,
        "median_meta": float(np.median(all_meta)),
        "median_random": float(np.median(all_random)),
        "seeds_meta_faster": sum(r["median_meta"] < r["median_random"] for r in results),
        "max_iterations": config.q_st2,
    }
