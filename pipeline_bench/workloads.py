"""The three benchmark workloads.

Each workload takes a :class:`Context` (seed, run length, tracer, scratch
directory, reference clock), drives metalora through its public API and its CLI entry point
``metalora.cli.main``, checks the outputs with :mod:`oracles`, and returns an
:class:`Outcome`. Sizes are those of the acceptance suite: 16 training
identities, d=32, hidden=64, r1=16, r2=1, T=50, q_total=3000 at batch 4,
q_st2=375.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import struct
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from metalora import checkpoint, cli, evaluation, personalize, toymodel
from metalora.adapter import AdapterFactors
from metalora.numerics import make_rng

import oracles
from reference import NOMINAL_UNIT_S, ReferenceClock

TRAIN_IDENTITIES = 16
SPEED_HELDOUT = 4
SERVE_HELDOUT = 40
# personalize_serve scores each round of this many identities as it completes
SERVE_ROUND = 8
SPEED_SEEDS = 5
# adapt_speed has few, long samples: at least this many experiments
MIN_EXPERIMENTS = 2
# set-up repetitions: setup_s is their median
SETUP_REPS = 2
EMBEDDER_SEED = 1234
# generation through the reloaded export against the numpy reverse pass
GENERATION_TOL = 1e-9
SCORE_TOL = 1e-12
# personalized R-FaceSim must exceed the base model's by this many points (x100)
RFACESIM_MARGIN = 20.0


def base_config(seed: int, heldout: int) -> dict:
    return {"seed": seed, "n_identities": TRAIN_IDENTITIES + heldout,
            "heldout_identities": heldout, "latent_dim": 32, "hidden_dim": 64,
            "samples_per_identity": 20, "n_prompts": 4, "timesteps": 50,
            "q_total": 3000, "batch_size": 4, "r1": 16, "r2": 1,
            "identities_per_bucket": 4, "q_st2": 375}


@dataclass
class Context:
    seed: int
    seconds: float
    tracer: object | None
    work: Path
    clock: ReferenceClock

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.set_phase(name)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    rounds: int = 0  # whole rounds of the measured phase
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    # reported in the table and the result file, not in the final JSON line
    extra: dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_config(path: Path, values: dict) -> Path:
    lines = [f"{k} = {str(v).lower() if isinstance(v, bool) else v}"
             for k, v in values.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def run_cli(argv) -> tuple[int, str]:
    """``metalora.cli.main`` in this process; an escaping exception is exit 1
    with a traceback, as the console script would end."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the contract under test: no traceback may escape
            traceback.print_exc()
            rc = 1
    return rc, err.getvalue()


def json_error(stderr: str) -> bool:
    lines = [ln for ln in stderr.splitlines() if ln.strip()]
    if not lines:
        return False
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError:
        return False
    return isinstance(doc, dict) and "error" in doc


def tail_percentile(n: int) -> int | None:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


# --- shared set-up: inputs produced through the CLI ---

@dataclass
class World:
    cfg: dict
    dataset: toymodel.ToyIdentityDataset
    schedule: toymodel.DiffusionSchedule
    model: toymodel.ToyDenoiser
    lmd: list[np.ndarray]
    base_tensors: dict[str, np.ndarray]
    heldout: list[int]


def load_world(cfg_path: Path, base_path: Path, stage1_path: Path) -> World:
    """Dataset, frozen base model and stage-1 shared factors, as the CLI's
    personalize and speed-experiment commands build them."""
    cfg = cli.parse_config(str(cfg_path))
    dataset = toymodel.make_dataset(
        make_rng(cfg["seed"]), n_identities=cfg["n_identities"], d=cfg["latent_dim"],
        samples_per_identity=cfg["samples_per_identity"], n_prompts=cfg["n_prompts"],
        single_prototype=cfg["single_prototype"])
    schedule = toymodel.linear_schedule(cfg["timesteps"])
    _header, tensors = checkpoint.load_checkpoint(str(base_path))
    model = toymodel.ToyDenoiser.build(
        make_rng(cfg["seed"]), d=cfg["latent_dim"], hidden=cfg["hidden_dim"],
        n_prompts=cfg["n_prompts"], r1=cfg["r1"], r2=cfg["r2"], factor_mode="zero")
    for li, layer in enumerate(model.layers):
        layer.w0[:] = tensors[f"w0.{li}"]
        layer.freeze_base()
    dims = [(l.factors.d1, l.factors.d2) for l in model.layers]
    lmd = personalize.load_stage1(str(stage1_path), cfg["r1"], dims)
    n, h = cfg["n_identities"], cfg["heldout_identities"]
    return World(cfg, dataset, schedule, model, lmd, tensors, list(range(n - h, n)))


def trained_setup(ctx: Context, out: Outcome, heldout: int) -> tuple[World, Path]:
    """``metalora pretrain`` and ``metalora metatrain`` into a fresh directory,
    then loading, repeated SETUP_REPS times. Every repetition must write
    byte-identical checkpoints and traces. setup_s is the median repetition in
    reference units, read as seconds of the nominal machine; metatrain_ref the
    median metatrain command in reference units."""
    setup_t, setup_ref, pre_t, meta_t, pre_ref, meta_ref, digests = [], [], [], [], [], [], []
    clock = ctx.clock
    for rep in range(SETUP_REPS):
        d = ctx.work / f"setup{rep}"
        d.mkdir()
        m0 = clock.mark()
        cfg = write_config(d / "run.cfg", base_config(ctx.seed, heldout))
        base, stage1 = d / "base.bin", d / "stage1.bin"
        m1 = clock.mark()
        rc_pre, err_pre = run_cli(["pretrain", "--config", cfg, "--out", base])
        seconds, ref = clock.since(m1)
        pre_t.append(seconds)
        pre_ref.append(ref)
        m2 = clock.mark()
        rc_meta, err_meta = run_cli(["metatrain", "--config", cfg,
                                     "--checkpoint", base, "--out", stage1])
        seconds, ref = clock.since(m2)
        meta_t.append(seconds)
        meta_ref.append(ref)
        if rc_pre != 0 or rc_meta != 0:
            raise RuntimeError(f"set-up failed: pretrain exit {rc_pre} {err_pre} "
                               f"metatrain exit {rc_meta} {err_meta}")
        world = load_world(cfg, base, stage1)
        seconds, ref = clock.since(m0)
        setup_t.append(seconds)
        setup_ref.append(ref)
        digests.append((digest(base), digest(stage1), digest(f"{stage1}.trace.jsonl")))
    out.check(len(set(digests)) == 1, "set-up repetitions wrote different checkpoints")
    out.metrics.update(setup_s=NOMINAL_UNIT_S * statistics.median(setup_ref),
                       metatrain_ref=statistics.median(meta_ref))
    out.extra.update(setup_wall_s=statistics.median(setup_t),
                     pretrain_s=statistics.median(pre_t), metatrain_s=statistics.median(meta_t),
                     pretrain_ref=statistics.median(pre_ref),
                     checkpoint_sha256=dict(zip(["base", "stage1", "stage1_trace"], digests[0])))
    ctx.phase("prepare")  # the workload's own inputs for the measured phase
    return world, ctx.work / "setup0"


# --- cli_pipeline ---

def _malformed_cases(d: Path) -> list[tuple[str, list]]:
    """Fixed malformed inputs (independent of the seed). Each must end with
    exit 2, 3 or 4 and a JSON error on stderr."""
    write_config(d / "unknown_key.cfg", {"seed": 0, "bogus_key": 1})
    write_config(d / "heldout40.cfg", {"n_identities": 20, "heldout_identities": 40})
    tensors = {"lmd.0": np.zeros((2, 3)), "lu.0": np.zeros((3, 1))}
    checkpoint.save_checkpoint(d / "no_lm0.bin",
                               {"kind": "personalized", "r1": 2, "r2": 1}, tensors)
    whole = (d / "no_lm0.bin").read_bytes()
    (d / "truncated.bin").write_bytes(whole[:-5])
    header = b"[]"
    (d / "list_header.bin").write_bytes(
        checkpoint.MAGIC + struct.pack("<HI", checkpoint.VERSION, len(header))
        + header + struct.pack("<I", 0))
    sink = d / "never_written.bin"
    return [
        ("unknown config key", ["pretrain", "--config", d / "unknown_key.cfg", "--out", sink]),
        ("truncated checkpoint", ["merge", "--checkpoint", d / "truncated.bin", "--out", sink]),
        ("augment-plan --face 1,2", ["augment-plan", "--image-w", 1024, "--image-h", 1024,
                                     "--face", "1,2"]),
        ("checkpoint header is a list", ["merge", "--checkpoint", d / "list_header.bin",
                                         "--out", sink]),
        ("personalized checkpoint without lm.0", ["merge", "--checkpoint", d / "no_lm0.bin",
                                                  "--out", sink]),
        ("heldout_identities = 40", ["pretrain", "--config", d / "heldout40.cfg", "--out", sink]),
    ]


def _check_stage1(out: Outcome, d: Path, cfg: dict) -> None:
    out.errors.extend(oracles.stage1_trace_rules(
        d / "stage1.bin.trace.jsonl", cfg["n_identities"] - cfg["heldout_identities"],
        cfg["samples_per_identity"], cfg["identities_per_bucket"], cfg["batch_size"],
        cfg["q_total"], cfg["warm_up_fraction"]))


def _check_personalized(out: Outcome, d: Path, idents, rng) -> None:
    _h, s1 = checkpoint.load_checkpoint(d / "stage1.bin")
    for i in idents:
        _h, pers = checkpoint.load_checkpoint(d / f"pers{i}.bin")
        _h, merged = checkpoint.load_checkpoint(d / f"merged{i}.bin")
        for li in range(2):
            out.check(pers[f"lmd.{li}"].tobytes() == s1[f"lmd.{li}"].tobytes(),
                      f"identity {i}: personalized shared factor {li} differs from stage 1")
            out.errors.extend(oracles.chain_vs_merged(
                pers[f"lmd.{li}"], pers[f"lm.{li}"], pers[f"lu.{li}"],
                merged[f"down.{li}"], merged[f"up.{li}"], rng))


def cli_pipeline(ctx: Context) -> Outcome:
    out = Outcome()
    world, d = trained_setup(ctx, out, SPEED_HELDOUT)
    ident_cfgs = {i: write_config(d / f"identity{i}.cfg",
                                  {**base_config(ctx.seed, SPEED_HELDOUT), "target_identity": i})
                  for i in world.heldout}
    malformed = _malformed_cases(ctx.work)
    base, stage1 = d / "base.bin", d / "stage1.bin"

    ctx.phase("measure")
    pers_t, ident_t, round_t, pers_ref, ident_ref = [], [], [], [], []
    exit_codes: dict[str, int] = {}
    first_digests = None
    start = time.perf_counter()
    while not round_t or time.perf_counter() - start < ctx.seconds:
        round_t.append(0.0)
        for i, icfg in ident_cfgs.items():
            pers, merged = d / f"pers{i}.bin", d / f"merged{i}.bin"
            m0 = ctx.clock.mark()
            rc_p, err_p = run_cli(["personalize", "--config", icfg, "--checkpoint", base,
                                   "--stage1", stage1, "--out", pers])
            seconds_p, ref_p = ctx.clock.since(m0)
            rc_m, err_m = run_cli(["merge", "--checkpoint", pers, "--out", merged, "--verify"])
            seconds_i, ref_i = ctx.clock.since(m0)
            out.attempted += 2
            if rc_p != 0 or rc_m != 0:
                out.failed += (rc_p != 0) + (rc_m != 0)
                out.errors.append(f"identity {i}: personalize exited {rc_p} {err_p[-300:]} "
                                  f"merge exited {rc_m} {err_m[-300:]}")
                return out
            pers_t.append(seconds_p)
            ident_t.append(seconds_i)
            pers_ref.append(ref_p)
            ident_ref.append(ref_i)
            round_t[-1] += seconds_i
        for name, argv in malformed:
            rc, err = run_cli(argv)
            out.attempted += 1
            out.failed += not (rc in (2, 3, 4) and json_error(err))
            exit_codes[name] = rc
        digests = [digest(d / f"{kind}{i}.bin") for i in ident_cfgs for kind in ("pers", "merged")]
        if first_digests is None:
            first_digests = digests
        out.check(digests == first_digests,
                  f"round {len(round_t) - 1}: checkpoints differ from round 0 (same seed)")
    ctx.phase("checks")
    out.rounds = len(round_t)
    out.metrics["peak_rss_mb"] = peak_rss_mb()  # before the checks, which are ours

    out.metrics.update(stage2_run_ref=statistics.median(pers_ref),
                       identity_ref=statistics.median(ident_ref))
    _check_stage1(out, d, world.cfg)
    _check_personalized(out, d, ident_cfgs, np.random.default_rng(ctx.seed))
    tail_p = tail_percentile(len(ident_t))
    out.extra.update(
        stage2_iters_per_s=world.cfg["q_st2"] / statistics.median(pers_t),
        identities_per_s=len(ident_cfgs) / statistics.median(round_t),
        identity_latency_p50_ms=1e3 * statistics.median(ident_t),
        identity_latency_tail_ms=1e3 * percentile(ident_t, tail_p) if tail_p else None,
        identity_latency_tail_percentile=tail_p,
        identity_latency_samples=len(ident_t),
        malformed_exit_codes=exit_codes)
    return out


# --- adapt_speed ---

def adapt_speed(ctx: Context) -> Outcome:
    """The 5-seed adaptation-speed experiment over the 4 held-out identities,
    one call of 40 probed stage-2 runs, repeated."""
    out = Outcome()
    world, _d = trained_setup(ctx, out, SPEED_HELDOUT)
    cfg = world.cfg
    pc = personalize.PersonalizeConfig(
        q_st2=cfg["q_st2"], r1=cfg["r1"], r2=cfg["r2"], lr=cfg["stage2_lr"],
        seed=cfg["seed"], weight_decay=cfg["weight_decay"],
        view_strength=cfg["view_strength"], tau_fraction=cfg["tau_fraction"],
        smoothing_window=cfg["smoothing_window"])
    seeds = [cfg["seed"] + k for k in range(SPEED_SEEDS)]
    lmd_bytes = [m.tobytes() for m in world.lmd]
    runs = 2 * len(seeds) * len(world.heldout)

    ctx.phase("measure")
    reports, exp_t, exp_ref = [], [], []
    start = time.perf_counter()
    while len(reports) < MIN_EXPERIMENTS or time.perf_counter() - start < ctx.seconds:
        m0 = ctx.clock.mark()
        reports.append(personalize.adaptation_speed_experiment(
            world.model, world.dataset, world.heldout, world.lmd, world.schedule, pc, seeds))
        seconds, ref = ctx.clock.since(m0)
        exp_t.append(seconds)
        exp_ref.append(ref)
        out.attempted += runs
    ctx.phase("checks")
    out.rounds = len(reports)
    out.metrics["peak_rss_mb"] = peak_rss_mb()  # before the checks, which are ours

    rep = reports[0]
    out.check(all(json.dumps(r, sort_keys=True) == json.dumps(rep, sort_keys=True)
                  for r in reports), "experiments with one seed gave different results")
    out.check([m.tobytes() for m in world.lmd] == lmd_bytes,
              "the stage-1 shared factor moved during stage 2")
    out.check([s["seed"] for s in rep["seeds"]] == seeds
              and all([p["identity"] for p in s["per_identity"]] == world.heldout
                      for s in rep["seeds"]), "unexpected report layout")
    meta = [p["meta_iters"] for s in rep["seeds"] for p in s["per_identity"]]
    rand = [p["random_iters"] for s in rep["seeds"] for p in s["per_identity"]]
    # a run that never reaches the threshold reports the length of its probe
    # curve (the initial probe plus one per iteration): q_st2 + 1
    never = pc.q_st2 + 1
    out.check(all(0 <= v <= pc.q_st2 or v == never for v in meta + rand),
              f"iterations-to-threshold neither in [0, {pc.q_st2}] nor the never-reached "
              f"value {never}: {sorted(meta + rand)}")
    med_meta, med_rand = statistics.median(meta), statistics.median(rand)
    out.check(med_meta == rep["median_meta"] and med_rand == rep["median_random"],
              "reported medians differ from the per-run values")
    out.check(med_meta < med_rand, f"meta median {med_meta} not below random {med_rand}")
    faster = sum(statistics.median(p["meta_iters"] for p in s["per_identity"])
                 < statistics.median(p["random_iters"] for p in s["per_identity"])
                 for s in rep["seeds"])
    out.check(faster == rep["seeds_meta_faster"], "seeds_meta_faster miscounted")
    out.check(faster >= 4, f"meta faster in only {faster}/{len(seeds)} seeds")

    out.metrics.update(stage2_run_ref=statistics.median(exp_ref) / runs,
                       identity_ref=statistics.median(exp_ref) / len(world.heldout))
    out.extra.update(stage2_iters_per_s=pc.q_st2 * runs / statistics.median(exp_t),
                     identities_per_s=len(world.heldout) / statistics.median(exp_t),
                     median_meta=med_meta, median_random=med_rand, seeds_meta_faster=faster,
                     meta_never_reached=meta.count(never),
                     random_never_reached=rand.count(never))
    return out


# --- personalize_serve ---

def _export_chain(tensors: dict[str, np.ndarray], li: int) -> AdapterFactors:
    down, up = tensors[f"down.{li}"], tensors[f"up.{li}"]
    return AdapterFactors(down, np.eye(down.shape[0]), up)


def _generate_all(world: World, idents, factor_pairs, gen_seed) -> dict:
    out = {}
    for ident, pair in zip(idents, factor_pairs):
        world.model.set_factors(*pair)
        for p in range(world.cfg["n_prompts"]):
            out[(ident, p)] = toymodel.generate(world.model, world.schedule, p,
                                                make_rng(gen_seed(ident, p)))
    return out


def _score(world: World, idents, generated: dict):
    ds = world.dataset
    entries, by_ref = [], {}
    for ident in idents:
        ref = ds.reference_of(ident)
        tests = [e.x0 for e in ds.of_identity(ident) if e.split == "test"]
        entries.append(evaluation.IdentityEntry(str(ident), ref.x0, tests))
        by_ref[id(ref.x0)] = ident
    prompts = [f"p{p}" for p in range(world.cfg["n_prompts"])]
    manifest = evaluation.EvalManifest(entries, prompts)

    def generator(reference, prompt):
        return generated[(by_ref[id(reference)], int(prompt[1:]))]

    embedder = evaluation.ToyEmbedder(world.cfg["latent_dim"], seed=EMBEDDER_SEED)
    robust = evaluation.r_facesim(manifest, generator, embedder)
    conventional = evaluation.facesim_conventional(manifest, generator, embedder)
    gap = evaluation.discrepancy_report(conventional.score, robust.score)
    return robust.score, conventional.score, gap


def personalize_serve(ctx: Context) -> Outcome:
    out = Outcome()
    world, _d = trained_setup(ctx, out, SERVE_HELDOUT)
    cfg = world.cfg
    r2 = cfg["r2"]
    lmd_bytes = [m.tobytes() for m in world.lmd]

    def stage2_config(ident):
        return personalize.PersonalizeConfig(
            q_st2=cfg["q_st2"], r1=cfg["r1"], r2=r2, lr=cfg["stage2_lr"],
            seed=cfg["seed"] * 1000 + ident, weight_decay=cfg["weight_decay"],
            view_strength=cfg["view_strength"])

    def gen_seed(ident, prompt):
        return (cfg["seed"] * 1000 + ident) * 10 + prompt

    ctx.phase("measure")
    export = ctx.work / "export.bin"
    stage2_t, latency, round_t, stage2_ref, round_ref = [], [], [], [], []
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < ctx.seconds:
        results, saved, loaded, export_digests, generated = {}, {}, {}, [], {}
        for r0 in range(0, len(world.heldout), SERVE_ROUND):
            round_t.append(0.0)
            round_ref.append(0.0)
            idents = world.heldout[r0:r0 + SERVE_ROUND]
            for ident in idents:
                m0 = ctx.clock.mark()
                res = personalize.run_stage2(world.model, world.lmd,
                                             world.dataset.reference_of(ident),
                                             world.schedule, stage2_config(ident))
                seconds_s2, ref_s2 = ctx.clock.since(m0)
                tensors = {}
                for li, m in enumerate(res.merged):
                    tensors[f"down.{li}"] = m.down
                    tensors[f"up.{li}"] = m.up
                checkpoint.save_checkpoint(export, {"kind": "merged", "r2": r2,
                                                    "identity": ident}, tensors)
                _header, back = checkpoint.load_checkpoint(export)
                world.model.set_factors(_export_chain(back, 0), _export_chain(back, 1))
                for p in range(cfg["n_prompts"]):
                    generated[(ident, p)] = toymodel.generate(
                        world.model, world.schedule, p, make_rng(gen_seed(ident, p)))
                seconds, ref = ctx.clock.since(m0)
                stage2_t.append(seconds_s2)
                stage2_ref.append(ref_s2)
                latency.append(seconds)
                round_t[-1] += seconds
                round_ref[-1] += ref
                out.attempted += 1
                results[ident], saved[ident], loaded[ident] = res, tensors, back
                export_digests.append(digest(export))
            m0 = ctx.clock.mark()
            _score(world, idents, generated)
            seconds, ref = ctx.clock.since(m0)
            round_t[-1] += seconds
            round_ref[-1] += ref
        passes.append((export_digests, generated, results, saved, loaded))
    ctx.phase("checks")
    out.rounds = len(passes)
    out.metrics["peak_rss_mb"] = peak_rss_mb()  # before the checks, which are ours

    for k, later in enumerate(passes[1:], 1):
        out.check(later[0] == passes[0][0], f"pass {k}: exports differ from pass 0 (same seed)")
    export_digests, generated, results, saved, loaded = passes[0]
    robust, conventional, gap = _score(world, world.heldout, generated)
    for ident, res in results.items():
        out.check(res.lmd_checksum_before == res.lmd_checksum_after,
                  f"identity {ident}: stage 2 reported the shared factor moved")
        out.check(all(loaded[ident][k].tobytes() == np.ascontiguousarray(v).tobytes()
                      for k, v in saved[ident].items())
                  and loaded[ident].keys() == saved[ident].keys(),
                  f"identity {ident}: reloaded export differs from what was saved")
    out.check([m.tobytes() for m in world.lmd] == lmd_bytes,
              "the stage-1 shared factor moved during stage 2")
    # generation through the export against the three-factor chain, in numpy
    w0s = [world.base_tensors["w0.0"], world.base_tensors["w0.1"]]
    alpha_bar = np.linspace(0.999, 0.01, cfg["timesteps"])
    worst = 0.0
    for ident, res in results.items():
        chains = [(f.l_meta_down, f.l_mid, f.l_up) for f in res.factors]
        for p in range(cfg["n_prompts"]):
            x_init = make_rng(gen_seed(ident, p)).normal(0.0, 1.0, size=cfg["latent_dim"])
            want = oracles.reverse_pass(w0s, chains, alpha_bar, cfg["n_prompts"], p, x_init)
            worst = max(worst, float(np.max(np.abs(generated[(ident, p)] - want))))
    out.check(worst <= GENERATION_TOL,
              f"generation through the export differs from the chain by {worst:.3e}")
    # scores by brute force
    ds = world.dataset
    proj = np.random.Generator(np.random.PCG64(EMBEDDER_SEED)).normal(
        0.0, 1.0 / np.sqrt(cfg["latent_dim"]), size=(16, cfg["latent_dim"]))
    refs = {str(i): ds.reference_of(i).x0 for i in world.heldout}
    tests = {str(i): [e.x0 for e in ds.of_identity(i) if e.split == "test"]
             for i in world.heldout}
    gen_named = {(str(i), f"p{p}"): v for (i, p), v in generated.items()}
    prompts = [f"p{p}" for p in range(cfg["n_prompts"])]
    bf_robust, bf_conv = oracles.brute_force_scores(refs, tests, gen_named, prompts, proj)
    out.check(abs(bf_robust - robust) <= SCORE_TOL and abs(bf_conv - conventional) <= SCORE_TOL,
              f"scores {robust}, {conventional} differ from brute force "
              f"{bf_robust}, {bf_conv}")
    out.check(gap == round(100.0 * (bf_robust - bf_conv) / bf_conv, 1),
              f"discrepancy {gap} does not match the recomputation")
    # the base model on the same seeds: a zero residual
    zero = [AdapterFactors(np.zeros((r2, l.factors.d1)), np.eye(r2),
                           np.zeros((l.factors.d2, r2))) for l in world.model.layers]
    base_gen = _generate_all(world, world.heldout, [zero] * len(world.heldout), gen_seed)
    base_robust, _c, _g = _score(world, world.heldout, base_gen)
    out.check(robust >= base_robust + RFACESIM_MARGIN,
              f"personalized R-FaceSim {robust:.2f} not far above base {base_robust:.2f}")

    tail_p = tail_percentile(len(latency))
    out.metrics.update(stage2_run_ref=statistics.median(stage2_ref),
                       identity_ref=statistics.median(round_ref) / SERVE_ROUND)
    out.extra.update(
        stage2_iters_per_s=cfg["q_st2"] / statistics.median(stage2_t),
        identities_per_s=SERVE_ROUND / statistics.median(round_t),
        identity_latency_p50_ms=1e3 * statistics.median(latency),
        identity_latency_tail_ms=1e3 * percentile(latency, tail_p) if tail_p else None,
        identity_latency_tail_percentile=tail_p,
        identity_latency_samples=len(latency),
        r_facesim=robust, facesim=conventional, relative_difference_pct=gap,
        base_r_facesim=base_robust, generation_max_abs_diff=worst)
    return out


WORKLOADS = {"cli_pipeline": cli_pipeline, "adapt_speed": adapt_speed,
             "personalize_serve": personalize_serve}
