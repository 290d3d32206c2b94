"""Command-line entry point tying the modules into reproducible runs.

Every command reads a flat key=value config file, echoes the resolved
config (defaults included) plus its hash into a ``*.trace.json`` next to its
output, and exits 0 on success. Exit codes: 2 for config errors, 3 for I/O
and checkpoint errors, 4 for numeric failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import augment, evaluation, metatrain, personalize, toymodel
from .adapter import AdapterFactors, merge
from .checkpoint import config_hash, load_checkpoint, save_checkpoint
from .errors import (CheckpointError, ConfigError, MetaLoraError, NumericError,
                     RankError)
from .numerics import make_rng

# key -> (type, default). Unknown keys in a config file are rejected.
CONFIG_SCHEMA: dict[str, tuple[type, object]] = {
    "seed": (int, 0),
    "lr": (float, 4e-3),
    "weight_decay": (float, 0.0),
    # dataset / model geometry
    "n_identities": (int, 16),
    "heldout_identities": (int, 4),
    "latent_dim": (int, 32),
    "hidden_dim": (int, 64),
    "samples_per_identity": (int, 20),
    "n_prompts": (int, 4),
    "timesteps": (int, 50),
    "single_prototype": (bool, False),
    # stage-1
    "q_total": (int, 3000),
    "batch_size": (int, 4),
    "r1": (int, 16),
    "r2": (int, 1),
    "identities_per_bucket": (int, 4),
    "warm_up_fraction": (float, 0.4),
    "warm_up_every_entry": (bool, True),
    # base pretraining
    "pretrain_lr": (float, 2e-3),
    "pretrain_batch_size": (int, 8),
    "pretrain_loss_threshold": (float, 0.22),
    "pretrain_max_iters": (int, 15000),
    # stage-2 / speed experiment
    "q_st2": (int, 375),
    "stage2_lr": (float, 1e-2),
    "view_strength": (float, 0.05),
    "tau_fraction": (float, 0.5),
    "smoothing_window": (int, 15),
    "speed_seeds": (int, 5),
    "target_identity": (int, -1),  # -1: first held-out identity
}


def parse_config(path: str | None, overrides: dict | None = None) -> dict:
    values = {k: d for k, (_t, d) in CONFIG_SCHEMA.items()}
    if path is not None:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        for ln, raw in enumerate(lines, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected 'key = value', got {raw.strip()!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in CONFIG_SCHEMA:
                raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
            typ = CONFIG_SCHEMA[key][0]
            try:
                if typ is bool:
                    if val.lower() not in ("true", "false", "0", "1"):
                        raise ValueError(val)
                    values[key] = val.lower() in ("true", "1")
                else:
                    values[key] = typ(val)
            except ValueError:
                raise ConfigError(f"{path}:{ln}: cannot parse {val!r} as {typ.__name__}")
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    n = values["n_identities"]
    for key, lo, hi in (("heldout_identities", 1, n), ("target_identity", -1, n)):
        if not lo <= values[key] < hi:
            raise ConfigError(f"{key} = {values[key]} is outside [{lo}, {hi})")
    if values["batch_size"] < 1:
        raise ConfigError(f"batch_size = {values['batch_size']} must be >= 1")
    return values


def write_run_trace(out_path: str, command: str, config: dict, extra: dict | None = None):
    doc = {"command": command, "config": config, "config_hash": config_hash(config)}
    if extra:
        doc.update(extra)
    with open(str(out_path) + ".trace.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=str)


def write_svg_curve(path, ys, title: str = "", width: int = 640, height: int = 240):
    """Static SVG line chart of one curve; no plotting dependency needed."""
    ys = np.asarray(ys, dtype=np.float64)
    if len(ys) < 2:
        return
    lo, hi = float(ys.min()), float(ys.max())
    span = (hi - lo) or 1.0
    pad = 10
    pts = []
    for i, y in enumerate(ys):
        px = pad + i * (width - 2 * pad) / (len(ys) - 1)
        py = height - pad - (y - lo) * (height - 2 * pad) / span
        pts.append(f"{px:.1f},{py:.1f}")
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
           f'<title>{title}</title>'
           f'<rect width="100%" height="100%" fill="white"/>'
           f'<polyline fill="none" stroke="steelblue" stroke-width="1" '
           f'points="{" ".join(pts)}"/></svg>')
    with open(path, "w") as fh:
        fh.write(svg)


def _build_world(cfg: dict):
    """Deterministic dataset + schedule from a config."""
    rng = make_rng(cfg["seed"])
    dataset = toymodel.make_dataset(
        rng, n_identities=cfg["n_identities"], d=cfg["latent_dim"],
        samples_per_identity=cfg["samples_per_identity"], n_prompts=cfg["n_prompts"],
        single_prototype=cfg["single_prototype"])
    schedule = toymodel.linear_schedule(cfg["timesteps"])
    return dataset, schedule


def _split_identities(cfg: dict):
    n, h = cfg["n_identities"], cfg["heldout_identities"]
    return list(range(n - h)), list(range(n - h, n))


def _load_base_model(cfg: dict, base_ckpt: str) -> toymodel.ToyDenoiser:
    header, tensors = load_checkpoint(base_ckpt)
    if header.get("kind") != "base":
        raise CheckpointError(f"not a base checkpoint (kind={header.get('kind')!r})")
    rng = make_rng(cfg["seed"])
    model = toymodel.ToyDenoiser.build(
        rng, d=cfg["latent_dim"], hidden=cfg["hidden_dim"],
        n_prompts=cfg["n_prompts"], r1=cfg["r1"], r2=cfg["r2"], factor_mode="zero")
    for li, layer in enumerate(model.layers):
        w0 = tensors[f"w0.{li}"]
        if w0.shape != layer.w0.shape:
            raise CheckpointError(f"w0.{li} shape {w0.shape} does not match model "
                                  f"{layer.w0.shape}")
        layer.w0[:] = w0
        layer.freeze_base()
    return model


def _personalize_config(cfg: dict) -> personalize.PersonalizeConfig:
    return personalize.PersonalizeConfig(
        q_st2=cfg["q_st2"], r1=cfg["r1"], r2=cfg["r2"], lr=cfg["stage2_lr"],
        seed=cfg["seed"], weight_decay=cfg["weight_decay"],
        view_strength=cfg["view_strength"], tau_fraction=cfg["tau_fraction"],
        smoothing_window=cfg["smoothing_window"])


def cmd_pretrain(args) -> int:
    cfg = parse_config(args.config, {"seed": args.seed})
    dataset, schedule = _build_world(cfg)
    train_ids, _ = _split_identities(cfg)
    train_set = toymodel.subset_dataset(dataset, train_ids)
    model = toymodel.pretrain_base(
        train_set, schedule, seed=cfg["seed"] + 1, hidden=cfg["hidden_dim"],
        lr=cfg["pretrain_lr"], batch_size=cfg["pretrain_batch_size"],
        loss_threshold=cfg["pretrain_loss_threshold"],
        max_iters=cfg["pretrain_max_iters"], r1=cfg["r1"], r2=cfg["r2"])
    header = {"kind": "base", "seed": cfg["seed"], "config_hash": config_hash(cfg),
              "layer_dims": [[l.factors.d1, l.factors.d2] for l in model.layers],
              "base_checksums": [l.base_checksum for l in model.layers]}
    save_checkpoint(args.out, header, {f"w0.{li}": l.w0
                                       for li, l in enumerate(model.layers)})
    write_run_trace(args.out, "pretrain", cfg)
    print(f"base checkpoint written to {args.out}")
    return 0


def cmd_metatrain(args) -> int:
    cfg = parse_config(args.config, {"seed": args.seed})
    dataset, schedule = _build_world(cfg)
    train_ids, _ = _split_identities(cfg)
    train_set = toymodel.subset_dataset(dataset, train_ids)
    model = _load_base_model(cfg, args.checkpoint)
    tc = metatrain.TrainConfig(
        q_total=cfg["q_total"], batch_size=cfg["batch_size"], lr=cfg["lr"],
        seed=cfg["seed"], r1=cfg["r1"], r2=cfg["r2"],
        identities_per_bucket=cfg["identities_per_bucket"],
        warm_up_fraction=cfg["warm_up_fraction"],
        warm_up_every_entry=cfg["warm_up_every_entry"],
        weight_decay=cfg["weight_decay"])
    result = metatrain.run_stage1(model, train_set, schedule, tc)
    header = {"kind": "stage1", "r1": cfg["r1"], "seed": cfg["seed"],
              "config_hash": config_hash(cfg),
              "executed_iterations": result.executed_iterations}
    save_checkpoint(args.out, header,
                    {f"lmd.{li}": m for li, m in enumerate(result.lmd)})
    metatrain.write_trace_csv(result.trace, str(args.out) + ".trace.csv")
    metatrain.write_trace_jsonl(result.trace, str(args.out) + ".trace.jsonl")
    write_svg_curve(str(args.out) + ".loss.svg",
                    [r.loss for r in result.trace], title="stage-1 loss")
    write_run_trace(args.out, "metatrain", cfg,
                    {"executed_iterations": result.executed_iterations})
    print(f"stage-1 checkpoint written to {args.out} "
          f"({result.executed_iterations} iterations)")
    return 0


def cmd_personalize(args) -> int:
    cfg = parse_config(args.config, {"seed": args.seed})
    dataset, schedule = _build_world(cfg)
    _, heldout = _split_identities(cfg)
    model = _load_base_model(cfg, args.checkpoint)
    dims = [(l.factors.d1, l.factors.d2) for l in model.layers]
    lmd = personalize.load_stage1(args.stage1, cfg["r1"], dims)
    ident = cfg["target_identity"] if cfg["target_identity"] >= 0 else heldout[0]
    ref = dataset.reference_of(ident)
    result = personalize.run_stage2(model, lmd, ref, schedule, _personalize_config(cfg))
    tensors = {}
    for li, f in enumerate(result.factors):
        tensors[f"lmd.{li}"] = f.l_meta_down
        tensors[f"lm.{li}"] = f.l_mid
        tensors[f"lu.{li}"] = f.l_up
    header = {"kind": "personalized", "r1": cfg["r1"], "r2": cfg["r2"],
              "identity": ident, "seed": cfg["seed"],
              "config_hash": config_hash(cfg),
              "lmd_checksum": result.lmd_checksum_after}
    save_checkpoint(args.out, header, tensors)
    write_run_trace(args.out, "personalize", cfg, {
        "identity": ident,
        "final_loss": result.train_losses[-1],
        "lmd_frozen": result.lmd_checksum_before == result.lmd_checksum_after})
    write_svg_curve(str(args.out) + ".loss.svg", result.train_losses,
                    title="stage-2 loss")
    print(f"personalized checkpoint written to {args.out} (identity {ident})")
    return 0


def cmd_merge(args) -> int:
    header, tensors = load_checkpoint(args.checkpoint)
    if header.get("kind") != "personalized":
        raise CheckpointError(f"not a personalized checkpoint "
                              f"(kind={header.get('kind')!r})")
    layers = sorted({int(k.split(".")[1]) for k in tensors if k.startswith("lmd.")})
    out_tensors = {}
    max_err = 0.0
    for li in layers:
        missing = [n for n in (f"lm.{li}", f"lu.{li}") if n not in tensors]
        if missing:
            raise CheckpointError(f"personalized checkpoint lacks {', '.join(missing)}")
        f = AdapterFactors(tensors[f"lmd.{li}"], tensors[f"lm.{li}"], tensors[f"lu.{li}"])
        m = merge(f)
        out_tensors[f"down.{li}"] = m.down
        out_tensors[f"up.{li}"] = m.up
        if args.verify:
            rng = make_rng(0)
            for _ in range(100):
                x = rng.normal(size=(f.d1, 1))
                three = f.l_up @ (f.l_mid @ (f.l_meta_down @ x))
                two = m.up @ (m.down @ x)
                max_err = max(max_err, float(np.max(np.abs(three - two))))
    if args.verify and max_err > 1e-12:
        raise NumericError(f"merge verification failed: max |diff| = {max_err:.3e}")
    # the source path goes only into the run trace, so that the export's
    # bytes do not depend on where its input was stored
    out_header = {"kind": "merged", "r2": header.get("r2"),
                  "identity": header.get("identity")}
    save_checkpoint(args.out, out_header, out_tensors)
    write_run_trace(args.out, "merge", {"source": str(args.checkpoint)},
                    {"verified_max_error": max_err if args.verify else None})
    print(f"merged export written to {args.out}"
          + (f" (verified, max err {max_err:.2e})" if args.verify else ""))
    return 0


def cmd_evaluate(args) -> int:
    with open(args.manifest) as fh:
        manifest = evaluation.EvalManifest.from_json(json.load(fh))
    generated = evaluation.read_embeddings_jsonl(args.generated)

    def generator(reference, prompt):
        # reverse lookup by (identity, prompt); entries keyed "identity||prompt"
        for entry in manifest.identities:
            if entry.reference is reference:
                key = f"{entry.identity}||{prompt}"
                if key not in generated:
                    raise KeyError(f"no generated item for {key}")
                return generated[key]
        raise KeyError("unknown reference")

    dim = manifest.identities[0].reference.size
    embedder = evaluation.ToyEmbedder(dim, seed=args.embedder_seed)
    robust = evaluation.r_facesim(manifest, generator, embedder)
    conventional = evaluation.facesim_conventional(manifest, generator, embedder)
    report = {
        "r_facesim": robust.score,
        "facesim": conventional.score,
        "relative_difference_pct": evaluation.discrepancy_report(
            conventional.score, robust.score),
        "failures": robust.failures,
        "per_pair": {f"{i}||{p}": v for (i, p), v in sorted(robust.table.items())},
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    write_run_trace(args.out, "evaluate", {"manifest": str(args.manifest),
                                           "generated": str(args.generated)})
    print(f"{'metric':<14}{'score':>10}")
    print(f"{'FaceSim':<14}{conventional.score:>10.2f}")
    print(f"{'R-FaceSim':<14}{robust.score:>10.2f}")
    print(f"{'rel. diff %':<14}{report['relative_difference_pct']:>10.1f}")
    if robust.failures:
        print(f"warning: {robust.failures} generation(s) failed and were excluded")
    return 0


def cmd_augment_plan(args) -> int:
    try:
        fx, fy, fw, fh = (int(v) for v in args.face.split(","))
    except ValueError:
        raise ConfigError(f"--face expects four integers x,y,w,h, got {args.face!r}")
    specs = augment.plan_crops(args.image_w, args.image_h,
                               augment.FaceBox(fx, fy, fw, fh))
    text = augment.plan_to_jsonl(specs)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_speed_experiment(args) -> int:
    cfg = parse_config(args.config, {"seed": args.seed})
    dataset, schedule = _build_world(cfg)
    _train_ids, heldout = _split_identities(cfg)
    model = _load_base_model(cfg, args.checkpoint)
    dims = [(l.factors.d1, l.factors.d2) for l in model.layers]
    lmd = personalize.load_stage1(args.stage1, cfg["r1"], dims)
    seeds = [cfg["seed"] + i for i in range(cfg["speed_seeds"])]
    report = personalize.adaptation_speed_experiment(
        model, dataset, heldout, lmd, schedule, _personalize_config(cfg), seeds)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    with open(str(args.out) + ".csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["seed", "identity", "meta_iters", "random_iters"])
        for r in report["seeds"]:
            for p in r["per_identity"]:
                w.writerow([r["seed"], p["identity"], p["meta_iters"], p["random_iters"]])
    write_run_trace(args.out, "speed-experiment", cfg)
    print(f"median iterations-to-threshold: meta={report['median_meta']:.0f} "
          f"random={report['median_random']:.0f} "
          f"(meta faster in {report['seeds_meta_faster']}/{len(seeds)} seeds)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="metalora",
                                description="desk-scale meta-adapter laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, checkpoint=False, stage1=False):
        sp.add_argument("--config", default=None, help="flat key=value config file")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--out", required=True, help="output artifact path")
        if checkpoint:
            sp.add_argument("--checkpoint", required=True, help="base checkpoint")
        if stage1:
            sp.add_argument("--stage1", required=True, help="stage-1 checkpoint")

    sp = sub.add_parser("pretrain", help="train and freeze the toy base weights")
    common(sp)
    sp.set_defaults(func=cmd_pretrain)

    sp = sub.add_parser("metatrain", help="stage-1 bucketed meta-training")
    common(sp, checkpoint=True)
    sp.set_defaults(func=cmd_metatrain)

    sp = sub.add_parser("personalize", help="stage-2 single-example fitting")
    common(sp, checkpoint=True, stage1=True)
    sp.set_defaults(func=cmd_personalize)

    sp = sub.add_parser("merge", help="export a personalized checkpoint as a "
                                      "standard two-factor adapter")
    sp.add_argument("--checkpoint", required=True, help="personalized checkpoint")
    sp.add_argument("--out", required=True)
    sp.add_argument("--verify", action="store_true",
                    help="check merged forward against the three-factor chain")
    sp.set_defaults(func=cmd_merge)

    sp = sub.add_parser("evaluate", help="similarity metrics over a manifest")
    sp.add_argument("--manifest", required=True, help="EvalManifest JSON")
    sp.add_argument("--generated", required=True,
                    help="JSONL of generated vectors keyed 'identity||prompt'")
    sp.add_argument("--embedder-seed", type=int, default=1234)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("augment-plan", help="print the crop plan as JSON lines")
    sp.add_argument("--image-w", type=int, required=True)
    sp.add_argument("--image-h", type=int, required=True)
    sp.add_argument("--face", required=True, help="face box as x,y,w,h")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_augment_plan)

    sp = sub.add_parser("speed-experiment",
                        help="meta vs random adaptation-speed comparison")
    common(sp, checkpoint=True, stage1=True)
    sp.set_defaults(func=cmd_speed_experiment)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except (OSError, CheckpointError, RankError) as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return 3
    except (NumericError, MetaLoraError) as exc:
        print(json.dumps({"error": "numeric", "message": str(exc)}), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
