"""Command-line entry point tying the modules into reproducible runs.

Every command reads a flat key=value config file, echoes the resolved
config (defaults included) plus its hash into a ``*.trace.json`` next to its
output, and exits 0 on success. Exit codes: 2 for config and argument errors
(an allocation that fails counts as one: the config sizes every array), 3 for I/O,
checkpoint and manifest errors, 4 for numeric failures.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
from array import array
from types import SimpleNamespace

import numpy as np

from . import augment, evaluation, metatrain, personalize, toymodel
from .adapter import AdapterFactors, check_ranks, merge
from .checkpoint import atomic_open, config_hash, load_layers, save_layers, write_atomic
from .config import CONFIG_SCHEMA, MAX_SIZE  # also read as cli.CONFIG_SCHEMA, cli.MAX_SIZE
from .errors import (CheckpointError, ConfigError, ManifestError, MetaLoraError,
                     NumericError, RankError)
from .numerics import make_rng


def parse_config(path: str | None, overrides: dict | None = None) -> dict:
    """The run config: :data:`CONFIG_SCHEMA`'s defaults, then the file's
    settings, then the non-``None`` ``overrides``, each checked against its
    key's type and bounds, and the ranks against the model's widths by
    :func:`~metalora.adapter.check_ranks`. Any refusal is a ``ConfigError``."""
    values = {k: spec[1] for k, spec in CONFIG_SCHEMA.items()}
    if path is not None:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        line_of: dict[str, int] = {}  # each set key's line
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
            if key in line_of:  # a later value must not silently replace the first
                raise ConfigError(f"{path}:{ln}: key {key!r} repeats line {line_of[key]}")
            line_of[key] = ln
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
    for key, (_typ, _default, lo, hi) in CONFIG_SCHEMA.items():
        lo, hi = (bound(values) if callable(bound) else bound for bound in (lo, hi))
        # an int beyond float range is refused like inf (math.isfinite cannot take it)
        if not (lo <= values[key] <= hi and abs(values[key]) <= sys.float_info.max):
            raise ConfigError(f"{key} = {values[key]} is not a finite number in [{lo}, {hi}]")
    # layer 2 (hidden_dim -> latent_dim) binds: layer 1's input is wider than latent_dim
    try:
        check_ranks(values["r1"], values["r2"], values["hidden_dim"], values["latent_dim"])
    except RankError as exc:
        raise ConfigError(f"r1, r2 against hidden_dim, latent_dim: {exc}") from exc
    return values


def write_run_trace(out_path: str, command: str, config: dict, extra: dict | None = None):
    doc = {"command": command, "config": config, "config_hash": config_hash(config)}
    if extra:
        doc.update(extra)
    write_atomic(str(out_path) + ".trace.json",
                 json.dumps(doc, indent=2, sort_keys=True, default=str).encode())


def write_svg_curve(path, ys, title: str = ""):
    """Static 640x240 SVG line chart of one curve; no plotting dependency needed.
    Each point is written as it is formatted, so the curve is not copied."""
    lo, hi = min(ys), max(ys)
    span = (hi - lo) or 1.0
    width, height, pad = 640, 240, 10
    last = max(len(ys) - 1, 1)
    with atomic_open(path) as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
                 f'<title>{title}</title>'
                 f'<rect width="100%" height="100%" fill="white"/>'
                 f'<polyline fill="none" stroke="steelblue" stroke-width="1" '
                 f'points="'.encode())
        for i, y in enumerate(ys):
            # each point's operations in a fixed order: the file's bytes depend on their bits
            fh.write(f"{' ' if i else ''}{pad + i * (width - 2 * pad) / last:.1f},"
                     f"{height - pad - (y - lo) * (height - 2 * pad) / span:.1f}".encode())
        fh.write(b'"/></svg>')


def _load_world(args) -> SimpleNamespace:
    """A pipeline command's config, dataset, schedule and identity split and,
    if it takes them, the frozen base of ``--checkpoint`` and the shared
    factors of ``--stage1``, by name."""
    cfg = parse_config(args.config, {"seed": args.seed})
    n, h = cfg["n_identities"], cfg["heldout_identities"]
    world = SimpleNamespace(
        cfg=cfg, schedule=toymodel.linear_schedule(cfg["timesteps"]),
        dataset=toymodel.make_dataset(
            make_rng(cfg["seed"]), n_identities=n, d=cfg["latent_dim"],
            samples_per_identity=cfg["samples_per_identity"], n_prompts=cfg["n_prompts"],
            single_prototype=cfg["single_prototype"]),
        train_ids=list(range(n - h)), heldout=list(range(n - h, n)))
    if not hasattr(args, "checkpoint"):
        return world
    _header, layers = load_layers(args.checkpoint, "base")
    world.model = toymodel.ToyDenoiser.build(
        make_rng(cfg["seed"]), d=cfg["latent_dim"], hidden=cfg["hidden_dim"],
        n_prompts=cfg["n_prompts"], r1=cfg["r1"], r2=cfg["r2"], factor_mode="zero")
    shapes = [w0.shape for w0 in layers["w0"]]
    if shapes != [layer.w0.shape for layer in world.model.layers]:
        raise CheckpointError(f"base checkpoint w0 shapes {shapes} do not match the model's "
                              f"{[layer.w0.shape for layer in world.model.layers]}")
    for layer, w0 in zip(world.model.layers, layers["w0"]):
        layer.w0[:] = w0
        layer.freeze_base()
    if hasattr(args, "stage1"):
        world.lmd = personalize.load_stage1(args.stage1, cfg["r1"], world.model.dims)
    return world


def stage_config(cls, cfg: dict):
    """A ``TrainConfig`` or ``PersonalizeConfig`` with each field set from the
    config key it stands for (:func:`metalora.config.setting`)."""
    return cls(**{f.name: cfg[f.metadata["key"]] for f in dataclasses.fields(cls)})


def cmd_pretrain(args) -> int:
    world = _load_world(args)
    cfg = world.cfg
    model = toymodel.pretrain_base(
        toymodel.subset_dataset(world.dataset, world.train_ids), world.schedule,
        seed=cfg["seed"] + 1, hidden=cfg["hidden_dim"],
        lr=cfg["pretrain_lr"], batch_size=cfg["pretrain_batch_size"],
        loss_threshold=cfg["pretrain_loss_threshold"],
        max_iters=cfg["pretrain_max_iters"])
    save_layers(args.out, "base", {"seed": cfg["seed"], "config_hash": config_hash(cfg)},
                {"w0": [l.w0 for l in model.layers]})
    write_run_trace(args.out, "pretrain", cfg)
    print(f"base checkpoint written to {args.out}")
    return 0


def cmd_metatrain(args) -> int:
    world = _load_world(args)
    cfg = world.cfg
    tc = stage_config(metatrain.TrainConfig, cfg)
    train_set = toymodel.subset_dataset(world.dataset, world.train_ids)
    losses = array("d")  # 8 bytes an iteration, for the loss chart
    with metatrain.trace_files(args.out) as write_trace:
        def sink(record):
            losses.append(record.loss)
            write_trace(record)

        result = metatrain.run_stage1(world.model, train_set, world.schedule, tc, sink)
        header = {"r1": cfg["r1"], "seed": cfg["seed"], "config_hash": config_hash(cfg),
                  "executed_iterations": result.executed_iterations}
        # committed before the traces, which commit as this block ends
        save_layers(args.out, "stage1", header, {"lmd": result.lmd})
    write_svg_curve(str(args.out) + ".loss.svg", losses, title="stage-1 loss")
    write_run_trace(args.out, "metatrain", cfg,
                    {"executed_iterations": result.executed_iterations})
    print(f"stage-1 checkpoint written to {args.out} "
          f"({result.executed_iterations} iterations)")
    return 0


def cmd_personalize(args) -> int:
    world = _load_world(args)
    cfg = world.cfg
    ident = cfg["target_identity"] if cfg["target_identity"] >= 0 else world.heldout[0]
    result = personalize.run_stage2(
        world.model, world.lmd, world.dataset.reference_of(ident), world.schedule,
        stage_config(personalize.PersonalizeConfig, cfg))
    header = {"r1": cfg["r1"], "r2": cfg["r2"], "identity": ident, "seed": cfg["seed"],
              "config_hash": config_hash(cfg)}
    save_layers(args.out, "personalized", header, {
        "lmd": [f.l_meta_down for f in result.factors],
        "lm": [f.l_mid for f in result.factors], "lu": [f.l_up for f in result.factors]})
    write_run_trace(args.out, "personalize", cfg, {
        "identity": ident,
        "final_loss": result.train_losses[-1],
        "lmd_frozen": result.lmd_frozen})
    write_svg_curve(str(args.out) + ".loss.svg", result.train_losses,
                    title="stage-2 loss")
    print(f"personalized checkpoint written to {args.out} (identity {ident})")
    return 0


def cmd_merge(args) -> int:
    header, layers = load_layers(args.checkpoint, "personalized")
    merged, errors = {"down": [], "up": []}, []
    for f in map(AdapterFactors, layers["lmd"], layers["lm"], layers["lu"]):
        m = merge(f)
        merged["down"].append(m.down)
        merged["up"].append(m.up)
        if args.verify:
            # 100 random columns as a stack: the draws of 100 (d1, 1) calls, and
            # the same BLAS call per column as one at a time
            x = make_rng(0).normal(size=(100, f.d1, 1))
            three = f.l_up @ (f.l_mid @ (f.l_meta_down @ x))
            errors.append(np.max(np.abs(three - m.up @ (m.down @ x))))
    max_err = float(np.max(errors)) if args.verify else None  # np.max keeps a NaN
    if args.verify and not max_err <= 1e-12:
        raise NumericError(f"merge verification failed: max |diff| = {max_err:.3e}")
    # the source path goes only into the run trace, so that the export's
    # bytes do not depend on where its input was stored
    save_layers(args.out, "merged", {"r2": header["r2"], "identity": header["identity"]},
                merged)
    write_run_trace(args.out, "merge", {"source": str(args.checkpoint)},
                    {"verified_max_error": max_err})
    print(f"merged export written to {args.out}"
          + (f" (verified, max err {max_err:.2e})" if args.verify else ""))
    return 0


def cmd_evaluate(args) -> int:
    if args.embedder_seed < 0:
        raise ConfigError(f"--embedder-seed must be >= 0, got {args.embedder_seed}")
    with open(args.manifest) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ManifestError(f"manifest {args.manifest} is not JSON: {exc}") from exc
    manifest = evaluation.EvalManifest.from_json(doc)
    dim = manifest.identities[0].reference.size
    generated = evaluation.read_embeddings_jsonl(args.generated, dim)
    identity_of = {id(entry.reference): entry.identity for entry in manifest.identities}

    def generator(reference, prompt):  # a missing key is a failed generation
        return generated[evaluation.pair_key(identity_of[id(reference)], prompt)]

    embedder = evaluation.ToyEmbedder(dim, seed=args.embedder_seed)
    robust, conventional = evaluation.facesim_scores(manifest, generator, embedder)
    report = {
        "r_facesim": robust.score,
        "facesim": conventional.score,
        "relative_difference_pct": evaluation.discrepancy_report(
            conventional.score, robust.score),
        "failures": robust.failures,
        "per_pair": {evaluation.pair_key(*pair): v for pair, v in sorted(robust.table.items())},
    }
    write_atomic(args.out, json.dumps(report, indent=2, sort_keys=True).encode())
    write_run_trace(args.out, "evaluate", {"manifest": str(args.manifest),
                                           "generated": str(args.generated),
                                           "embedder_seed": args.embedder_seed},
                    {"failures": robust.failures})
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
    try:
        specs = augment.plan_crops(args.image_w, args.image_h,
                                   augment.FaceBox(fx, fy, fw, fh))
    except MetaLoraError as exc:  # an empty or out-of-image face box
        raise ConfigError(str(exc))
    text = augment.plan_to_jsonl(specs)
    if args.out:
        write_atomic(args.out, text.encode())
    else:
        sys.stdout.write(text)
    return 0


def cmd_speed_experiment(args) -> int:
    world = _load_world(args)
    cfg = world.cfg
    seeds = [cfg["seed"] + i for i in range(cfg["speed_seeds"])]
    report = personalize.adaptation_speed_experiment(
        world.model, world.dataset, world.heldout, world.lmd, world.schedule,
        stage_config(personalize.PersonalizeConfig, cfg), seeds)
    write_atomic(args.out, json.dumps(report, indent=2, sort_keys=True).encode())
    with atomic_open(str(args.out) + ".csv", "w", newline="") as fh:
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a bad argument is a config error, reported by main
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache  # built once per process; parsing does not change it
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="metalora", description="desk-scale meta-adapter laboratory")
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
    try:
        args = build_parser().parse_args(argv)
        # each command refuses a non-finite value itself, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except MemoryError as exc:  # the config sizes every array
        print(json.dumps({"error": "config", "message": f"the config's sizes need more "
                          f"memory than can be allocated: {exc}"}), file=sys.stderr)
        return 2
    except (OSError, CheckpointError, ManifestError, RankError) as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return 3
    except (NumericError, MetaLoraError) as exc:
        print(json.dumps({"error": "numeric", "message": str(exc)}), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
