"""Checkpoint container format and the command-line pipeline."""

import contextlib
import importlib
import io
import json
import math
import os
import re
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from metalora import cli, metatrain, personalize, toymodel
from metalora.adapter import AdapterFactors, merge
from metalora.checkpoint import (KINDS, MAGIC, VERSION, config_hash, load_checkpoint,
                                 load_layers, save_checkpoint, save_layers)
from metalora.cli import main, parse_config, write_svg_curve
from metalora.errors import CheckpointError, ConfigError
from metalora.numerics import checksum, make_rng

BENCH_DIR = Path(__file__).resolve().parents[1] / "pipeline_bench"


def header_only_checkpoint(path, hdr: bytes):
    """A checkpoint with the given raw header bytes and no tensors."""
    path.write_bytes(MAGIC + struct.pack("<HI", VERSION, len(hdr)) + hdr
                     + struct.pack("<I", 0))


def evaluate_inputs(tmp_path):
    """``evaluate``'s input arguments: a manifest of three identities and a
    generated vector per identity and prompt, written to ``tmp_path``."""
    rng = make_rng(0)
    ids = []
    gen = {}
    for i in range(3):
        proto = rng.normal(size=8)
        ids.append({"id": f"id{i}",
                    "reference": (proto + 0.1 * rng.normal(size=8)).tolist(),
                    "tests": [(proto + 0.1 * rng.normal(size=8)).tolist()
                              for _ in range(3)]})
        for p in ("p0", "p1"):
            gen[f"id{i}||{p}"] = proto + 0.1 * rng.normal(size=8)
    man = tmp_path / "man.json"
    man.write_text(json.dumps({"identities": ids, "prompts": ["p0", "p1"]}))
    genf = tmp_path / "gen.jsonl"
    with open(genf, "w") as fh:
        for k, v in gen.items():
            fh.write(json.dumps({"id": k, "vector": v.tolist()}) + "\n")
    return ["--manifest", str(man), "--generated", str(genf)]


def run_main(argv) -> tuple[int, str]:
    """``main``'s exit code, as the console script would end, and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse's own exit
            rc = exc.code
    return rc, err.getvalue()


def assert_contract(rc, stderr):
    """A documented exit code, and a failure's stderr exactly one JSON error."""
    assert rc in (0, 2, 3, 4)
    if rc:
        assert json.loads(stderr)["error"] in ("config", "io", "numeric")


class TestCheckpointFormat:
    def sample(self, tmp_path, name="a.bin"):
        path = tmp_path / name
        rng = make_rng(0)
        header = {"kind": "stage1", "r1": 4, "seed": 0}
        tensors = {"lmd.0": rng.standard_normal((4, 6)),
                   "lmd.1": rng.standard_normal((4, 8))}
        save_checkpoint(path, header, tensors)
        return path, header, tensors

    def test_round_trip_bit_exact(self, tmp_path):
        path, header, tensors = self.sample(tmp_path)
        h2, t2 = load_checkpoint(path)
        assert h2 == header
        for k in tensors:
            assert t2[k].dtype == np.float64
            assert t2[k].tobytes() == tensors[k].tobytes()

    def test_save_load_save_byte_identical(self, tmp_path):
        path, header, tensors = self.sample(tmp_path)
        h2, t2 = load_checkpoint(path)
        path2 = tmp_path / "b.bin"
        save_checkpoint(path2, h2, t2)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic_offset_zero(self, tmp_path):
        path, _, _ = self.sample(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert exc.value.offset == 0

    def test_bad_version(self, tmp_path):
        path, _, _ = self.sample(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = struct.pack("<H", VERSION + 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert exc.value.offset == 4

    def test_truncation_reports_offset(self, tmp_path):
        path, _, _ = self.sample(tmp_path)
        blob = path.read_bytes()
        for cut in (3, 5, 8, len(blob) - 7):
            p = tmp_path / f"cut{cut}.bin"
            p.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError) as exc:
                load_checkpoint(p)
            assert exc.value.offset is not None
            assert 0 <= exc.value.offset <= cut

    def test_corrupt_header_json(self, tmp_path):
        path = tmp_path / "c.bin"
        hdr = b"{not json"
        blob = MAGIC + struct.pack("<H", VERSION) + struct.pack("<I", len(hdr)) + hdr
        blob += struct.pack("<I", 0)
        path.write_bytes(blob)
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert exc.value.offset == 10  # header JSON starts after magic+ver+len

    @pytest.mark.parametrize("hdr", [b"[]", b"42", b'"text"'])
    def test_header_not_an_object(self, tmp_path, hdr):
        path = tmp_path / "h.bin"
        header_only_checkpoint(path, hdr)
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert exc.value.offset == 10

    def test_trailing_bytes_rejected(self, tmp_path):
        path, _, _ = self.sample(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob + b"junk")
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert exc.value.offset == len(blob)

    def test_duplicate_tensor_name_rejected_at_its_offset(self, tmp_path):
        path, _, tensors = self.sample(tmp_path)
        blob = path.read_bytes()
        second = blob.index(b"lmd.1") - 2  # its name length field
        path.write_bytes(blob[:second + 2] + b"lmd.0" + blob[second + 7:])
        with pytest.raises(CheckpointError, match="duplicate tensor name 'lmd.0'") as exc:
            load_checkpoint(path)
        assert exc.value.offset == second

    def test_non_2d_tensor_rejected(self, tmp_path):
        # the 1-d tensor is found after the 2-d one is written: the partial
        # file goes and the previous one stays
        path, _, _ = self.sample(tmp_path)
        before = path.read_bytes()
        with pytest.raises(CheckpointError, match="tensor 'v' is not 2-d"):
            save_checkpoint(path, {}, {"m": np.ones((2, 2)), "v": np.zeros(3)})
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("failing, command", [
        ("fsync", None), ("replace", None), ("replace", "augment-plan"),
        ("replace", "evaluate"), ("fsync", "metatrain"), ("fsync", "speed-experiment")],
        ids=["fsync", "replace", "replace-augment-plan", "replace-evaluate",
             "fsync-metatrain", "fsync-speed-experiment"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, request, failing,
                                              command):
        # a checkpoint written over the previous file, or a command's --out;
        # metatrain's stage-1 checkpoint is written and its traces fail, and
        # speed-experiment's report is written and its CSV table fails
        out = tmp_path / "out"
        out.mkdir()
        path, _, _ = self.sample(out)
        kept, written = [path], 0  # the files kept, and the writes that succeed
        argv = {"augment-plan": ["augment-plan", "--image-w", "1024", "--image-h", "1024",
                                 "--face", "384,384,256,256"],
                "evaluate": ["evaluate", *evaluate_inputs(tmp_path)]}
        if command in ("metatrain", "speed-experiment"):
            _root, cfg, base, s1, *_ = request.getfixturevalue("cli_run")
            argv = {"metatrain": ["metatrain", "--config", str(cfg), "--checkpoint", str(base)],
                    "speed-experiment": ["speed-experiment", "--config", str(cfg),
                                         "--checkpoint", str(base), "--stage1", str(s1)]}
            exts = {"metatrain": ["trace.csv", "trace.jsonl"], "speed-experiment": ["csv"]}
            kept, written = [out / f"{path.name}.{ext}" for ext in exts[command]], 1
            for previous in kept:
                previous.write_text("the previous file\n")
        before = {p.name: p.read_bytes() for p in kept}
        calls, original = [], getattr(os, failing)

        def disk_full(*args):
            calls.append(None)
            if len(calls) > written:
                raise OSError(28, "No space left on device")
            return original(*args)

        monkeypatch.setattr(os, failing, disk_full)
        if command is None:
            with pytest.raises(OSError):
                save_checkpoint(path, {"kind": "stage1"}, {"lmd.0": np.ones((2, 2))})
        else:
            assert main(argv[command] + ["--out", str(path)]) == 3
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in kept} == before
        assert sorted(p.name for p in out.iterdir()) == sorted({path.name, *before})

    def test_save_layers_writes_the_hand_built_bytes(self, tmp_path):
        # each kind's tensors as the CLI named and ordered them by hand
        rng = make_rng(1)
        w0, lmd, lm, lu = ([rng.normal(size=shape) for shape in shapes] for shapes in (
            [(16, 18), (8, 16)], [(4, 18), (4, 16)], [(1, 4), (1, 4)], [(16, 1), (8, 1)]))
        down = [m @ d for m, d in zip(lm, lmd)]
        cases = [
            ("base", {"seed": 0}, {"w0": w0}, {"w0.0": w0[0], "w0.1": w0[1]}),
            ("stage1", {"r1": 4, "seed": 0, "executed_iterations": 80}, {"lmd": lmd},
             {"lmd.0": lmd[0], "lmd.1": lmd[1]}),
            ("personalized", {"r1": 4, "r2": 1, "identity": 4},
             {"lmd": lmd, "lm": lm, "lu": lu},
             {"lmd.0": lmd[0], "lm.0": lm[0], "lu.0": lu[0],
              "lmd.1": lmd[1], "lm.1": lm[1], "lu.1": lu[1]}),
            ("merged", {"r2": 1, "identity": 4}, {"down": down, "up": lu},
             {"down.0": down[0], "up.0": lu[0], "down.1": down[1], "up.1": lu[1]}),
        ]
        assert sorted(KINDS) == sorted(kind for kind, *_ in cases)
        for kind, header, layers, tensors in cases:
            full_header = {"kind": kind, **header, "checksums": {
                name: checksum(arr) for name, arr in tensors.items()}}
            save_layers(tmp_path / "new.bin", kind, header, layers)
            save_checkpoint(tmp_path / "old.bin", full_header, tensors)
            assert (tmp_path / "new.bin").read_bytes() == (tmp_path / "old.bin").read_bytes()
            back_header, back = load_layers(tmp_path / "new.bin", kind)
            assert back_header == full_header
            assert {f: [a.tobytes() for a in back[f]] for f in back} == \
                {f: [a.tobytes() for a in layers[f]] for f in layers}

    def test_config_hash_canonical(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})


class TestConfigParsing:
    def test_defaults_without_file(self):
        cfg = parse_config(None)
        assert cfg["q_st2"] == 375 and cfg["r2"] == 1

    def test_file_with_comments_and_overrides(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\nq_total = 42  # inline\nsingle_prototype = true\n")
        cfg = parse_config(str(p), {"seed": 9})
        assert cfg["q_total"] == 42
        assert cfg["single_prototype"] is True
        assert cfg["seed"] == 9

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("no_such_key = 1\n")
        with pytest.raises(ConfigError):
            parse_config(str(p))

    def test_bad_value_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("q_total = banana\n")
        with pytest.raises(ConfigError):
            parse_config(str(p))

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("/no/such/file.cfg")

    @pytest.mark.parametrize("cls", [metatrain.TrainConfig, personalize.PersonalizeConfig])
    def test_stage_config_fields_are_config_keys_with_their_defaults(self, cls):
        # every field reads a CONFIG_SCHEMA key (a KeyError otherwise) whose
        # default is the field's: the defaults are stated in both places
        defaults = parse_config(None)
        assert cli.stage_config(cls, defaults) == cls()
        renamed = cli.stage_config(cls, {**defaults, "stage2_lr": 0.5})
        assert renamed.lr == (0.5 if cls is personalize.PersonalizeConfig else defaults["lr"])


SMALL_CFG = """
n_identities = 6
heldout_identities = 2
latent_dim = 8
hidden_dim = 16
samples_per_identity = 6
n_prompts = 2
r1 = 4
q_total = 80
identities_per_bucket = 2
pretrain_loss_threshold = 0.9
pretrain_max_iters = 3000
q_st2 = 40
speed_seeds = 3
"""


def small_cfg_with(line):
    """SMALL_CFG with ``line`` setting its key, in place of SMALL_CFG's own
    setting of that key if it has one: a config file sets each key once."""
    key = line.partition("=")[0].strip()
    kept = [old for old in SMALL_CFG.splitlines() if old.partition("=")[0].strip() != key]
    return "\n".join(kept) + "\n" + line + "\n"


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """Full pipeline once per module; individual tests inspect artifacts."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "small.cfg"
    cfg.write_text(SMALL_CFG)
    base = root / "base.bin"
    s1 = root / "stage1.bin"
    pers = root / "pers.bin"
    merged = root / "merged.bin"
    c = str(cfg)
    assert main(["pretrain", "--config", c, "--out", str(base)]) == 0
    assert main(["metatrain", "--config", c, "--checkpoint", str(base),
                 "--out", str(s1)]) == 0
    assert main(["personalize", "--config", c, "--checkpoint", str(base),
                 "--stage1", str(s1), "--out", str(pers)]) == 0
    assert main(["merge", "--checkpoint", str(pers), "--out", str(merged),
                 "--verify"]) == 0
    return root, cfg, base, s1, pers, merged


class TestPipeline:
    def test_artifacts_exist_with_traces(self, cli_run):
        root, cfg, base, s1, pers, merged = cli_run
        for p in (base, s1, pers, merged):
            assert p.exists()
            assert (p.parent / (p.name + ".trace.json")).exists()
        assert (s1.parent / (s1.name + ".trace.csv")).exists()
        assert (s1.parent / (s1.name + ".trace.jsonl")).exists()
        assert (s1.parent / (s1.name + ".loss.svg")).exists()

    def test_checkpoint_kinds_and_hash_echo(self, cli_run):
        root, cfg, base, s1, pers, merged = cli_run
        for p, kind in ((base, "base"), (s1, "stage1"),
                        (pers, "personalized"), (merged, "merged")):
            header, _ = load_checkpoint(p)
            assert header["kind"] == kind
        trace = json.loads((s1.parent / (s1.name + ".trace.json")).read_text())
        assert trace["config_hash"] == config_hash(trace["config"])

    def test_personalize_froze_shared_factor(self, cli_run):
        root, cfg, base, s1, pers, merged = cli_run
        trace = json.loads((pers.parent / (pers.name + ".trace.json")).read_text())
        assert trace["lmd_frozen"] is True
        h1, t1 = load_checkpoint(s1)
        hp, tp = load_checkpoint(pers)
        for li in range(2):
            assert t1[f"lmd.{li}"].tobytes() == tp[f"lmd.{li}"].tobytes()

    def test_one_iteration_personalize_replaces_the_loss_svg(self, cli_run, tmp_path):
        root, cfg, base, s1, pers, merged = cli_run
        one = tmp_path / "one.cfg"
        one.write_text(SMALL_CFG.replace("q_st2 = 40", "q_st2 = 1"))
        out = tmp_path / "pers.bin"
        svg = tmp_path / "pers.bin.loss.svg"
        svg.write_text("an older run's curve")
        assert main(["personalize", "--config", str(one), "--checkpoint", str(base),
                     "--stage1", str(s1), "--out", str(out)]) == 0
        # one point, at the chart's left edge and its bottom
        assert re.search(r'points="([^"]*)"', svg.read_text()).group(1) == "10.0,230.0"

    def test_merged_tensors_shapes(self, cli_run):
        root, cfg, base, s1, pers, merged = cli_run
        hm, tm = load_checkpoint(merged)
        hp, tp = load_checkpoint(pers)
        for li in range(2):
            down = tm[f"down.{li}"]
            up = tm[f"up.{li}"]
            assert down.shape == (1, tp[f"lmd.{li}"].shape[1])
            assert up.shape[1] == 1
            want = tp[f"lm.{li}"] @ tp[f"lmd.{li}"]
            assert np.max(np.abs(down - want)) <= 1e-15

    @pytest.mark.parametrize("name", ["down.0", "up.1"])
    def test_merged_export_with_an_edited_byte_is_refused(self, cli_run, tmp_path, name):
        # no command reads a merged export, so load_layers is its reader
        merged = cli_run[5]
        load_layers(merged, "merged")
        blob = bytearray(merged.read_bytes())
        record = struct.pack("<H", len(name)) + name.encode()  # not the header's mention
        blob[blob.index(record) + len(record) + 8 + 3] ^= 0x10  # past rows and cols
        bad = tmp_path / "merged.bin"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=f"{name}' does not match its recorded"):
            load_layers(bad, "merged")

    def test_merged_export_independent_of_source_path(self, cli_run, tmp_path):
        pers = cli_run[4]
        merged = []
        for name in ("a", "b"):
            d = tmp_path / name
            d.mkdir()
            (d / "pers.bin").write_bytes(pers.read_bytes())
            assert main(["merge", "--checkpoint", str(d / "pers.bin"),
                         "--out", str(d / "merged.bin")]) == 0
            merged.append((d / "merged.bin").read_bytes())
        assert merged[0] == merged[1]

    @pytest.mark.parametrize("failing, call", [("fsync", 1), ("fsync", 2), ("replace", 2)])
    def test_speed_experiment_report_is_written_atomically(self, cli_run, tmp_path,
                                                           monkeypatch, failing, call):
        # a write that fails midway (the report's on call 1, its table's on
        # call 2) leaves the previous files and no temporary file
        root, cfg, base, s1, pers, merged = cli_run
        out = tmp_path / "speed.json"
        argv = ["speed-experiment", "--config", str(cfg), "--checkpoint", str(base),
                "--stage1", str(s1), "--out", str(out)]
        assert main(argv) == 0
        report = json.loads(out.read_text())
        assert out.read_text() == json.dumps(report, indent=2, sort_keys=True)
        rows = [f"{s['seed']},{p['identity']},{p['meta_iters']},{p['random_iters']}\r\n"
                for s in report["seeds"] for p in s["per_identity"]]
        assert (tmp_path / "speed.json.csv").read_bytes() == \
            ("seed,identity,meta_iters,random_iters\r\n" + "".join(rows)).encode()
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        calls, original = [], getattr(os, failing)

        def disk_full(*args):
            calls.append(None)
            if len(calls) == call:
                raise OSError(28, "No space left on device")
            return original(*args)

        monkeypatch.setattr(os, failing, disk_full)
        assert main(argv) == 3
        monkeypatch.undo()
        assert len(calls) == call
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_streamed_traces_are_the_writers_bytes(self, cli_run, tmp_path, monkeypatch):
        # metatrain encodes its records in blocks as training runs; its files
        # are what the whole-trace writers make of the records its sink received
        _root, cfg, base, *_ = cli_run
        records, run = [], metatrain.run_stage1

        def collecting(*args):
            *inputs, sink = args
            return run(*inputs, lambda record: (records.append(record), sink(record)))

        monkeypatch.setattr(metatrain, "run_stage1", collecting)
        out = tmp_path / "s1.bin"
        assert main(["metatrain", "--config", str(cfg), "--checkpoint", str(base),
                     "--out", str(out)]) == 0
        # a whole block and a part of one
        assert len(records) > toymodel.DRAW_BLOCK and len(records) % toymodel.DRAW_BLOCK
        metatrain.write_trace_csv(records, tmp_path / "whole.csv")
        metatrain.write_trace_jsonl(records, tmp_path / "whole.jsonl")
        for ext in ("csv", "jsonl"):
            assert (tmp_path / f"s1.bin.trace.{ext}").read_bytes() == \
                (tmp_path / f"whole.{ext}").read_bytes()

    # a one-dimensional latent, the smallest the schema allows, runs the chain too
    @pytest.mark.parametrize("edits", [{}, {"latent_dim = 8": "latent_dim = 1",
                                            "r1 = 4": "r1 = 1"}],
                             ids=["small", "one-dimensional-latent"])
    def test_same_seed_twice_byte_identical(self, tmp_path, monkeypatch, edits):
        # the chain from pretrain to speed-experiment, twice, with relative
        # paths: every file repeats its bytes
        text = SMALL_CFG
        for old, new in edits.items():
            text = text.replace(old, new)
        (tmp_path / "small.cfg").write_text(text)
        cfg = ["--config", str(tmp_path / "small.cfg")]
        runs = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            for argv in (["pretrain", *cfg, "--out", "base.bin"],
                         ["metatrain", *cfg, "--checkpoint", "base.bin", "--out", "s1.bin"],
                         ["personalize", *cfg, "--checkpoint", "base.bin", "--stage1", "s1.bin",
                          "--out", "pers.bin"],
                         ["merge", "--checkpoint", "pers.bin", "--out", "merged.bin", "--verify"],
                         ["speed-experiment", *cfg, "--checkpoint", "base.bin",
                          "--stage1", "s1.bin", "--out", "speed.json"]):
                assert main(argv) == 0, argv
            runs.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
        assert len(runs[0]) == 15 and runs[0] == runs[1]

    def test_evaluate_subcommand(self, cli_run, tmp_path):
        out = tmp_path / "report.json"
        assert main(["evaluate", *evaluate_inputs(tmp_path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert {"r_facesim", "facesim", "relative_difference_pct"} <= report.keys()

    def test_benchmark_workloads_run_on_the_cli_artifacts(self, cli_run, monkeypatch):
        # pipeline_bench/workloads.py, imported as pipeline_bench/run.py
        # imports it, loads the CLI's checkpoints and generates through
        # set_factors, so a program name it uses that goes fails here
        root, cfg, base, s1, pers, merged = cli_run
        monkeypatch.syspath_prepend(str(BENCH_DIR))
        workloads = importlib.import_module("workloads")
        oracles = importlib.import_module("oracles")
        world = workloads.load_world(cfg, base, s1)
        _header, export = load_checkpoint(merged)
        chains = [workloads._export_chain(export, li) for li in range(2)]
        world.model.set_factors(*chains)
        got = toymodel.generate(world.model, world.schedule, 1, make_rng(3))
        want = oracles.reverse_pass(
            [world.base_tensors["w0.0"], world.base_tensors["w0.1"]],
            [(f.l_meta_down, f.l_mid, f.l_up) for f in chains],
            world.schedule.alpha_bar, world.cfg["n_prompts"], 1,
            make_rng(3).normal(0.0, 1.0, size=world.cfg["latent_dim"]))
        assert np.max(np.abs(got - want)) <= workloads.GENERATION_TOL

    def test_merge_verification_matches_a_per_vector_loop(self, tmp_path):
        # the stacked check keeps the bits of 100 draws and chains one vector
        # at a time, for factors whose chains differ in their last bits
        rng = make_rng(5)
        r1, r2, dims = 5, 2, [(37, 11), (11, 7)]  # per layer: d1, d2
        layers = {"lmd": [rng.normal(size=(r1, d1)) for d1, _d2 in dims],
                  "lm": [rng.normal(size=(r2, r1)) for _ in dims],
                  "lu": [rng.normal(size=(d2, r2)) for _d1, d2 in dims]}
        pers, out = tmp_path / "pers.bin", tmp_path / "merged.bin"
        save_layers(pers, "personalized", {"r1": r1, "r2": r2, "identity": 0}, layers)
        assert main(["merge", "--checkpoint", str(pers), "--out", str(out), "--verify"]) == 0
        want = 0.0
        for f in map(AdapterFactors, layers["lmd"], layers["lm"], layers["lu"]):
            m = merge(f)
            draws = make_rng(0)
            for _ in range(100):
                x = draws.normal(size=(f.d1, 1))
                three = f.l_up @ (f.l_mid @ (f.l_meta_down @ x))
                two = m.up @ (m.down @ x)
                want = max(want, float(np.max(np.abs(three - two))))
        trace = json.loads((tmp_path / "merged.bin.trace.json").read_text())
        assert want > 0
        assert trace["verified_max_error"] == want

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_augment_plan_subcommand(self, capsys):
        assert main(["augment-plan", "--image-w", "4000", "--image-h", "3000",
                     "--face", "1000,1000,300,400"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        recs = [json.loads(l) for l in lines]
        assert 1 <= len(recs) <= 25
        assert any(r["w"] == 600 and r["h"] == 600 for r in recs)


def per_point_svg_points(ys, width=640, height=240, pad=10):
    """A curve's polyline points, computed and formatted one point at a time."""
    lo, hi = float(np.min(ys)), float(np.max(ys))
    span = (hi - lo) or 1.0
    pts = []
    for i, y in enumerate(np.asarray(ys, dtype=np.float64)):
        px = pad + i * (width - 2 * pad) / max(len(ys) - 1, 1)
        py = height - pad - (y - lo) * (height - 2 * pad) / span
        pts.append(f"{px:.1f},{py:.1f}")
    return " ".join(pts)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 375, 3000])
def test_svg_points_match_a_per_point_loop(tmp_path, n):
    rng = make_rng(n)
    path = tmp_path / "curve.svg"
    for ys in (rng.normal(size=n), np.full(n, 0.25), 1e-3 * np.cumsum(rng.exponential(size=n))):
        write_svg_curve(path, list(ys), title="loss")
        points = re.search(r'points="([^"]*)"', path.read_text()).group(1)
        assert points == per_point_svg_points(ys)


def test_metatrain_peak_memory_does_not_grow_with_q_total(cli_run, tmp_path):
    # the trace streams out, the losses are kept as 8-byte floats and the
    # loss chart is written as it is formatted: 4x the iterations may raise
    # the tracemalloc peak of an in-process metatrain by at most 64 KiB.
    # Below about 1,300 iterations stage 1's own peak hides the chart's.
    base = cli_run[2]

    def peak(q_total):
        cfg = tmp_path / f"q{q_total}.cfg"
        cfg.write_text(SMALL_CFG.replace("q_total = 80", f"q_total = {q_total}"))
        tracemalloc.start()
        try:
            assert main(["metatrain", "--config", str(cfg), "--checkpoint", str(base),
                         "--out", str(tmp_path / f"s1-{q_total}.bin")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # first-call allocations
    growth = peak(2000) - peak(500)
    assert growth < 64 * 1024, growth


def reads(kind, cli_run, path, out):
    """The command that reads a ``kind`` checkpoint, run on ``path`` in place of
    that artifact of ``cli_run``: merge --verify reads a personalized one, and
    a personalize of 5 iterations a base or a stage-1 one."""
    root, cfg, base, s1, pers, merged = cli_run
    if kind == "personalized":
        return ["merge", "--checkpoint", str(path), "--out", str(out), "--verify"]
    tiny = root / "tiny.cfg"
    tiny.write_text(SMALL_CFG.replace("q_st2 = 40", "q_st2 = 5"))
    artifacts = {"base": base, "stage1": s1, kind: path}
    return ["personalize", "--config", str(tiny), "--checkpoint", str(artifacts["base"]),
            "--stage1", str(artifacts["stage1"]), "--out", str(out)]


def bump(name, value, at=(0, 0)):
    """An edit of a loaded checkpoint that adds ``value`` to one entry of a tensor."""
    def edit(header, tensors):
        tensors[name][at] += value
    return edit


def set_entries(value, *names):
    """An edit of a loaded checkpoint that sets every entry of some tensors."""
    def edit(header, tensors):
        for name in names:
            tensors[name][:] = value
    return edit


# the cli_run artifact of each kind that a test edits
ARTIFACT = {"base": 2, "stage1": 3, "personalized": 4}

# case -> (kind of the edited artifact, edit of its header and tensors, exit code):
# each edited file is a well-formed container, so only its kind's schema, a
# recorded checksum or merge's verification can refuse it
EDITED_ARTIFACTS = {
    "base with an extra w0.2": ("base", lambda h, t: t.update({"w0.2": t["w0.0"]}), 3),
    "base without its checksums": ("base", lambda h, t: h.pop("checksums"), 3),
    "stage-1 with an extra lmd.2": ("stage1", lambda h, t: t.update({"lmd.2": t["lmd.0"]}), 3),
    "stage-1 with a tensor named junk": ("stage1", lambda h, t: t.update(junk=t["lmd.0"]), 3),
    "personalized r2 = 'seven'": ("personalized", lambda h, t: h.update(r2="seven"), 3),
    "personalized r2 = 7": ("personalized", lambda h, t: h.update(r2=7), 3),
    "personalized r1 = 9": ("personalized", lambda h, t: h.update(r1=9), 3),
    "personalized identity = [1, 2]": ("personalized", lambda h, t: h.update(identity=[1, 2]),
                                       3),
    "base w0.0 altered": ("base", bump("w0.0", 1.0), 3),
    "stage-1 lmd.0 altered": ("stage1", bump("lmd.0", 1.0), 3),
    "personalized lmd.0 altered": ("personalized", bump("lmd.0", 1.0), 3),
    "personalized lu.0 altered": ("personalized", bump("lu.0", 1e-3), 3),
    "personalized NaN in lm.0": ("personalized", bump("lm.0", np.nan), 3),
    "personalized inf in lu.1": ("personalized", bump("lu.1", np.inf, at=(1, 0)), 3),
    "personalized products overflow": ("personalized", set_entries(1e200, "lm.0", "lu.0"), 4),
}


def payload_offsets(blob: bytes) -> set[int]:
    """The offsets of a checkpoint's tensor data bytes, read from the
    container layout: magic, version, header, count, then per tensor its
    name, rows and cols ahead of its data."""
    pos = 10 + struct.unpack_from("<I", blob, 6)[0]  # past magic, version, hlen, header
    count = struct.unpack_from("<I", blob, pos)[0]
    pos += 4
    offsets = set()
    for _ in range(count):
        pos += 2 + struct.unpack_from("<H", blob, pos)[0]  # nlen and the name
        rows, cols = struct.unpack_from("<II", blob, pos)
        pos += 8
        offsets.update(range(pos, pos + 8 * rows * cols))
        pos += 8 * rows * cols
    assert pos == len(blob)
    return offsets


class TestExitCodes:
    @pytest.mark.parametrize("case", list(EDITED_ARTIFACTS))
    def test_edited_artifact_is_refused(self, cli_run, tmp_path, capsys, case):
        kind, edit, code = EDITED_ARTIFACTS[case]
        header, tensors = load_checkpoint(cli_run[ARTIFACT[kind]])
        edit(header, tensors)
        bad = tmp_path / "bad.bin"
        if code == 4:
            # written through save_layers, which records the edited tensors'
            # checksums, so that only merge's verification can refuse it
            families = KINDS[kind][0]
            save_layers(bad, kind, header, {f: [tensors[f"{f}.{li}"] for li in range(
                len(tensors) // len(families))] for f in families})
        else:
            save_checkpoint(bad, header, tensors)
        with warnings.catch_warnings():  # an overflow is an error, not a warning
            warnings.simplefilter("error", RuntimeWarning)
            assert main(reads(kind, cli_run, bad, tmp_path / "o")) == code
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {3: "io", 4: "numeric"}[code]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["base", "stage1", "personalized"])
    @settings(derandomize=True, deadline=None, database=None, max_examples=40,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_checkpoint_bytes_exit_cleanly(self, cli_run, tmp_path, kind, data):
        # flipped, cut and inserted bytes in a CLI-written checkpoint end in a
        # documented exit code, with a JSON error when the run fails, and
        # changed tensor data in exit 3
        original = cli_run[ARTIFACT[kind]].read_bytes()
        blob = bytearray(original)
        for how, byte in data.draw(st.lists(st.tuples(
                st.sampled_from(["flip", "truncate", "insert"]), st.integers(1, 255)),
                min_size=1, max_size=3)):
            at = data.draw(st.integers(0, len(blob)))
            if how == "flip" and at < len(blob):
                blob[at] ^= byte
            elif how == "truncate":
                del blob[at:]
            else:
                blob[at:at] = bytes([byte])
        bad = tmp_path / "mutated.bin"
        bad.write_bytes(bytes(blob))
        rc, stderr = run_main(reads(kind, cli_run, bad, tmp_path / "o"))
        assert_contract(rc, stderr)
        if len(blob) == len(original) and any(blob[i] != original[i]
                                               for i in payload_offsets(original)):
            assert rc == 3
        if rc == 0:  # then the run read the CLI-written tensors, bit for bit
            assert {k: v.tobytes() for k, v in load_checkpoint(bad)[1].items()} == \
                {k: v.tobytes() for k, v in load_checkpoint(cli_run[ARTIFACT[kind]])[1].items()}

    def test_config_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nope = 1\n")
        rc = main(["pretrain", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    @pytest.mark.parametrize("line", ["heldout_identities = 6", "heldout_identities = 0",
                                      "target_identity = 6", "target_identity = -2",
                                      "batch_size = 0", "n_prompts = 0",
                                      "samples_per_identity = -1", "timesteps = -1",
                                      "timesteps = 0", "identities_per_bucket = 0",
                                      "r1 = 0", "r2 = 0", "r2 = 5", "r1 = 9",
                                      "warm_up_fraction = 2.0", "warm_up_fraction = -1",
                                      "lr = nan", "stage2_lr = inf", "speed_seeds = 2"])
    def test_config_out_of_range_is_2(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(small_cfg_with(line))
        rc = main(["pretrain", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    # a later setting of a key silently replaced the first, and the run went on
    @pytest.mark.parametrize("first, second", [("seed = 1", "seed = 2"),
                                               ("single_prototype = true",
                                                "single_prototype = false")],
                             ids=["int", "bool"])
    def test_repeated_config_key_is_2(self, tmp_path, first, second):
        cfg, out = tmp_path / "twice.cfg", tmp_path / "o"
        lines = [first, *SMALL_CFG.splitlines(), second]
        cfg.write_text("\n".join(lines) + "\n")
        rc, stderr = run_main(["pretrain", "--config", cfg, "--out", out])
        assert rc == 2 and len(stderr.splitlines()) == 1, stderr
        key = first.partition(" =")[0]
        assert json.loads(stderr) == {"error": "config", "message": f"{cfg}:{len(lines)}: "
                                      f"key {key!r} repeats line 1"}
        assert not out.exists()

    # math.isfinite cannot take an int beyond float range: it ended in an
    # OverflowError traceback
    @pytest.mark.parametrize("where", ["config file", "--seed"])
    def test_int_beyond_float_range_is_2(self, tmp_path, capsys, where):
        cfg = tmp_path / "big.cfg"
        cfg.write_text(small_cfg_with(f"n_identities = {10**400}") if where == "config file"
                       else SMALL_CFG)
        args = ["pretrain", "--config", str(cfg), "--out", str(tmp_path / "o")]
        assert main(args + (["--seed", str(10**400)] if where == "--seed" else [])) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "is not a finite number" in err["message"]
        assert not (tmp_path / "o").exists()

    def test_every_int_key_but_the_seed_is_bounded(self):
        assert [key for key, (typ, _default, _lo, hi) in cli.CONFIG_SCHEMA.items()
                if typ is int and not callable(hi) and hi > cli.MAX_SIZE] == ["seed"]

    # 10**20 as timesteps or latent_dim passed parse_config and ended in
    # numpy's "Maximum allowed size exceeded" traceback
    @pytest.mark.parametrize("key", [key for key, spec in cli.CONFIG_SCHEMA.items()
                                     if spec[3] == cli.MAX_SIZE])
    def test_size_beyond_its_bound_is_2(self, tmp_path, capsys, monkeypatch, key):
        def built(*args, **kwargs):
            raise AssertionError("an array was built from the config")

        # the first of the pipeline's arrays
        monkeypatch.setattr(toymodel, "linear_schedule", built)
        monkeypatch.setattr(toymodel, "make_dataset", built)
        cfg = tmp_path / "big.cfg"
        cfg.write_text(small_cfg_with(f"{key} = {10**20}"))
        assert main(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "config", "message": f"{key} = {10**20} is not a finite "
                       f"number in [{cli.CONFIG_SCHEMA[key][2]}, {cli.MAX_SIZE}]"}
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("face", ["1,2", "1,2,3,x"])
    def test_malformed_face_is_2(self, capsys, face):
        rc = main(["augment-plan", "--image-w", "1024", "--image-h", "1024",
                   "--face", face])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    @pytest.mark.parametrize("face", ["90,90,50,50", "10,10,0,5"])
    def test_face_outside_image_is_2(self, capsys, face):
        rc = main(["augment-plan", "--image-w", "100", "--image-h", "100",
                   "--face", face])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    # 2**31 pixels is the first side refused; from about 1e30 pixels the
    # plan's search for the largest fitting crop never ended, and 1e400
    # overflowed a float
    @pytest.mark.parametrize("side", [2**31, 10**400], ids=["2**31", "10**400"])
    def test_image_too_large_is_2(self, capsys, side):
        rc = main(["augment-plan", "--image-w", str(side), "--image-h", "100",
                   "--face", "0,0,1,1"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["pretrain"], ["merge", "--checkpoint"],
        ["augment-plan", "--image-w", "x", "--image-h", "1", "--face", "0,0,1,1"],
        ["evaluate", "--embedder-seed", "-1"]],
        ids=["no command", "unknown command", "missing --out", "missing value", "bad int",
             "negative embedder seed"])
    def test_argument_error_is_2(self, tmp_path, capsys, argv):
        if argv[-1:] == ["-1"]:
            argv = [*argv, *evaluate_inputs(tmp_path), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not (tmp_path / "o").exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["merge", "--help"])
        assert exc.value.code == 0
        assert "--verify" in capsys.readouterr().out

    # sizes whose first array is larger than any address space: the
    # allocation fails at once on every machine. The schema refuses such
    # sizes at parse time, so the test lifts the key's bound to reach the
    # allocation, as a size inside the bound can on a machine with less memory
    @pytest.mark.parametrize("line", ["n_prompts = 10000000000000",
                                      "latent_dim = 10000000000000"])
    @pytest.mark.parametrize("command", ["pretrain", "metatrain"])
    def test_config_too_large_to_allocate_is_2(self, cli_run, tmp_path, capsys, monkeypatch,
                                               command, line):
        key = line.partition(" =")[0]
        monkeypatch.setitem(cli.CONFIG_SCHEMA, key, (*cli.CONFIG_SCHEMA[key][:3], math.inf))
        big = tmp_path / "big.cfg"
        big.write_text(small_cfg_with(line))
        args = [command, "--config", str(big), "--out", str(tmp_path / "o")]
        if command == "metatrain":
            args += ["--checkpoint", str(cli_run[2])]
        assert main(args) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "Unable to allocate" in err["message"]
        assert not (tmp_path / "o").exists()

    def test_io_error_is_3(self, tmp_path, capsys):
        rc = main(["metatrain", "--checkpoint", str(tmp_path / "missing.bin"),
                   "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_corrupt_checkpoint_is_3(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"XXXX junk")
        rc = main(["merge", "--checkpoint", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 3

    @pytest.mark.parametrize("case", ["list header", "no lm.0", "no lu.1", "no lmd.1",
                                      "lm.0 does not chain", "extra lmd.%", "extra lmd.x",
                                      "extra lmd.", "extra lmd.0.1", "extra lm.01",
                                      "extra w0.0"])
    def test_malformed_checkpoint_is_3(self, tmp_path, capsys, case):
        bad = tmp_path / "bad.bin"
        if case == "list header":
            header_only_checkpoint(bad, b"[]")
        else:
            tensors = {f"{kind}.{li}": np.zeros(shape) for li in range(2)
                       for kind, shape in (("lmd", (2, 3)), ("lm", (1, 2)),
                                           ("lu", (3, 1)))}
            what, name = case.split(maxsplit=1)
            if case == "lm.0 does not chain":
                tensors["lm.0"] = np.zeros((1, 5))
            elif what == "extra":
                tensors[name] = np.zeros((2, 3))
            else:
                del tensors[name]
            # names that save_layers mostly cannot write, with the checksums it records
            save_checkpoint(bad, {"kind": "personalized", "r1": 2, "r2": 1, "identity": 0,
                                  "checksums": {n: checksum(a) for n, a in tensors.items()}},
                            tensors)
        rc = main(["merge", "--checkpoint", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "io"
        assert {"list header": "not an object", "lm.0 does not chain": "has shape (1, 5)"
                }.get(case, "are not lmd.N, lm.N, lu.N") in err["message"]
        assert not (tmp_path / "o").exists()

    def test_merge_of_duplicate_tensor_is_3(self, tmp_path, capsys):
        dup = tmp_path / "dup.bin"
        save_checkpoint(dup, {"kind": "personalized", "r1": 2, "r2": 1},
                        {"lmd.0": np.zeros((2, 3)), "lm.0": np.zeros((1, 2)),
                         "lu.0": np.zeros((3, 1)), "lm.1": np.ones((1, 2))})
        dup.write_bytes(dup.read_bytes().replace(b"lm.1", b"lm.0"))
        rc = main(["merge", "--checkpoint", str(dup), "--out", str(tmp_path / "o")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "io" and "duplicate tensor name 'lm.0'" in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["metatrain", "personalize", "speed-experiment"])
    def test_base_checkpoint_without_a_layer_is_3(self, tmp_path, capsys, command):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CFG)
        base = tmp_path / "base.bin"
        save_layers(base, "base", {}, {"w0": [np.zeros((16, 8 + 8 + 2))]})
        args = [command, "--config", str(cfg), "--checkpoint", str(base),
                "--out", str(tmp_path / "o")]
        if command != "metatrain":
            args += ["--stage1", str(tmp_path / "stage1.bin")]
        assert main(args) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "io" and "w0 shapes [(16, 18)] do not match" in err["message"]

    @pytest.mark.parametrize("r1, cfg_r1", [("4", 4), (True, 1), (4.0, 4), (None, 4)])
    def test_stage1_rank_of_the_wrong_type_is_3(self, cli_run, tmp_path, capsys, r1, cfg_r1):
        base = cli_run[2]
        cfg = tmp_path / "r1.cfg"
        cfg.write_text(SMALL_CFG.replace("r1 = 4", f"r1 = {cfg_r1}"))
        s1 = tmp_path / "stage1.bin"
        save_layers(s1, "stage1", {"r1": r1},
                    {"lmd": [np.zeros((cfg_r1, 18)), np.zeros((cfg_r1, 16))]})
        rc = main(["personalize", "--config", str(cfg), "--checkpoint", str(base),
                   "--stage1", str(s1), "--out", str(tmp_path / "o")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "io"
        assert f"r1 is {r1!r} of type {type(r1).__name__}, not an int" in err["message"]

    @pytest.mark.parametrize("manifest", ["{}", '{"identities": [1]}', "not json", "[]",
                                          '{"identities": [{"id": 1, "reference": [1, NaN], '
                                          '"tests": [[1, 2]]}], "prompts": ["p"]}',
                                          '{"identities": [{"id": 1, "reference": [1, 2], '
                                          '"tests": [[1, -Infinity]]}], "prompts": ["p"]}',
                                          '{"identities": [], "prompts": ["p"]}',
                                          '{"identities": [{"id": 1, "reference": "x", '
                                          '"tests": [[1]]}], "prompts": ["p"]}',
                                          '{"identities": [{"id": 1, "reference": [1, 2, 3], '
                                          '"tests": [[1, 2]]}], "prompts": ["p"]}',
                                          '{"identities": [{"id": 1, "reference": [], '
                                          '"tests": [[]]}], "prompts": ["p"]}',
                                          '{"identities": [{"id": 1, "reference": [1, 2], '
                                          '"tests": [[1, 2]]}], "prompts": [1, "x"]}',
                                          '{"identities": [{"id": 1, "reference": [1, 2], '
                                          '"tests": [[1, 2]]}], "prompts": [{"k": 1}]}',
                                          '{"identities": [{"id": "a", "reference": [1, 2], '
                                          '"tests": [[1, 2]]}, {"id": "a", "reference": '
                                          '[2, 1], "tests": [[2, 1]]}], "prompts": ["p"]}',
                                          '{"identities": [{"id": 1, "reference": [1, 2], '
                                          '"tests": [[1, 2]]}, {"id": "1", "reference": '
                                          '[2, 1], "tests": [[2, 1]]}], "prompts": ["p"]}',
                                          '{"identities": [{"id": "a", "reference": [1, 2], '
                                          '"tests": [[1, 2]]}, {"id": "b", "reference": '
                                          '[2, 1], "tests": [[2, 1]]}], "prompts": ["p", "p"]}'])
    def test_malformed_manifest_is_3(self, tmp_path, capsys, manifest):
        man = tmp_path / "man.json"
        man.write_text(manifest)
        gen = tmp_path / "gen.jsonl"
        gen.write_text("")
        rc = main(["evaluate", "--manifest", str(man), "--generated", str(gen),
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["error"] == "io"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("generated, message", [
        ("not json\n", "JSONDecodeError"),
        ('{"id": "a||p"}\n', "KeyError: 'vector'"),
        ('{"id": "a||p", "vector": [1.0, 2.0]}\n', "(2,) is not a row of 3 finite numbers")],
        ids=["not_json_lines", "no_vector", "wrong_length"])
    def test_malformed_embeddings_file_is_3(self, tmp_path, capsys, generated, message):
        man = tmp_path / "man.json"
        man.write_text(json.dumps({"identities": [{"id": "a", "reference": [1.0, 0.0, 0.0],
                                                   "tests": [[0.0, 1.0, 0.0]]}],
                                   "prompts": ["p"]}))
        gen = tmp_path / "gen.jsonl"
        gen.write_text('{"id": "a||q", "vector": [1.0, 2.0, 3.0]}\n\n' + generated)
        rc = main(["evaluate", "--manifest", str(man), "--generated", str(gen),
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "io"
        assert "gen.jsonl:3: not an embedding record" in err["message"]
        assert message in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("records, message", [
        ([("a||p", [1.0, 2.0, 3.0]), ("a||p", [-1.0, -2.0, -3.0])],
         "gen.jsonl:2: not an embedding record (ValueError: id 'a||p' repeats line 1)"),
        ([("a||p", [1.0, 2.0, 3.0]), (1, [1.0, 0.0, 0.0]), ("1", [0.0, 1.0, 0.0])],
         "gen.jsonl:3: not an embedding record (ValueError: id '1' repeats line 2)")],
        ids=["same_id", "int_and_str_id"])
    def test_repeated_generated_id_is_3(self, tmp_path, capsys, records, message):
        # a later record of an id must not silently replace the first: the
        # negated repeat of the reference alone would score FaceSim -100
        man, gen, out = tmp_path / "man.json", tmp_path / "gen.jsonl", tmp_path / "o"
        man.write_text(json.dumps({"identities": [{"id": "a", "reference": [1.0, 2.0, 3.0],
                                                   "tests": [[3.0, 1.0, 2.0]]}],
                                   "prompts": ["p"]}))
        gen.write_text("".join(json.dumps({"id": i, "vector": v}) + "\n"
                               for i, v in records))
        assert main(["evaluate", "--manifest", str(man), "--generated", str(gen),
                     "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "io" and message in err["message"]
        assert not out.exists()

    def test_zero_facesim_is_4(self, tmp_path, capsys):
        # p generates the reference r and q generates -r: the conventional
        # cosines are c and -c, FaceSim is 0 and the relative difference has
        # no value
        r = [1.0, 2.0, 3.0]
        man, gen, out = tmp_path / "man.json", tmp_path / "gen.jsonl", tmp_path / "o"
        man.write_text(json.dumps({"identities": [{"id": "a", "reference": r,
                                                   "tests": [[3.0, 1.0, 2.0]]}],
                                   "prompts": ["p", "q"]}))
        gen.write_text("".join(json.dumps({"id": f"a||{p}", "vector": v}) + "\n"
                               for p, v in (("p", r), ("q", [-x for x in r]))))
        assert main(["evaluate", "--manifest", str(man), "--generated", str(gen),
                     "--out", str(out)]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numeric" and "facesim is zero" in err["message"]
        assert not out.exists()

    # each trainer refuses the non-finite values itself: numpy's overflow
    # warnings must neither precede its one JSON error nor, as errors, replace it
    @pytest.mark.parametrize("command, line", [("pretrain", "pretrain_lr = 1e300"),
                                               ("metatrain", "weight_decay = 1e6"),
                                               ("personalize", "stage2_lr = 1e300")])
    def test_overflow_in_training_is_4(self, cli_run, tmp_path, command, line):
        root, cfg, base, s1, pers, merged = cli_run
        bad, out = tmp_path / "bad.cfg", tmp_path / "o"
        bad.write_text(small_cfg_with(line))
        args = [command, "--config", bad, "--out", out]
        if command != "pretrain":
            args += ["--checkpoint", base] + (["--stage1", s1] if command == "personalize" else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, stderr = run_main(args)
        assert rc == 4 and len(stderr.splitlines()) == 1, stderr
        err = json.loads(stderr)
        assert err["error"] == "numeric" and "non-finite" in err["message"]
        assert not out.exists()

    def test_merge_of_empty_checkpoint_is_3(self, tmp_path, capsys):
        empty = tmp_path / "empty.bin"
        save_layers(empty, "personalized", {"r1": 2, "r2": 1, "identity": 0},
                    {"lmd": [], "lm": [], "lu": []})
        rc = main(["merge", "--checkpoint", str(empty), "--out", str(tmp_path / "o"),
                   "--verify"])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "io" and "no adapter layers" in err["message"]
        assert not (tmp_path / "o").exists()

    def test_rank_mismatch_is_3(self, cli_run, tmp_path):
        root, cfg, base, s1, pers, merged = cli_run
        other = tmp_path / "other.cfg"
        other.write_text(SMALL_CFG.replace("r1 = 4", "r1 = 3"))
        rc = main(["personalize", "--config", str(other), "--checkpoint", str(base),
                   "--stage1", str(s1), "--out", str(tmp_path / "o")])
        assert rc == 3


# what a fuzzed input may put in place of one vector or one entry of it: a zero
# vector, a non-finite or huge float, or an int too large for a float
FAULTS = [None, "zero vector", math.nan, math.inf, -math.inf, 1e300, 10**400]
FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=60,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestFuzzedCliInputs:
    @FUZZ
    @given(data=st.data())
    def test_config_files(self, tmp_path, data):
        # settings of known keys, each a small value of its type, and at most
        # one fault: a known or unknown key with an int up to and beyond float
        # range, a float (nan and inf too), a boolean or free text, or a free
        # line of text or bytes. parse_config returns values inside
        # CONFIG_SCHEMA's bounds or refuses the file, and pretrain refuses it
        # with exit 2 and one JSON error. An accepted file is never run, which
        # would train
        small = {int: st.integers(-1, 40), float: st.floats(0, 1), bool: st.booleans()}
        setting = st.sampled_from(list(cli.CONFIG_SCHEMA)).flatmap(
            lambda k: small[cli.CONFIG_SCHEMA[k][0]].map(lambda v: f"{k} = {v}"))
        lines = [line.encode() for line in data.draw(st.lists(setting, max_size=4))]
        fault = data.draw(st.one_of(
            st.none(),
            st.tuples(st.sampled_from([*cli.CONFIG_SCHEMA, "no_such_key", ""]),
                      st.one_of(st.integers(-2**1100, 2**1100), st.floats(), st.booleans(),
                                st.text(max_size=6),
                                st.sampled_from([2**1024, -2**1024, 10**400])))
            .map(lambda kv: f"{kv[0]} = {kv[1]}".encode()),
            st.text(max_size=8).map(str.encode), st.binary(max_size=8)))
        if fault is not None:
            lines.insert(data.draw(st.integers(0, len(lines))), fault)
        path = tmp_path / "fuzz.cfg"
        path.write_bytes(b"\n".join(lines))
        try:
            values = parse_config(str(path))
        except ConfigError:
            out = tmp_path / "o"
            rc, stderr = run_main(["pretrain", "--config", path, "--out", out])
            assert rc == 2 and json.loads(stderr)["error"] == "config"
            assert not out.exists()
            return
        for key, (typ, _default, lo, hi) in cli.CONFIG_SCHEMA.items():
            lo, hi = (bound(values) if callable(bound) else bound for bound in (lo, hi))
            assert type(values[key]) is typ and lo <= values[key] <= hi, key
            assert math.isfinite(values[key]), key

    @FUZZ
    @given(data=st.data())
    def test_evaluate_inputs(self, tmp_path, data):
        # manifests and generated files with sign-flipped generations and at
        # most one fault, and embedder seeds of any sign and size
        dim = data.draw(st.integers(1, 3))
        nonzero = st.one_of(st.floats(-3, -0.5), st.floats(0.5, 3))  # zeros are a fault
        vector = st.lists(nonzero, min_size=dim, max_size=dim)
        ids = data.draw(st.lists(st.fixed_dictionaries(
            {"id": st.sampled_from("ab"), "reference": vector,
             "tests": st.lists(vector, min_size=1, max_size=2)}), min_size=1, max_size=2))
        generated = []
        for entry in ids:
            for prompt in ("p", "q"):
                how = data.draw(st.sampled_from(["reference", "flipped", "drawn", "missing"]))
                vec = {"reference": entry["reference"], "drawn": data.draw(vector),
                       "flipped": [-x for x in entry["reference"]]}.get(how)
                if vec is not None:
                    generated.append({"id": f"{entry['id']}||{prompt}", "vector": vec})
        vectors = [v for e in ids for v in (e["reference"], *e["tests"])] + \
            [g["vector"] for g in generated]
        fault = data.draw(st.sampled_from(FAULTS))
        if fault is not None:
            target = vectors[data.draw(st.integers(0, len(vectors) - 1))]
            target[:] = [0.0] * dim if fault == "zero vector" else [fault] * dim
        seed = data.draw(st.one_of(st.integers(0, 2**65), st.integers(-2**65, 2**200)))
        man, gen, out = tmp_path / "man.json", tmp_path / "gen.jsonl", tmp_path / "r.json"
        man.write_text(json.dumps({"identities": ids, "prompts": ["p", "q"]}))
        gen.write_text("".join(json.dumps(g) + "\n" for g in generated))
        out.unlink(missing_ok=True)
        rc, stderr = run_main(["evaluate", "--manifest", man, "--generated", gen,
                               "--embedder-seed", seed, "--out", out])
        assert_contract(rc, stderr)
        assert out.exists() == (rc == 0)
        if rc == 0:  # a report in RFC 8259 JSON, which has no NaN or Infinity
            json.loads(out.read_text(), parse_constant=pytest.fail)

    @FUZZ
    @given(data=st.data())
    def test_argv_tokens(self, cli_run, tmp_path, monkeypatch, data):
        # a working augment-plan, evaluate or merge argv with up to three
        # tokens replaced, deleted or inserted: flags, ints, text, face boxes
        # and paths to good and bad inputs
        inputs = tmp_path / "inputs"
        inputs.mkdir(exist_ok=True)
        pers, s1 = inputs / "pers.bin", inputs / "stage1.bin"
        pers.write_bytes(cli_run[4].read_bytes())
        s1.write_bytes(cli_run[3].read_bytes())
        works = {"augment-plan": ["--image-w", "1024", "--image-h", "768",
                                  "--face", "384,384,256,256", "--out", "plan.jsonl"],
                 "evaluate": [*evaluate_inputs(inputs), "--out", "report.json"],
                 "merge": ["--checkpoint", str(pers), "--out", "merged.bin", "--verify"]}
        monkeypatch.chdir(tmp_path)  # where the relative outputs go
        flags = ["--image-w", "--image-h", "--face", "--out", "--manifest", "--generated",
                 "--embedder-seed", "--checkpoint", "--verify", "--bogus"]
        paths = [*works["evaluate"][1:4:2], str(pers), str(s1), str(inputs),
                 str(inputs / "missing")]
        token = st.one_of(st.sampled_from(flags), st.sampled_from(paths),
                          st.integers(-2**40, 2**40).map(str), st.just(str(10**40)),
                          st.text(max_size=4),
                          st.lists(st.integers(-5, 3000), min_size=1, max_size=5)
                          .map(lambda v: ",".join(map(str, v))))
        command = data.draw(st.sampled_from(list(works)))
        argv = list(works[command])
        for _ in range(data.draw(st.integers(0, 3))):
            at = data.draw(st.integers(0, len(argv)))
            how = data.draw(st.sampled_from(["replace", "delete", "insert"]))
            if how == "insert" or at == len(argv):
                argv.insert(at, data.draw(token))
            elif how == "replace":
                argv[at] = data.draw(token)
            else:
                del argv[at]
        assert_contract(*run_main([command, *argv]))
