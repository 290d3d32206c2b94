"""Checkpoint container format and the command-line pipeline."""

import json
import struct

import numpy as np
import pytest

from metalora.checkpoint import (MAGIC, VERSION, config_hash, load_checkpoint,
                                 save_checkpoint)
from metalora.cli import main, parse_config
from metalora.errors import CheckpointError, ConfigError
from metalora.numerics import make_rng


def header_only_checkpoint(path, hdr: bytes):
    """A checkpoint with the given raw header bytes and no tensors."""
    path.write_bytes(MAGIC + struct.pack("<HI", VERSION, len(hdr)) + hdr
                     + struct.pack("<I", 0))


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

    def test_non_2d_tensor_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            save_checkpoint(tmp_path / "x.bin", {}, {"v": np.zeros(3)})

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

    def test_same_seed_twice_byte_identical(self, cli_run):
        root, cfg, base, s1, pers, merged = cli_run
        again = root / "base2.bin"
        assert main(["pretrain", "--config", str(cfg), "--out", str(again)]) == 0
        assert base.read_bytes() == again.read_bytes()
        s1b = root / "stage1b.bin"
        assert main(["metatrain", "--config", str(cfg), "--checkpoint", str(again),
                     "--out", str(s1b)]) == 0
        assert s1.read_bytes() == s1b.read_bytes()

    def test_evaluate_subcommand(self, cli_run, tmp_path):
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
        out = tmp_path / "report.json"
        assert main(["evaluate", "--manifest", str(man), "--generated", str(genf),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert {"r_facesim", "facesim", "relative_difference_pct"} <= report.keys()

    def test_augment_plan_subcommand(self, capsys):
        assert main(["augment-plan", "--image-w", "4000", "--image-h", "3000",
                     "--face", "1000,1000,300,400"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        recs = [json.loads(l) for l in lines]
        assert 1 <= len(recs) <= 25
        assert any(r["w"] == 600 and r["h"] == 600 for r in recs)


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nope = 1\n")
        rc = main(["pretrain", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    @pytest.mark.parametrize("line", ["heldout_identities = 6", "heldout_identities = 0",
                                      "target_identity = 6", "target_identity = -2",
                                      "batch_size = 0"])
    def test_config_out_of_range_is_2(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CFG + line + "\n")
        rc = main(["pretrain", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    @pytest.mark.parametrize("face", ["1,2", "1,2,3,x"])
    def test_malformed_face_is_2(self, capsys, face):
        rc = main(["augment-plan", "--image-w", "1024", "--image-h", "1024",
                   "--face", face])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_io_error_is_3(self, tmp_path, capsys):
        rc = main(["metatrain", "--checkpoint", str(tmp_path / "missing.bin"),
                   "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_corrupt_checkpoint_is_3(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"XXXX junk")
        rc = main(["merge", "--checkpoint", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 3

    @pytest.mark.parametrize("case", ["list header", "no lm.0", "no lu.1"])
    def test_malformed_checkpoint_is_3(self, tmp_path, capsys, case):
        bad = tmp_path / "bad.bin"
        if case == "list header":
            header_only_checkpoint(bad, b"[]")
        else:
            tensors = {f"{kind}.{li}": np.zeros(shape) for li in range(2)
                       for kind, shape in (("lmd", (2, 3)), ("lm", (1, 2)),
                                           ("lu", (3, 1)))}
            del tensors[case.split()[1]]
            save_checkpoint(bad, {"kind": "personalized", "r1": 2, "r2": 1}, tensors)
        rc = main(["merge", "--checkpoint", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["error"] == "io"
        assert not (tmp_path / "o").exists()

    def test_rank_mismatch_is_3(self, cli_run, tmp_path):
        root, cfg, base, s1, pers, merged = cli_run
        other = tmp_path / "other.cfg"
        other.write_text(SMALL_CFG.replace("r1 = 4", "r1 = 3"))
        rc = main(["personalize", "--config", str(other), "--checkpoint", str(base),
                   "--stage1", str(s1), "--out", str(tmp_path / "o")])
        assert rc == 3
