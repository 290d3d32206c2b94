"""The seed-0 default chain's bytes, pinned by sha256.

pretrain -> metatrain -> personalize -> merge --verify -> speed-experiment
runs on the default config, in process through ``cli.main``, in a temporary
directory with relative paths (merge records its source path). The table
holds for one platform: a numpy version and an OpenBLAS core, the kernel set
OpenBLAS picks for the CPU. There all 15 files must keep their bytes. On
another core the trained tensors may differ in their last bits (README,
"Determinism"), so there only the files that hold no trained float are
compared. The test id and every message name the contract checked.

A change that moves a default artifact on purpose updates the table.
"""

import ctypes
import hashlib

import numpy as np
import pytest

from metalora.cli import main

# the platform the table was recorded on: (numpy version, OpenBLAS core)
RECORDED = ("2.4.6", "SkylakeX")

SHA256 = {
    "base.bin": "484c72550ce0974f77053d984dc0f279de86eafa8f318e42de4e3ac0a0535234",
    "base.bin.trace.json": "dfae27c3cff079760f71aa4ace8fcf2013e85a30d3805e951a6b83890b434a02",
    "stage1.bin": "f69c4b3e5282d5005221ae25cd74cc3572b31c39419af784f15152d793273dda",
    "stage1.bin.loss.svg": "1893df4a063400f0f0edb41a4031699e0285793de73ca5a6859bdd7defe69d75",
    "stage1.bin.trace.csv": "acadc9c16bd8f9745762e099237e712796d0b417e84e900a4475ac78a4ddbde3",
    "stage1.bin.trace.json": "eae6b972cb284d4347fcf30729645ea1ffb29066bde9f17b58d3dcba8e388b85",
    "stage1.bin.trace.jsonl": "a87dc4b6c9bcfc1cdcb2b2f8875d0da0df5bc0e3b3bd1526bc945c7c88423da4",
    "pers.bin": "bbde75b28eff87f6879299fc3439710063778aee56c0ccb2484cb308b80e43d0",
    "pers.bin.loss.svg": "354e14463684b2118f54a3f6369c26aace72a38106a7032c5742ea4b19e53cb3",
    "pers.bin.trace.json": "3789c5fd665b224aa5097dae191a59fcb76128b6893796d9c938eda2a3119f32",
    "merged.bin": "fb6f6a8a7348ecc07abfa02c02548b154c477e597967b3e27b7bb37fbe5d928f",
    "merged.bin.trace.json": "57f5a62804e7e13b5171c6f6db301472f5e608d4e97c1492ea9eb9bad224f768",
    "speed.json": "39a15d86c35e119c2f19fcbe2b8573a1a5280167f8d78d137fd7497a8eae2097",
    "speed.json.csv": "ae6920f8d2bc426220e284380d3642e72c04144ba602f7b5079a056883918af4",
    "speed.json.trace.json": "afada3514188f2645e07b47f1a1a5141e2a83a6d6388584f159a7c45958a4d11",
}

# the files that hold no trained float: configs, hashes, iteration counts
UNTRAINED = ["base.bin.trace.json", "stage1.bin.trace.json", "speed.json",
             "speed.json.csv", "speed.json.trace.json"]

CHAIN = [
    ["pretrain", "--out", "base.bin"],
    ["metatrain", "--checkpoint", "base.bin", "--out", "stage1.bin"],
    ["personalize", "--checkpoint", "base.bin", "--stage1", "stage1.bin", "--out", "pers.bin"],
    ["merge", "--checkpoint", "pers.bin", "--out", "merged.bin", "--verify"],
    ["speed-experiment", "--checkpoint", "base.bin", "--stage1", "stage1.bin",
     "--out", "speed.json"],
]


def openblas_query(suffix: str, restype):
    """What the no-argument OpenBLAS function ``openblas_<suffix>`` returns,
    called through ctypes in the library numpy loaded into this process (as
    ``scipy_openblas_<suffix>64_`` in numpy's own build); ``None`` without one."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in (f"scipy_openblas_{suffix}64_", f"openblas_{suffix}"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], restype
                return fn()
    return None


def openblas_core() -> str | None:
    """The core of the OpenBLAS that numpy loaded; ``None`` without one."""
    core = openblas_query("get_corename", ctypes.c_char_p)
    return None if core is None else core.decode()


PLATFORM = (np.__version__, openblas_core())
if PLATFORM == RECORDED:
    CONTRACT, CHECKED = "byte-exact-all-files", list(SHA256)
else:
    CONTRACT, CHECKED = "untrained-files-only", UNTRAINED


@pytest.mark.parametrize("contract", [CONTRACT])
def test_default_chain_sha256(contract, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in CHAIN:
        assert main(argv) == 0, argv
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(SHA256)
    moved = [name for name in CHECKED
             if hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() != SHA256[name]]
    assert not moved, (f"{contract} ({len(CHECKED)} files compared on numpy {PLATFORM[0]}, "
                       f"OpenBLAS core {PLATFORM[1]}; the table's platform is {RECORDED}): "
                       f"{moved} changed their sha256")
