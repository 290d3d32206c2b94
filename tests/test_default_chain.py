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
    "base.bin": "21f9cf3004f033d17249323cab822551728e903459dae2b84e24cbf47f64e6e7",
    "base.bin.trace.json": "dfae27c3cff079760f71aa4ace8fcf2013e85a30d3805e951a6b83890b434a02",
    "stage1.bin": "f57e00e2fe43e5139a57c7b5a1b94bb0a827f16f4c1f3fc813cd7a4c37e5519d",
    "stage1.bin.loss.svg": "d17e898577c622a524cc0c840efa0fde06ee6b8845283f0a239ce1669de070bd",
    "stage1.bin.trace.csv": "4f9481803c77fba2ee987b2c9362584b7981e454e5f2ddfe758d16a5fd714599",
    "stage1.bin.trace.json": "eae6b972cb284d4347fcf30729645ea1ffb29066bde9f17b58d3dcba8e388b85",
    "stage1.bin.trace.jsonl": "fee63f883685267c77ad02620590dd43bb6148e1f6c0df56e7e95a23c1873686",
    "pers.bin": "73bfc9500355abe8cc50890fb525d342bb1a063d11e9a1d62b34eedcaf1bcd6f",
    "pers.bin.loss.svg": "3dce97808fff753db432b429668ec051df64d25f3f1dcaa488a8de4aaebccb1c",
    "pers.bin.trace.json": "03cb7eb45b3693fc3232f68b951ab76767d43ed48731c1d50b236959a90138f2",
    "merged.bin": "bc0dae7da56e653c612bfd5ef5d8459842a045abef1b4f676caf6aad09c3600d",
    "merged.bin.trace.json": "1b61703d4f95bfe37d3f13137ab6a62b51dd18af5034b997a5be8fff07c253db",
    "speed.json": "abe97f0f728fe1cb17585aa5b01e02e1ebbcb3dc1a00a85f6a8f573a140bb1ea",
    "speed.json.csv": "b0da82c5ec8daa879ce39f2572e667c9f84f5f495d9759dabb1884af4df3873e",
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
