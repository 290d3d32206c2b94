"""The BLAS thread count changes no byte of any artifact, and another BLAS
core moves no trained tensor by more than a stated bound.

numerics' docstring promises byte-identical artifacts for the same seed,
config, numpy build and BLAS core, whatever the BLAS thread count. Here the
small chain (pretrain -> metatrain -> personalize -> merge --verify ->
speed-experiment on test_checkpoint_cli's SMALL_CFG) runs in child
processes, each with its own ``OPENBLAS_NUM_THREADS`` or
``OPENBLAS_CORETYPE``, set for that child only, and the files they write
are compared.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metalora
from metalora.checkpoint import load_checkpoint
from test_checkpoint_cli import SMALL_CFG
from test_default_chain import CHAIN, UNTRAINED

# runs the chain given as JSON in the cwd, then prints OpenBLAS's thread count
# and core as a JSON pair
CHILD = """
import ctypes, json, sys
from metalora.cli import main
from test_default_chain import openblas_core, openblas_query
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"{argv} failed")
print(json.dumps([openblas_query("get_num_threads", ctypes.c_int), openblas_core()]))
"""

# the largest |difference| of any entry of any checkpoint tensor between two
# BLAS cores: 2**-51. Measured against SkylakeX on numpy 2.4.6: at most
# 1.7e-16 for base.bin and stage1.bin, 2.2e-16 for pers.bin and 3.3e-16 for
# merged.bin, under Haswell and under Sandybridge
CORE_BOUND = 2.0 ** -51


def run_chain(where: Path, **env) -> tuple[dict[str, bytes], list]:
    """Every file the chain writes in ``where``, and the child's OpenBLAS
    thread count and core (``None`` if unknown), under the given variables."""
    where.mkdir()
    (where / "small.cfg").write_text(SMALL_CFG)
    chain = [argv + ([] if argv[0] == "merge" else ["--config", "small.cfg"])
             for argv in CHAIN]
    paths = [str(Path(metalora.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(chain)], cwd=where,
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    return {p.name: p.read_bytes() for p in sorted(where.iterdir())}, report


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="OpenBLAS runs one thread on one CPU, whatever it is asked")
def test_thread_count_changes_no_byte(tmp_path):
    one, (n1, _) = run_chain(tmp_path / "one", OPENBLAS_NUM_THREADS="1")
    two, (n2, _) = run_chain(tmp_path / "two", OPENBLAS_NUM_THREADS="2")
    assert (n1, n2) in ((1, 2), (None, None))
    assert sorted(one) == sorted(two)
    assert len(one) == 16  # the config and the 15 files of the chain
    assert [name for name in one if one[name] != two[name]] == []


def test_another_core_moves_no_tensor_beyond_the_bound(tmp_path):
    default, (_, core) = run_chain(tmp_path / "default")
    assert core is not None, "the default child's OpenBLAS core is unknown"
    want = "Sandybridge" if core == "Haswell" else "Haswell"
    other, (_, got) = run_chain(tmp_path / want, OPENBLAS_CORETYPE=want)
    assert got == want, f"OPENBLAS_CORETYPE={want} ran the core {got}"
    assert sorted(default) == sorted(other)
    assert [name for name in UNTRAINED if default[name] != other[name]] == []
    moved = {}
    for name in (n for n in default if n.endswith(".bin")):
        _, a = load_checkpoint(tmp_path / "default" / name)
        _, b = load_checkpoint(tmp_path / want / name)
        assert sorted(a) == sorted(b)
        moved[name] = max(float(np.max(np.abs(a[t] - b[t]), initial=0.0)) for t in a)
    assert len(moved) == 4 and max(moved.values()) <= CORE_BOUND, (core, want, moved)
