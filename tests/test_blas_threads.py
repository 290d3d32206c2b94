"""The BLAS thread count changes no byte of any artifact.

numerics' docstring promises byte-identical artifacts for the same seed,
config, numpy build and BLAS core, whatever the BLAS thread count. Here the
small chain (pretrain -> metatrain -> personalize -> merge --verify ->
speed-experiment on test_checkpoint_cli's SMALL_CFG) runs in two child
processes, one with ``OPENBLAS_NUM_THREADS=1`` and one with ``=2``, set for
those children only, and every file either writes is compared byte for byte.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import metalora
from test_checkpoint_cli import SMALL_CFG
from test_default_chain import CHAIN

# runs the chain given as JSON in the cwd, then prints OpenBLAS's thread count
CHILD = """
import ctypes, json, sys
from metalora.cli import main
from test_default_chain import openblas_query
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"{argv} failed")
print(openblas_query("get_num_threads", ctypes.c_int))
"""


def run_chain(where: Path, threads: int) -> dict[str, bytes]:
    where.mkdir()
    (where / "small.cfg").write_text(SMALL_CFG)
    chain = [argv + ([] if argv[0] == "merge" else ["--config", "small.cfg"])
             for argv in CHAIN]
    paths = [str(Path(metalora.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(chain)], cwd=where,
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    reported = done.stdout.splitlines()[-1]
    assert reported in (str(threads), "None"), (threads, reported)
    return {p.name: p.read_bytes() for p in sorted(where.iterdir())}


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="OpenBLAS runs one thread on one CPU, whatever it is asked")
def test_thread_count_changes_no_byte(tmp_path):
    one, two = run_chain(tmp_path / "one", 1), run_chain(tmp_path / "two", 2)
    assert sorted(one) == sorted(two)
    assert len(one) == 16  # the config and the 15 files of the chain
    assert [name for name in one if one[name] != two[name]] == []
