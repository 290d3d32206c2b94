"""Mutation sampler: how many small faults in a module does tier-1 notice?

    python tools/mutants.py --modules adapter evaluation checkpoint \
        --sample 40 --seed 0 [--timeout 600] [--workers 2]

A site is one place in ``src/metalora/<module>.py`` where one operator
applies:

- swap ``+``/``-`` and ``*``/``/`` (binary and augmented operators);
- swap ``<``/``<=``, ``>``/``>=``, ``==``/``!=`` and ``in``/``not in``
  (one comparison of a chain);
- swap ``and``/``or``;
- add 1 to a numeric constant (not a bool).

Sites inside an f-string are skipped. The sites of all the named modules are
listed in source order and ``--sample`` of them are drawn with
``random.Random(seed)``. Each mutant gets its own copy of the repository
(``pipeline_bench/`` included, ``.git`` left out) under a temporary
directory, in which only the mutated expression's source text is replaced,
and runs tier-1 with ``-x``:

    PYTHONPATH=src python -m pytest -q -x --continue-on-collection-errors

The run's address space is bounded by :data:`MEMORY_BOUND`. A mutant is
``killed`` if that run fails, ``timeout`` if it runs longer than ``--timeout``
seconds, ``memory`` if it ends in a ``MemoryError`` or by a signal, as C code
that cannot allocate ends (both counted as killed), and ``survived`` if it
passes.
Before any mutant, an unmutated copy must pass. The tool prints one JSON line
per mutant, then one per module with its score: the share of its mutants
killed. It is not part of tier-1 or CI.
"""

from __future__ import annotations

import argparse
import ast
import json
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "metalora"
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
         ast.And: ast.Or, ast.Or: ast.And}
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.egg-info")
# each mutant's tier-1 address space (RLIMIT_AS), in bytes: a clean tier-1 run
# with one BLAS thread peaked at 384 MiB of address space and 278 MiB resident
# (VmPeak and VmHWM; 2-vCPU Xeon, Python 3.11, numpy 2.4.6)
MEMORY_BOUND = 1 << 30
# the test process: it bounds its own address space, then runs pytest
BOUNDED_PYTEST = ("import resource, sys; "
                  f"resource.setrlimit(resource.RLIMIT_AS, ({MEMORY_BOUND}, {MEMORY_BOUND})); "
                  "import pytest; sys.exit(pytest.main(sys.argv[1:]))")


@dataclass(frozen=True)
class Site:
    module: str
    line: int
    col: int
    end_line: int
    end_col: int
    index: int      # which comparison of a chain; 0 otherwise
    before: str     # the node's source form, unmutated
    after: str      # its source form, mutated
    statement: bool  # an augmented assignment, not an expression

    def describe(self) -> dict:
        return {"module": self.module, "line": self.line, "col": self.col,
                "before": self.before, "after": self.after}


def _mutated(node: ast.AST, index: int) -> ast.AST | None:
    """A mutated copy of ``node`` (its ``index``-th comparison for a chain), or
    ``None`` if no operator applies."""
    new = ast.parse(ast.unparse(node)).body[0]  # a detached copy
    new = new.value if isinstance(new, ast.Expr) else new
    if isinstance(new, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(new.op) in SWAPS:
        new.op = SWAPS[type(new.op)]()
    elif isinstance(new, ast.Compare) and type(new.ops[index]) in SWAPS:
        new.ops[index] = SWAPS[type(new.ops[index])]()
    elif isinstance(new, ast.Constant) and type(new.value) in (int, float):
        new.value += 1
    else:
        return None
    return new


def sites_of(module: str) -> list[Site]:
    """Every site of ``src/metalora/<module>.py``, in source order."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    in_fstring = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr)
                  for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if id(node) in in_fstring or not isinstance(
                node, (ast.BinOp, ast.AugAssign, ast.BoolOp, ast.Compare, ast.Constant)):
            continue
        for index in range(len(node.ops) if isinstance(node, ast.Compare) else 1):
            new = _mutated(node, index)
            if new is not None:
                found.append(Site(module, node.lineno, node.col_offset, node.end_lineno,
                                  node.end_col_offset, index, ast.unparse(node),
                                  ast.unparse(new), isinstance(node, ast.AugAssign)))
    return sorted(found, key=lambda s: (s.line, s.col, s.index, s.after))


def mutate_source(source: str, site: Site) -> str:
    """``source`` with the site's span replaced by its mutated form. Offsets are
    UTF-8 byte columns, so the replacement is made on bytes; an expression is
    parenthesized, which keeps its precedence in any context."""
    lines = source.encode().splitlines(keepends=True)
    head = b"".join(lines[:site.line - 1]) + lines[site.line - 1][:site.col]
    tail = lines[site.end_line - 1][site.end_col:] + b"".join(lines[site.end_line:])
    body = site.after if site.statement else f"({site.after})"
    text = (head + body.encode() + tail).decode()
    ast.parse(text)  # a mutant must still compile
    return text


def run_tier1(copy: Path, timeout: float) -> tuple[str, float, str]:
    """The status of tier-1 with ``-x`` in ``copy``, its seconds and the first
    failing test (empty if none)."""
    cmd = [sys.executable, "-c", BOUNDED_PYTEST, "-q", "-x", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", f"--basetemp={copy.parent / 'pytest'}"]
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(copy / "src"), "HOME": str(copy.parent),
           "OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start, ""
    seconds = time.perf_counter() - start
    first = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", done.stdout, re.M)
    if done.returncode == 0:
        status = "survived"
    elif done.returncode < 0 or "MemoryError" in done.stdout + done.stderr:
        status = "memory"
    else:
        status = "killed"
    return status, seconds, (first.group(1) if first else "")


def run_mutant(site: Site | None, timeout: float) -> dict:
    """Tier-1 on a fresh copy of the repository, mutated at ``site`` (or not)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        if site is not None:
            path = copy / "src" / "metalora" / f"{site.module}.py"
            path.write_text(mutate_source(path.read_text(), site))
        status, seconds, first = run_tier1(copy, timeout)
    return {**(site.describe() if site else {"module": None}), "status": status,
            "seconds": round(seconds, 1), "first_failure": first}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog=f"Each mutant's tier-1 run may map at most {MEMORY_BOUND >> 20} MiB of address "
               "space (a clean run peaks at 384 MiB); a run stopped by that bound is "
               "reported as 'memory' and counted as killed, like 'timeout'.")
    p.add_argument("--modules", nargs="+", required=True,
                   help="module names under src/metalora, e.g. adapter evaluation")
    p.add_argument("--sample", type=int, required=True, help="number of sites to draw")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--timeout", type=float, default=600.0, help="seconds per mutant")
    p.add_argument("--workers", type=int, default=2)
    args = p.parse_args(argv)
    if not 1 <= args.workers <= 8:
        p.error("--workers must be between 1 and 8")
    sites = [s for m in args.modules for s in sites_of(m)]
    chosen = sorted(random.Random(args.seed).sample(sites, min(args.sample, len(sites))),
                    key=sites.index)
    for site in chosen:  # a site that does not compile is a fault of this tool
        mutate_source((PACKAGE / f"{site.module}.py").read_text(), site)
    baseline = run_mutant(None, args.timeout)
    if baseline["status"] != "survived":
        print(json.dumps({"error": "unmutated copy fails tier-1", **baseline}))
        return 1
    print(json.dumps({"sites": len(sites), "sampled": len(chosen), "seed": args.seed,
                      "baseline_seconds": baseline["seconds"]}), flush=True)
    results = []
    with ThreadPoolExecutor(args.workers) as pool:
        for result in pool.map(lambda s: run_mutant(s, args.timeout), chosen):
            print(json.dumps(result), flush=True)
            results.append(result)
    for module in args.modules:
        mine = [r for r in results if r["module"] == module]
        killed = sum(r["status"] != "survived" for r in mine)
        print(json.dumps({"module": module, "mutants": len(mine), "killed": killed,
                          "score": round(killed / len(mine), 3) if mine else None}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
