"""Pipeline benchmark for metalora.

    python3 pipeline_bench/run.py --workload cli_pipeline --seed 1 --seconds 10 --trace 0

Runs one workload (or ``all`` of them, each in its own process) from the root
of a source checkout, against the package under ``src/``. With ``--trace 0``
nothing is wrapped and the end-to-end metrics are reported; with
``--trace 1`` the public functions of every module are wrapped and the
per-layer metrics are reported. Metric names and units come from
``BENCHMARK.json``. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a result file
with the machine, every figure and the checks is written under
``pipeline_bench/results/``.
"""

from __future__ import annotations

import os

# one single-threaded process per workload; must precede the numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ["cli_pipeline", "adapt_speed", "personalize_serve"]


def machine_facts() -> dict:
    import numpy as np

    facts = {"nproc": os.cpu_count(),
             "affinity_cpus": len(os.sched_getaffinity(0)),
             "machine": platform.machine(),
             "python": platform.python_version(),
             "numpy": np.__version__,
             "openblas": None, "blas_threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            try:
                get_config = getattr(lib, f"{prefix}_get_config{suffix}")
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            get_config.restype = ctypes.c_char_p
            get_threads.restype = ctypes.c_int
            facts["openblas"] = get_config().decode()
            facts["blas_threads"] = get_threads()
    return facts


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def per_layer_values(tracer, spec: dict, setup_reps: int, rounds: int) -> dict[str, float]:
    """Per-layer figures per unit of work, so that a faster program, which
    fits more rounds in the window, does not read as more calls: a name
    ``setup.<layer>.<key>`` is per set-up repetition, any other name per
    round of the measured phase. The benchmark's own checks are not counted."""
    values = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        phase, units = ("setup", setup_reps) if name.startswith("setup.") else ("measure", rounds)
        layer, _, key = name.removeprefix("setup.").rpartition(".")
        entry = tracer.stats.get(phase, {}).get(layer, {})
        if key == "cols_per_call":
            values[name] = entry.get("cols", 0.0) / max(entry.get("calls", 0.0), 1.0)
        else:
            values[name] = entry.get(key, 0.0) / units
    return values


def run_one(args, spec: dict) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import metalora

    if Path(metalora.__file__).resolve().parent != (ROOT / "src" / "metalora").resolve():
        print(f"metalora was imported from {metalora.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads
    from reference import ReferenceClock

    machine = machine_facts()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    work = results_dir / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    t0 = time.perf_counter()
    clock = ReferenceClock()
    # no timer in traced runs: its ticks would be charged to the wrapped call
    # they interrupt, and the reference-unit metrics are not reported there
    clock.start(ticking=not args.trace)
    try:
        ctx = workloads.Context(seed=args.seed, seconds=args.seconds, tracer=tracer,
                                work=work, clock=clock)
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        clock.stop()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    wall = time.perf_counter() - t0
    outcome.extra["ref_unit_ms"] = 1e3 * statistics.median(clock.measures)

    if tracer is None:
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = outcome.metrics
    else:
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer_values(tracer, spec, workloads.SETUP_REPS, outcome.rounds)
    missing = sorted(set(wanted) - set(values)) if not outcome.errors else []
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in wanted.items() if name in values}
    result = {"correct": not outcome.errors, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "wall_s": wall, "machine": machine,
              "rounds": outcome.rounds,
              "result": result, "end_to_end": outcome.metrics, "extra": outcome.extra,
              "errors": outcome.errors}
    if tracer is not None:
        record["layers_by_phase"] = tracer.stats
    out_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=float)

    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"wall {wall:.1f} s, result file {out_path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name:<44}{m['value']:>16.6g} {m['unit']}")
    ungated = {k: v for k, v in outcome.metrics.items() if k not in metrics}
    for name, value in {**ungated, **outcome.extra}.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            print(f"  {name:<44}{value:>16.6g}")
    for err in outcome.errors:
        print(f"  CHECK FAILED: {err}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; a combined line is printed last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the measured phase; whole rounds always finish")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "metalora" / "__init__.py").is_file():
        print(f"no metalora source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args, load_spec())


if __name__ == "__main__":
    sys.exit(main())
