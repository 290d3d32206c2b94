"""The pipeline benchmark's tracer still finds the functions it wraps.

``pipeline_bench/tracer.py`` wraps named metalora functions by attribute; a
rename in the package would otherwise surface only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import metalora.cli  # noqa: F401  (the benchmark wraps after importing the CLI)
from metalora import adapter, kernels, numerics
from metalora.numerics import make_rng

TRACER_PATH = Path(__file__).resolve().parents[1] / "pipeline_bench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("pipeline_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_kernel_calls():
    tracer = load_tracer_module().Tracer()
    originals = (kernels.chain_forward, kernels.chain_backward, kernels.adamw_update)
    tracer.install()
    try:
        rng = make_rng(0)
        layer = adapter.AdaptedLayer(rng.standard_normal((6, 5)),
                                     adapter.init_factors(rng, 5, 6, 3, 1))
        x = rng.standard_normal((5, 2))
        layer.forward(x)
        grads = layer.backward(x, rng.standard_normal((6, 2)))
        numerics.adamw_step(layer.factors.l_mid, grads.l_mid, numerics.AdamWState())
    finally:
        tracer.uninstall()
    stats = tracer.stats["setup"]
    for name in ("kernels.chain_forward", "kernels.chain_backward", "kernels.adamw_update"):
        assert stats[name]["calls"] >= 1, name
    assert stats["kernels"]["flops"] > 0
    assert (kernels.chain_forward, kernels.chain_backward, kernels.adamw_update) == originals
