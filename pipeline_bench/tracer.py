"""Per-layer tracing by wrapping metalora's public functions from outside.

Each target is replaced, wherever a metalora module holds a reference to it
(``metalora.kernels.chain_forward`` on the kernels module,
``metalora.numerics.adamw_step`` on every module that imported it by name,
``AdaptedLayer.forward`` on its class), with a wrapper that records the call
count, the inclusive time (``.s``) and the self time net of wrapped children
(``.self_s``). Counters that depend on the arguments (columns, flops, bytes)
are recorded by small per-target hooks. The program itself is not changed;
spans inside it are left to the program's own instrumentation.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict


def _chain_forward_counts(tracer, args, result):
    w0, lmd, lm, _lu, _scale, x = args
    d2, d1 = w0.shape
    r1, r2, cols = lmd.shape[0], lm.shape[0], x.shape[1]
    # four matmuls (lmd x, lm u, w0 x, lu mid), then the scale and the add
    flops = 2 * cols * (r1 * d1 + r2 * r1 + d2 * d1 + d2 * r2) + 2 * d2 * cols
    tracer.add("kernels.chain_forward.cols", cols)
    tracer.add("kernels.flops", flops)


def _chain_backward_counts(tracer, args, result):
    w0, lmd, lm, lu, _scale, x, _u, _mid, g = args
    cols = x.shape[1]
    d2, d1 = w0.shape
    r1, r2 = lmd.shape[0], lm.shape[0]
    # seven matmuls: d_lu, lu.T g, d_lm, lm.T (lu.T g), d_lmd, dx (two), dw0
    flops = 2 * cols * (d2 * r2 + r2 * d2 + r2 * r1 + r1 * r2 + r1 * d1
                        + d1 * d2 + d1 * r1 + d2 * d1)
    tracer.add("kernels.flops", flops)


_ADAMW_FLOPS_PER_ELEMENT = 16


def _adamw_update_counts(tracer, args, result):
    tracer.add("kernels.flops", _ADAMW_FLOPS_PER_ELEMENT * args[0].size)


def _checksum_counts(tracer, args, result):
    tracer.add("numerics.checksum.bytes", 8 * args[0].size)


def _file_bytes_counts(counter, path_index):
    def hook(tracer, args, result):
        tracer.add(counter, os.path.getsize(args[path_index]))
    return hook


def _diffusion_loss_counts(tracer, args, result):
    if tracer.active.get("toymodel.pretrain_base"):
        tracer.add("toymodel.pretrain_base.iterations", 1)


# (module, attribute, layer name, count hook). An attribute "Class.method"
# wraps the method on the class.
TARGETS = [
    ("metalora.kernels", "chain_forward", "kernels.chain_forward", _chain_forward_counts),
    ("metalora.kernels", "chain_backward", "kernels.chain_backward", _chain_backward_counts),
    ("metalora.kernels", "adamw_update", "kernels.adamw_update", _adamw_update_counts),
    ("metalora.numerics", "adamw_step", "numerics.adamw_step", None),
    ("metalora.numerics", "checksum", "numerics.checksum", _checksum_counts),
    ("metalora.adapter", "AdaptedLayer.forward", "adapter.forward", None),
    ("metalora.adapter", "AdaptedLayer.backward", "adapter.backward", None),
    ("metalora.adapter", "merge", "adapter.merge", None),
    ("metalora.toymodel", "diffusion_loss", "toymodel.diffusion_loss", _diffusion_loss_counts),
    ("metalora.toymodel", "time_embedding", "toymodel.time_embedding", None),
    ("metalora.toymodel", "noisify", "toymodel.noisify", None),
    ("metalora.toymodel", "generate", "toymodel.generate", None),
    ("metalora.toymodel", "pretrain_base", "toymodel.pretrain_base", None),
    ("metalora.metatrain", "run_stage1", "metatrain.run_stage1", None),
    ("metalora.metatrain", "write_trace_csv", "metatrain.write_trace",
     _file_bytes_counts("metatrain.write_trace.bytes", 1)),
    ("metalora.metatrain", "write_trace_jsonl", "metatrain.write_trace",
     _file_bytes_counts("metatrain.write_trace.bytes", 1)),
    ("metalora.personalize", "run_stage2", "personalize.run_stage2", None),
    ("metalora.personalize", "probe_loss", "personalize.probe_loss", None),
    ("metalora.personalize", "view_latent", "personalize.view_latent", None),
    ("metalora.augment", "plan_crops", "augment.plan_crops", None),
    ("metalora.augment", "sample_view", "augment.sample_view", None),
    ("metalora.checkpoint", "save_checkpoint", "checkpoint.save",
     _file_bytes_counts("checkpoint.save.bytes", 0)),
    ("metalora.checkpoint", "load_checkpoint", "checkpoint.load",
     _file_bytes_counts("checkpoint.load.bytes", 0)),
    ("metalora.evaluation", "r_facesim", "evaluation.score", None),
    ("metalora.evaluation", "facesim_conventional", "evaluation.score", None),
    ("metalora.evaluation", "ToyEmbedder.__call__", "evaluation.embedder", None),
    ("metalora.evaluation", "cosine", "evaluation.cosine", None),
    ("metalora.cli", "main", "cli.main", None),
]


class Tracer:
    """Call counts, inclusive and self times, and counters per layer name.

    Stats are kept per phase (``set_phase``) so that set-up, the measured
    phase and the benchmark's own checks can be told apart.
    """

    def __init__(self):
        self.phase = "setup"
        self.stats: dict[str, dict[str, dict[str, float]]] = {}
        self.active: dict[str, int] = defaultdict(int)
        self._child_time: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def set_phase(self, phase: str) -> None:
        self.phase = phase

    def _entry(self, name: str) -> dict[str, float]:
        per_phase = self.stats.setdefault(self.phase, {})
        return per_phase.setdefault(name, defaultdict(float))

    def add(self, counter: str, amount: float) -> None:
        layer, _, key = counter.rpartition(".")
        self._entry(layer)[key] += amount

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._child_time.append(0.0)
            tracer.active[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                tracer.active[name] -= 1
                children = tracer._child_time.pop()
                if tracer._child_time:
                    tracer._child_time[-1] += elapsed
                entry = tracer._entry(name)
                entry["calls"] += 1
                entry["s"] += elapsed
                entry["self_s"] += elapsed - children
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every target at each metalora attribute that refers to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "metalora" or n.startswith("metalora."))]
        for module_name, attr, name, hook in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()
