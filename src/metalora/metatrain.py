"""Stage-1 meta-training: bucketed identity training with a warm-up gate.

Identities are partitioned into buckets. Each bucket is trained for
q_bucket iterations (sized so every example is used ~10 times); during the
first q_warm_up iterations of a bucket entry only the identity-specific mid
and up factors move while the shared down factor stays frozen, after which
the shared factor joins the update. At the end of the run every
identity-specific factor is discarded and only the shared down factors are
returned.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import cycle, tee

import numpy as np

from . import kernels
from .adapter import init_factors
from .checkpoint import atomic_open
from .errors import MetaLoraError, NumericError
from .numerics import AdamWState, FlatGroup, check_finite, checksum, make_rng
from .toymodel import (DRAW_BLOCK, DiffusionSchedule, Example, ToyDenoiser,
                       ToyIdentityDataset, diffusion_loss, drawn_batches)


@dataclass
class TrainConfig:
    q_total: int = 3000
    batch_size: int = 4
    lr: float = 4e-3
    seed: int = 0
    r1: int = 16
    r2: int = 1
    identities_per_bucket: int = 4
    warm_up_fraction: float = 0.4
    # whether a revisited bucket re-triggers its warm-up phase
    warm_up_every_entry: bool = True
    weight_decay: float = 0.0


@dataclass
class Bucket:
    bucket_id: int
    identity_ids: list[int]
    examples: list[Example]
    q_bucket: int
    q_warm_up: int

    def __post_init__(self):
        ids = set(self.identity_ids)
        if any(e.identity not in ids for e in self.examples):
            raise MetaLoraError("bucket contains an example with a foreign identity")


def partition_buckets(dataset: ToyIdentityDataset, identities_per_bucket: int,
                      batch_size: int, seed: int,
                      warm_up_fraction: float = 0.4) -> list[Bucket]:
    """Deterministic partition: seeded shuffle of identities, then chunks.

    q_bucket = ceil(10 * |bucket examples| / batch_size), i.e. each example
    is consumed for ten iterations in expectation.
    """
    if identities_per_bucket < 1:
        raise ValueError("identities_per_bucket must be >= 1")
    if not dataset.examples:
        raise MetaLoraError("empty dataset")
    rng = make_rng(seed)
    order = list(rng.permutation(dataset.n_identities))
    buckets = []
    for b, start in enumerate(range(0, len(order), identities_per_bucket)):
        ids = [int(i) for i in order[start:start + identities_per_bucket]]
        examples = [e for e in dataset.examples if e.identity in set(ids)]
        q_bucket = math.ceil(10 * len(examples) / batch_size)
        buckets.append(Bucket(bucket_id=b, identity_ids=ids, examples=examples,
                              q_bucket=q_bucket,
                              q_warm_up=round(warm_up_fraction * q_bucket)))
    return buckets


def warm_up_gate(iter_in_bucket: int, q_warm_up: int, q_bucket: int) -> bool:
    """Whether the shared down factor updates at this bucket iteration.

    The identity-specific mid and up factors update at every iteration.
    """
    if not 0 <= iter_in_bucket < q_bucket:
        raise ValueError(f"iter_in_bucket {iter_in_bucket} outside [0, {q_bucket})")
    return iter_in_bucket >= q_warm_up


def fresh_identity_params(rng: np.random.Generator, dims: list[tuple[int, int]],
                          r1: int, r2: int) -> np.ndarray:
    """One identity's fresh mid/up factors as one flat row in the layout of
    :func:`split_params`. Each layer draws one full ``init_factors(...,
    "fresh")``; its down factor is discarded, but the draw fixes the random
    stream that every checkpoint depends on."""
    parts = []
    for d1, d2 in dims:
        fresh = init_factors(rng, d1, d2, r1, r2, mode="fresh")
        parts += [fresh.l_mid.ravel(), fresh.l_up.ravel()]
    return np.concatenate(parts)


def split_params(params: np.ndarray, dims: list[tuple[int, int]], r1: int, r2: int
                 ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per layer, the (R, r2, r1) mid and (R, d2, r2) up views of an (R, n)
    buffer whose rows hold, per layer, the mid then the up factor."""
    views, offset = [], 0
    for _d1, d2 in dims:
        for a, b in ((r2, r1), (d2, r2)):
            views.append(params[:, offset:offset + a * b].reshape(len(params), a, b))
            offset += a * b
    return list(zip(views[0::2], views[1::2]))


class IdentityBank:
    """Shared down factors (one per adapted layer, a ``FlatGroup``) plus
    every identity's mid/up factors, one row each of a flat
    (n_identities, n) buffer, with per-row AdamW moments and step counts.
    """

    def __init__(self, model: ToyDenoiser, n_identities: int, config: TrainConfig,
                 rng: np.random.Generator):
        dims = model.dims
        self.layout = (dims, config.r1, config.r2)  # split_params' arguments
        self.shared = FlatGroup([init_factors(rng, d1, d2, config.r1, config.r2).l_meta_down
                                 for d1, d2 in dims],
                                AdamWState(lr=config.lr, weight_decay=config.weight_decay))
        self.lmd = self.shared.tensors
        params = np.stack([fresh_identity_params(rng, *self.layout)
                           for _ in range(n_identities)])
        # the factors and their two AdamW moments, gathered and scattered together
        self._planes = np.stack([params, np.zeros_like(params), np.zeros_like(params)])
        self.params, self.m, self.v = self._planes
        self.steps = np.zeros(n_identities, dtype=np.int64)
        # each factor block's (n_identities, ., .) view of params
        self._blocks = [b for pair in split_params(self.params, *self.layout) for b in pair]
        # the checksum memos: the last hashed bits (first their complement) and checksums
        self._row_bits = ~self.params.view(np.uint64)
        self._row_checksums = [""] * n_identities
        self._lmd_bits = ~self.shared.flat.view(np.uint64)
        self._lmd_checksum = ""

    def operands(self, identities: np.ndarray) -> list[tuple]:
        """Per layer, :func:`metalora.toymodel.train_step`'s ``(lmd, lm, lu)``
        for a batch: the shared down factor and each item's gathered mid/up."""
        return [(lmd, lm, lu) for lmd, (lm, lu)
                in zip(self.lmd, split_params(self.params[identities], *self.layout))]

    def update(self, identities: np.ndarray, item_grads: np.ndarray) -> list[int]:
        """One AdamW step on the rows of the batch's identities only; returns
        them sorted. A row's gradient adds its items' rows of ``item_grads``
        onto zeros in item order; other rows, moments and steps stay."""
        rows = sorted(set(identities.tolist()))
        idx = np.array(rows)
        grads = np.zeros((len(rows), item_grads.shape[1]))
        np.add.at(grads, np.searchsorted(idx, identities), item_grads)
        check_finite(grads, "stage-1 mid/up gradient")
        self.steps[idx] += 1
        block = self._planes[:, idx]
        kernels.adamw_update(block[0], grads, block[1], block[2], self.steps[idx, None],
                             self.shared.state.lr, self.shared.state.weight_decay)
        self._planes[:, idx] = block
        return rows

    def identity_checksums(self) -> dict[int, str]:
        """Every identity's checksum: per layer, its mid then its up factor,
        each hashed from its contiguous block of the identity's row.

        Only rows whose bits changed since the last call are rehashed. The
        comparison is on the raw 64-bit words, so any change of bits (``0.0``
        to ``-0.0`` too) is seen, in or out of the batch."""
        bits = self.params.view(np.uint64)
        for i in np.flatnonzero((bits != self._row_bits).any(axis=1)).tolist():
            self._row_checksums[i] = "".join([checksum(b[i]) for b in self._blocks])
            self._row_bits[i] = bits[i]
        return dict(enumerate(self._row_checksums))

    def lomd_checksum(self) -> str:
        """The shared down factors' checksum, rehashed only when their raw
        64-bit words changed since the last call, as for an identity's row."""
        bits = self.shared.flat.view(np.uint64)
        if (bits != self._lmd_bits).any():
            self._lmd_checksum = "".join(checksum(m) for m in self.lmd)
            self._lmd_bits[:] = bits
        return self._lmd_checksum


@dataclass
class TraceRecord:
    """One stage-1 iteration's audit: its place in the bucket schedule, the
    loss, whether the shared down factors updated, the batch's identities,
    and the checksums of the shared factors and of every identity after it."""
    iteration: int
    bucket_id: int
    entry_index: int
    iter_in_bucket: int
    loss: float
    lomd_updated: bool
    batch_identities: list[int]
    lomd_checksum: str
    identity_checksums: dict[int, str] = field(default_factory=dict)


@dataclass
class Stage1Result:
    """The shared down factors, the executed iteration count and the buckets.
    The per-iteration records are not kept: ``run_stage1`` hands each one to
    its sink as it happens."""
    lmd: list[np.ndarray]
    executed_iterations: int
    buckets: list[Bucket]


CSV_HEADER = ["iteration", "bucket_id", "entry_index", "iter_in_bucket",
              "loss", "lomd_updated", "batch_identities"]


def _csv_rows(trace):
    return ([r.iteration, r.bucket_id, r.entry_index, r.iter_in_bucket, f"{r.loss:.10g}",
             int(r.lomd_updated), " ".join(str(i) for i in r.batch_identities)]
            for r in trace)


def _jsonl_lines(trace):
    """One JSON object of its fields per record (int keys become strings)."""
    return (json.dumps(vars(r)) + "\n" for r in trace)


def write_trace_csv(trace: list[TraceRecord], path) -> None:
    with atomic_open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        w.writerows(_csv_rows(trace))


def write_trace_jsonl(trace: list[TraceRecord], path) -> None:
    with atomic_open(path, "w") as fh:
        fh.writelines(_jsonl_lines(trace))


@contextlib.contextmanager
def trace_files(out):
    """Yields a :func:`run_stage1` sink that writes ``<out>.trace.csv`` and
    ``<out>.trace.jsonl`` with the bytes of :func:`write_trace_csv` and
    :func:`write_trace_jsonl`, encoding the records in blocks of
    :data:`DRAW_BLOCK` as they come, so that at most one block is held.
    The blocks are for speed, since one record at a time would hold as
    little: on the default run's 3,000 records, one ``writerows`` and
    ``writelines`` call per record took 89.6–93.1 ms and one per block
    76.7–80.2 ms (2-vCPU Xeon, minimum of 15 interleaved rounds, two runs).

    Both files go through :func:`atomic_open` and are committed, the
    ``.jsonl`` then the ``.csv``, as the block ends without an error: a file
    written inside the block is committed before them."""
    with atomic_open(f"{out}.trace.csv", "w", newline="") as csv_fh, \
            atomic_open(f"{out}.trace.jsonl", "w") as jsonl_fh:
        rows = csv.writer(csv_fh)
        rows.writerow(CSV_HEADER)
        block: list[TraceRecord] = []

        def flush():
            rows.writerows(_csv_rows(block))
            jsonl_fh.writelines(_jsonl_lines(block))
            block.clear()

        def sink(record: TraceRecord) -> None:
            block.append(record)
            if len(block) == DRAW_BLOCK:
                flush()

        yield sink
        flush()


# the gradients stage 1 trains: the mid and up factors, plus the shared down
# factors once the warm-up gate opens
WARM_UP_NEED = frozenset({"lu", "lm"})
LIVE_NEED = WARM_UP_NEED | {"lmd"}


def run_stage1(model: ToyDenoiser, dataset: ToyIdentityDataset,
               schedule: DiffusionSchedule, config: TrainConfig,
               sink: Callable[[TraceRecord], object]) -> Stage1Result:
    """Bucketed meta-training loop.

    Each iteration's :class:`TraceRecord` goes to ``sink`` as soon as the
    iteration ends, and is not kept, so memory does not grow with the
    iteration count: pass ``list.append`` to collect the records, or
    :func:`trace_files` to write them.

    Buckets are revisited in fixed order until the q_total budget is spent;
    each bucket entry runs its full q_bucket iterations, so the executed
    total may overshoot q_total by at most one bucket remainder. Only the
    shared down factors survive; all identity factors are discarded.

    The schedule is fixed before the loop, so :func:`drawn_batches` draws
    each iteration's batch, from its bucket's examples, blocks ahead. An
    iteration makes one :func:`diffusion_loss` call, writing its items' mid/up
    gradients into one (batch_size, n) buffer, one update of its identities'
    rows and, with the gate open, one step of the shared factors' ``FlatGroup``.
    """
    rng = make_rng(config.seed)
    buckets = partition_buckets(dataset, config.identities_per_bucket,
                                config.batch_size, config.seed,
                                config.warm_up_fraction)
    bank = IdentityBank(model, dataset.n_identities, config, rng)
    item_grads = np.empty((config.batch_size, bank.params.shape[1]))
    grad_views = split_params(item_grads, *bank.layout)
    entries, executed = [], 0  # each bucket entry's bucket and warm-up
    for bucket in cycle(buckets):
        if executed >= config.q_total:
            break
        revisit = len(entries) >= len(buckets) and not config.warm_up_every_entry
        entries.append((bucket, 0 if revisit else bucket.q_warm_up))
        executed += bucket.q_bucket
    # each iteration's (bucket, entry index, iteration in bucket, gate), read
    # by the loop and, up to a block ahead of it, by the drawer
    plan, ahead = tee((bucket, entry_index, i_cb, warm_up_gate(i_cb, warm_up, bucket.q_bucket))
                      for entry_index, (bucket, warm_up) in enumerate(entries)
                      for i_cb in range(bucket.q_bucket))
    batches = drawn_batches(rng, model, schedule, (p[0].examples for p in ahead),
                            config.batch_size)
    w0s, scales, _ = model.operands()
    for it, ((bucket, entry_index, i_cb, lomd_live), (batch, inp, eps)) in enumerate(
            zip(plan, batches)):
        identities = np.array([item.identity for item in batch])
        try:
            loss, layer_grads = diffusion_loss(
                w0s, scales, bank.operands(identities), inp, eps,
                need=LIVE_NEED if lomd_live else WARM_UP_NEED, out=grad_views)
            rows = bank.update(identities, item_grads)
            if lomd_live:
                bank.shared.step([d_lmd for d_lmd, *_ in layer_grads])
        except NumericError as exc:
            raise NumericError(f"iteration {it}: {exc}") from exc
        sink(TraceRecord(
            iteration=it, bucket_id=bucket.bucket_id, entry_index=entry_index,
            iter_in_bucket=i_cb, loss=loss, lomd_updated=lomd_live,
            batch_identities=rows, lomd_checksum=bank.lomd_checksum(),
            identity_checksums=bank.identity_checksums(),
        ))
    lmd = [m.copy() for m in bank.lmd]
    return Stage1Result(lmd=lmd, executed_iterations=executed, buckets=buckets)
