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
from .config import Settings, check, default, setting
from .errors import MetaLoraError, NumericError
from .numerics import check_finite, checksum, flat_views, make_rng
from .toymodel import (DRAW_BLOCK, DiffusionSchedule, Example, ToyDenoiser,
                       ToyIdentityDataset, diffusion_loss, drawn_batches)


@dataclass
class TrainConfig(Settings):
    """Stage 1's settings: each field is the config key that its ``setting`` names."""
    q_total: int = setting("q_total")
    batch_size: int = setting("batch_size")
    lr: float = setting("lr")
    seed: int = setting("seed")
    r1: int = setting("r1")
    r2: int = setting("r2")
    identities_per_bucket: int = setting("identities_per_bucket")
    warm_up_fraction: float = setting("warm_up_fraction")
    # whether a revisited bucket re-triggers its warm-up phase
    warm_up_every_entry: bool = setting("warm_up_every_entry")
    weight_decay: float = setting("weight_decay")


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
                      warm_up_fraction: float = default("warm_up_fraction")
                      ) -> list[Bucket]:
    """Deterministic partition: seeded shuffle of identities, then chunks.

    q_bucket = ceil(10 * |bucket examples| / batch_size), i.e. each example
    is consumed for ten iterations in expectation.
    """
    check({"identities_per_bucket": identities_per_bucket, "batch_size": batch_size,
           "seed": seed, "warm_up_fraction": warm_up_fraction})
    if not dataset.examples:
        raise MetaLoraError("empty dataset")
    rng = make_rng(seed)
    order = list(rng.permutation(dataset.n_identities))
    buckets = []
    for b, start in enumerate(range(0, len(order), identities_per_bucket)):
        ids = [int(i) for i in order[start:start + identities_per_bucket]]
        members = set(ids)
        examples = [e for e in dataset.examples if e.identity in members]
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
    views = flat_views(params, [s for _d1, d2 in dims for s in ((r2, r1), (d2, r2))])
    return list(zip(views[0::2], views[1::2]))


class IdentityBank:
    """Shared down factors ``lmd``, one per adapted layer, and their gradients
    ``lmd_grads``: views of one flat AdamW buffer. Every identity's mid/up
    factors: one row each of a flat (n_identities, n) buffer, with per-row
    AdamW moments and step counts.
    """

    def __init__(self, model: ToyDenoiser, n_identities: int, config: TrainConfig,
                 rng: np.random.Generator):
        self.adamw, self._lmd_steps = (config.lr, config.weight_decay), 0
        dims = model.dims
        self.layout = (dims, config.r1, config.r2)  # split_params' arguments
        lmd = [init_factors(rng, d1, d2, config.r1, config.r2).l_meta_down for d1, d2 in dims]
        self._flat = tuple(np.zeros((4, sum(m.size for m in lmd))))  # weights, gradient, m, v
        np.concatenate([m.ravel() for m in lmd], out=self._flat[0])
        self.lmd, self.lmd_grads = (flat_views(r, [m.shape for m in lmd]) for r in self._flat[:2])
        params = np.stack([fresh_identity_params(rng, *self.layout)
                           for _ in range(n_identities)])
        # the factors and their two AdamW moments, gathered and scattered together
        self._planes = np.stack([params, np.zeros_like(params), np.zeros_like(params)])
        self.params, self.m, self.v = self._planes
        self.steps = np.zeros(n_identities, dtype=np.int64)
        # each factor block's (n_identities, ., .) view of params
        self._blocks = [b for pair in split_params(self.params, *self.layout) for b in pair]
        # the checksum memos, per (rows, n) table: its raw 64-bit words, the
        # last hashed words (first their complement), each row's checksum and
        # the blocks hashed per row. The shared factors are a one-row table
        words = self.params.view(np.uint64), self._flat[0].view(np.uint64)[None]
        self._row_memo = words[0], ~words[0], [""] * n_identities, self._blocks
        self._lmd_memo = words[1], ~words[1], [""], [m[None] for m in self.lmd]

    def chains(self, identities: np.ndarray) -> list[tuple]:
        """Per layer, :func:`metalora.toymodel.train_step`'s ``(lmd, lm, lu)``
        for a batch: the shared down factor and each item's gathered mid/up."""
        return [(lmd, lm[identities], lu[identities])
                for lmd, lm, lu in zip(self.lmd, self._blocks[0::2], self._blocks[1::2])]

    def update(self, identities: np.ndarray, item_grads: np.ndarray) -> list[int]:
        """One AdamW step on the rows of the batch's identities only; returns
        them sorted. A row's gradient adds its items' rows of ``item_grads``
        onto zeros in item order; other rows, moments and steps stay."""
        rows = sorted(set(identities.tolist()))
        idx = np.array(rows)
        grads = np.zeros((len(rows), item_grads.shape[1]))
        for slot, item in zip(np.searchsorted(idx, identities).tolist(), item_grads):
            grads[slot] += item
        check_finite(grads, "stage-1 mid/up gradient")
        self.steps[idx] += 1
        block = self._planes[:, idx]
        kernels.adamw_update(block[0], grads, *block[1:], self.steps[idx, None], *self.adamw)
        self._planes[:, idx] = block
        return rows

    def update_shared(self) -> None:
        """One AdamW step of the shared down factors on ``lmd_grads``."""
        check_finite(self._flat[1], "stage-1 shared down-factor gradient")
        self._lmd_steps += 1
        kernels.adamw_update(*self._flat, self._lmd_steps, *self.adamw)

    @staticmethod
    def _checksums(memo) -> list[str]:
        """Each row's checksum of a memo's table: the row of each of its
        blocks, hashed in order. The one rule of "changed": only rows whose
        raw 64-bit words changed since the last call are rehashed, so any
        change of bits (``0.0`` to ``-0.0`` too) is seen, in or out of the
        batch."""
        words, last, sums, blocks = memo
        for i in (words != last).any(axis=1).nonzero()[0].tolist():
            sums[i] = "".join([checksum(b[i]) for b in blocks])
            last[i] = words[i]
        return sums

    def identity_checksums(self) -> dict[int, str]:
        """Every identity's checksum: per layer, its mid then its up factor,
        each hashed from its contiguous block of the identity's row."""
        return dict(enumerate(self._checksums(self._row_memo)))

    def lomd_checksum(self) -> str:
        """The shared down factors' checksum, by the identities' rule: a
        one-row table."""
        return self._checksums(self._lmd_memo)[0]


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
    little: encoding each record as its iteration ends made stage 1 with
    its trace 7-11 % slower (median of 40-60 alternating rounds, 2-vCPU
    Xeon, 1 BLAS thread), though the 3,000 records alone differ by 3-11 ms.

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
    rows and, with the gate open, one step of the shared factors on their
    gradients, summed over the batch by the kernels into ``bank.lmd_grads``.
    """
    rng = make_rng(config.seed)
    buckets = partition_buckets(dataset, config.identities_per_bucket,
                                config.batch_size, config.seed,
                                config.warm_up_fraction)
    bank = IdentityBank(model, dataset.n_identities, config, rng)
    item_grads = np.empty((config.batch_size, bank.params.shape[1]))
    # the gradients trained, per layer: the items' mid and up factors, and the
    # shared down factors' once the warm-up gate opens
    mid_up = split_params(item_grads, *bank.layout)
    warm_up_slots = [(None, lm, lu, None) for lm, lu in mid_up]
    live_slots = [(d_lmd, lm, lu, None) for d_lmd, (lm, lu) in zip(bank.lmd_grads, mid_up)]
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
    w0s = [l.w0 for l in model.layers]
    for it, ((bucket, entry_index, i_cb, lomd_live), (batch, inp, eps)) in enumerate(
            zip(plan, batches)):
        identities = np.array([item.identity for item in batch])
        try:
            loss, _ = diffusion_loss(w0s, bank.chains(identities), inp, eps,
                                     out=live_slots if lomd_live else warm_up_slots)
            rows = bank.update(identities, item_grads)
            if lomd_live:
                bank.update_shared()
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
