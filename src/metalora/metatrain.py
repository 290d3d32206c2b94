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

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .adapter import AdapterFactors, init_factors
from .errors import MetaLoraError, NumericError
from .numerics import AdamWState, adamw_step, checksum, make_rng
from .toymodel import Example, ToyDenoiser, ToyIdentityDataset, DiffusionSchedule, diffusion_loss


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


def fresh_identity_factors(rng: np.random.Generator, lmd: list[np.ndarray],
                           dims: list[tuple[int, int]], r1: int, r2: int,
                           lr: float, weight_decay: float
                           ) -> tuple[list[AdapterFactors], list[tuple[AdamWState, AdamWState]]]:
    """One identity's fresh mid/up factors over the shared down factors.

    Returns a factor chain per layer (aliasing ``lmd[li]``) and an AdamW
    state pair (mid, up) per layer. Each layer draws one full
    ``init_factors(..., "fresh")``; its down factor is discarded, but the
    draw fixes the random stream that every checkpoint depends on.
    """
    factors, states = [], []
    for li, (d1, d2) in enumerate(dims):
        fresh = init_factors(rng, d1, d2, r1, r2, mode="fresh")
        factors.append(AdapterFactors(lmd[li], fresh.l_mid, fresh.l_up))
        states.append((AdamWState(lr=lr, weight_decay=weight_decay),
                       AdamWState(lr=lr, weight_decay=weight_decay)))
    return factors, states


class IdentityBank:
    """Shared down factors (one per adapted layer) plus per-identity mid/up
    factor pairs and their optimizer states.

    Every identity's factor chain aliases the same shared down arrays, so an
    in-place update of the shared factor is visible to all identities.
    """

    def __init__(self, model: ToyDenoiser, identity_ids, config: TrainConfig,
                 rng: np.random.Generator, shared_lmd: list[np.ndarray] | None = None):
        self.config = config
        dims = [(l.factors.d1, l.factors.d2) for l in model.layers]
        if shared_lmd is None:
            self.lmd = [init_factors(rng, d1, d2, config.r1, config.r2).l_meta_down
                        for d1, d2 in dims]
        else:
            self.lmd = [np.array(m, dtype=np.float64) for m in shared_lmd]
        self.lmd_states = [AdamWState(lr=config.lr, weight_decay=config.weight_decay)
                           for _ in dims]
        self.factors: dict[int, list[AdapterFactors]] = {}
        self.states: dict[int, list[tuple[AdamWState, AdamWState]]] = {}
        for i in identity_ids:
            self.factors[i], self.states[i] = fresh_identity_factors(
                rng, self.lmd, dims, config.r1, config.r2, config.lr,
                config.weight_decay)

    def factors_for(self, identity: int):
        pair = self.factors[identity]
        return pair[0], pair[1]

    def identity_checksum(self, identity: int) -> str:
        parts = [checksum(f.l_mid) + checksum(f.l_up) for f in self.factors[identity]]
        return "".join(parts)

    def lmd_checksum(self) -> str:
        return "".join(checksum(m) for m in self.lmd)


@dataclass
class TraceRecord:
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
    lmd: list[np.ndarray]
    trace: list[TraceRecord]
    executed_iterations: int
    buckets: list[Bucket]


def write_trace_csv(trace: list[TraceRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "bucket_id", "entry_index", "iter_in_bucket",
                    "loss", "lomd_updated", "batch_identities"])
        for r in trace:
            w.writerow([r.iteration, r.bucket_id, r.entry_index, r.iter_in_bucket,
                        f"{r.loss:.10g}", int(r.lomd_updated),
                        " ".join(str(i) for i in r.batch_identities)])


def write_trace_jsonl(trace: list[TraceRecord], path) -> None:
    with open(path, "w") as fh:
        for r in trace:
            fh.write(json.dumps({
                "iteration": r.iteration, "bucket_id": r.bucket_id,
                "entry_index": r.entry_index, "iter_in_bucket": r.iter_in_bucket,
                "loss": r.loss, "lomd_updated": r.lomd_updated,
                "batch_identities": r.batch_identities,
                "lomd_checksum": r.lomd_checksum,
                "identity_checksums": {str(k): v for k, v in r.identity_checksums.items()},
            }) + "\n")


def run_stage1(model: ToyDenoiser, dataset: ToyIdentityDataset,
               schedule: DiffusionSchedule, config: TrainConfig) -> Stage1Result:
    """Bucketed meta-training loop.

    Buckets are revisited in fixed order until the q_total budget is spent;
    each bucket entry runs its full q_bucket iterations, so the executed
    total may overshoot q_total by at most one bucket remainder. Only the
    shared down factors survive; all identity factors are discarded.
    """
    rng = make_rng(config.seed)
    buckets = partition_buckets(dataset, config.identities_per_bucket,
                                config.batch_size, config.seed,
                                config.warm_up_fraction)
    bank = IdentityBank(model, range(dataset.n_identities), config, rng)
    trace: list[TraceRecord] = []
    i_curr = 0
    entry_index = 0
    seen_entries: set[int] = set()
    while i_curr < config.q_total:
        for bucket in buckets:
            warm_up = bucket.q_warm_up
            if not config.warm_up_every_entry and bucket.bucket_id in seen_entries:
                warm_up = 0
            seen_entries.add(bucket.bucket_id)
            for i_cb in range(bucket.q_bucket):
                lomd_live = warm_up_gate(i_cb, warm_up, bucket.q_bucket)
                idxs = rng.integers(len(bucket.examples), size=config.batch_size)
                batch = [bucket.examples[i] for i in idxs]
                try:
                    loss, grads = diffusion_loss(model, batch, schedule, rng,
                                                 factor_provider=bank.factors_for)
                except NumericError as exc:
                    raise NumericError(f"iteration {i_curr + i_cb}: {exc}") from exc
                for ident, layer_grads in grads.per_identity.items():
                    for li, (d_lm, d_lu) in enumerate(layer_grads):
                        st_lm, st_lu = bank.states[ident][li]
                        f = bank.factors[ident][li]
                        adamw_step(f.l_mid, d_lm, st_lm)
                        adamw_step(f.l_up, d_lu, st_lu)
                if lomd_live:
                    for li, d_lmd in enumerate(grads.lmd):
                        adamw_step(bank.lmd[li], d_lmd, bank.lmd_states[li])
                trace.append(TraceRecord(
                    iteration=i_curr + i_cb, bucket_id=bucket.bucket_id,
                    entry_index=entry_index, iter_in_bucket=i_cb, loss=loss,
                    lomd_updated=lomd_live,
                    batch_identities=sorted({b.identity for b in batch}),
                    lomd_checksum=bank.lmd_checksum(),
                    identity_checksums={i: bank.identity_checksum(i)
                                        for i in range(dataset.n_identities)},
                ))
            i_curr += bucket.q_bucket
            entry_index += 1
            if i_curr >= config.q_total:
                break
    lmd = [m.copy() for m in bank.lmd]
    return Stage1Result(lmd=lmd, trace=trace, executed_iterations=i_curr,
                        buckets=buckets)
