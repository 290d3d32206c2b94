"""Bucketed meta-training: partitioning, warm-up gating, trace contracts."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from metalora import metatrain, toymodel
from metalora.adapter import AdaptedLayer, AdapterFactors, init_factors
from metalora.errors import ConfigError, MetaLoraError, NumericError
from metalora.metatrain import (Bucket, IdentityBank, TraceRecord, TrainConfig,
                                partition_buckets, run_stage1, split_params,
                                warm_up_gate, write_trace_csv, write_trace_jsonl)
from metalora.numerics import AdamWState, adamw_step, checksum, make_rng
from metalora.personalize import (PersonalizeConfig, Stage2Job, make_probe, run_stage2,
                                  run_stage2_many)
from metalora.toymodel import (DRAW_BLOCK, Example, ToyDenoiser, diffusion_loss,
                               linear_schedule, make_dataset, noisify, pretrain_base)


def traced_stage1(*args):
    """``run_stage1``'s result and the records its sink received, in order."""
    trace = []
    return run_stage1(*args, trace.append), trace


def tiny_dataset(seed=0, n_identities=4, samples=6):
    return make_dataset(make_rng(seed), n_identities=n_identities, d=8,
                        samples_per_identity=samples, n_prompts=2)


class TestBucketSizing:
    def test_reference_case_thousand_examples(self):
        # 1000 examples at batch size 4: q_bucket = ceil(10*1000/4) = 2500.
        ds = make_dataset(make_rng(0), n_identities=10, d=4,
                          samples_per_identity=100, n_prompts=2)
        buckets = partition_buckets(ds, identities_per_bucket=10,
                                    batch_size=4, seed=0)
        assert len(buckets) == 1
        assert len(buckets[0].examples) == 1000
        assert buckets[0].q_bucket == 2500

    @pytest.mark.parametrize("n_ex,bs", [(1, 4), (2, 4), (3, 7), (40, 3)])
    def test_ceiling_formula(self, n_ex, bs):
        ds = make_dataset(make_rng(1), n_identities=1, d=4,
                          samples_per_identity=n_ex, n_prompts=2)
        b = partition_buckets(ds, 1, bs, seed=0)[0]
        assert b.q_bucket == math.ceil(10 * n_ex / bs)

    def test_warm_up_is_forty_percent_rounded(self):
        ds = tiny_dataset()
        for b in partition_buckets(ds, 2, 4, seed=3):
            assert b.q_warm_up == round(0.4 * b.q_bucket)

    def test_partition_oracle_disjoint_cover(self):
        # Brute-force oracle: buckets cover all identities exactly once and
        # each bucket's examples are exactly that identity subset.
        ds = tiny_dataset(n_identities=7)
        buckets = partition_buckets(ds, 3, 4, seed=5)
        seen = [i for b in buckets for i in b.identity_ids]
        assert sorted(seen) == list(range(7))
        for b in buckets:
            want = [e for e in ds.examples if e.identity in set(b.identity_ids)]
            assert len(b.examples) == len(want)
            assert all(e.identity in set(b.identity_ids) for e in b.examples)

    def test_partition_deterministic_per_seed(self):
        ds = tiny_dataset()
        a = partition_buckets(ds, 2, 4, seed=9)
        b = partition_buckets(ds, 2, 4, seed=9)
        c = partition_buckets(ds, 2, 4, seed=10)
        assert [x.identity_ids for x in a] == [x.identity_ids for x in b]
        assert [x.identity_ids for x in a] != [x.identity_ids for x in c]

    def test_empty_dataset_refused(self):
        ds = dataclasses.replace(tiny_dataset(), examples=[])
        with pytest.raises(MetaLoraError, match="^empty dataset$"):
            partition_buckets(ds, 2, 4, seed=0)

    def test_foreign_identity_rejected(self):
        ds = tiny_dataset()
        with pytest.raises(MetaLoraError):
            Bucket(bucket_id=0, identity_ids=[0],
                   examples=ds.of_identity(1), q_bucket=10, q_warm_up=4)


class TestWarmUpGate:
    def test_boundary_flip(self):
        # q_bucket 2500 -> q_warm_up 1000: frozen at 999, live at 1000.
        assert warm_up_gate(999, 1000, 2500) is False
        assert warm_up_gate(1000, 1000, 2500) is True

    def test_small_bucket_flip(self):
        # q_bucket 50 -> warm-up 20.
        for i in range(50):
            assert warm_up_gate(i, 20, 50) is (i >= 20)

    def test_range_validated(self):
        with pytest.raises(ValueError):
            warm_up_gate(50, 20, 50)
        with pytest.raises(ValueError):
            warm_up_gate(-1, 20, 50)


def small_stage1(seed=0, **cfg_kw):
    ds = tiny_dataset(seed=seed)
    schedule = linear_schedule()
    model = pretrain_base(ds, schedule, seed=seed + 1, hidden=16,
                          loss_threshold=0.9, max_iters=3000, window=50)
    defaults = dict(q_total=80, batch_size=4, lr=1e-3, seed=seed + 2,
                    r1=4, r2=1, identities_per_bucket=2)
    defaults.update(cfg_kw)
    config = TrainConfig(**defaults)
    return model, ds, schedule, config


def stage_runs(model, ds, schedule, config):
    """Stage 1 and its trace, then, on its shared down factors, a lone
    ``run_stage2`` and a probed ``run_stage2_many`` run of identity 0."""
    res, trace = traced_stage1(model, ds, schedule, config)
    cfg = PersonalizeConfig(q_st2=20, r1=config.r1, r2=config.r2, lr=5e-3, seed=0)
    ref = ds.reference_of(0)
    probe = make_probe(model, ds, 0, schedule, seed=0)
    return (res, trace, run_stage2(model, res.lmd, ref, schedule, cfg),
            run_stage2_many(model, [Stage2Job(res.lmd, ref, 1, probe)], schedule, cfg)[0])


def run_bits(res, trace, *stage2):
    """What :func:`stage_runs` gives, as comparable bits."""
    return ([m.tobytes() for m in res.lmd], trace,
            [(r.train_losses, r.probe_losses, r.iters_to_threshold,
              [a.tobytes() for f in r.factors for a in (f.l_meta_down, f.l_mid, f.l_up)])
             for r in stage2])


def item_by_item_inputs(model, batch, schedule, rng):
    """A batch's network inputs and noise, drawn and noised item by item:
    each item its t, then its noise, through noisify."""
    ts, x_t, eps = [], [], []
    for item in batch:
        ts.append(int(rng.integers(schedule.T)))
        xt, e = noisify(schedule, item.x0, ts[-1], rng)
        x_t.append(xt)
        eps.append(e)
    inp = model.conditioned(np.stack(x_t), ts, [item.prompt_id for item in batch], schedule)
    return inp, np.stack(eps)


def reference_stage1(model, dataset, schedule, config):
    """Stage 1 as the identity bank must reproduce it: a dict of per-identity
    factor chains over the shared down factors, each identity's gradients
    summed in item order, and one adamw_step per tensor with its own
    AdamWState. Returns (trace, shared down factors)."""
    rng = make_rng(config.seed)
    buckets = partition_buckets(dataset, config.identities_per_bucket,
                                config.batch_size, config.seed, config.warm_up_fraction)
    dims = model.dims

    def state():
        return AdamWState(lr=config.lr, weight_decay=config.weight_decay)

    def item_sum(stack):
        return sum(stack, np.zeros(stack.shape[1:]))

    lmd = [init_factors(rng, d1, d2, config.r1, config.r2).l_meta_down for d1, d2 in dims]
    lmd_states = [state() for _ in dims]
    chains, states = {}, {}
    for i in range(dataset.n_identities):
        chains[i] = []
        for li, (d1, d2) in enumerate(dims):
            fresh = init_factors(rng, d1, d2, config.r1, config.r2, "fresh")
            chains[i].append(AdapterFactors(lmd[li], fresh.l_mid, fresh.l_up))
        states[i] = [(state(), state()) for _ in dims]
    trace, i_curr, entry, seen = [], 0, 0, set()
    while i_curr < config.q_total:
        for bucket in buckets:
            revisit = not config.warm_up_every_entry and bucket.bucket_id in seen
            warm_up = 0 if revisit else bucket.q_warm_up
            seen.add(bucket.bucket_id)
            for i_cb in range(bucket.q_bucket):
                idxs = rng.integers(len(bucket.examples), size=config.batch_size)
                batch = [bucket.examples[i] for i in idxs]
                # the shared down factor stacked per item: its gradients come
                # per item, and are summed in item order here
                operands = [(np.stack([lmd[li]] * len(batch)),
                             np.stack([chains[b.identity][li].l_mid for b in batch]),
                             np.stack([chains[b.identity][li].l_up for b in batch]))
                            for li in range(2)]
                loss, layer_grads = diffusion_loss(
                    model.operands()[0], operands,
                    *item_by_item_inputs(model, batch, schedule, rng))
                for ident in dict.fromkeys(b.identity for b in batch):
                    items = [k for k, b in enumerate(batch) if b.identity == ident]
                    for li, (_, d_lm, d_lu, _) in enumerate(layer_grads):
                        st_lm, st_lu = states[ident][li]
                        adamw_step(chains[ident][li].l_mid, item_sum(d_lm[items]), st_lm)
                        adamw_step(chains[ident][li].l_up, item_sum(d_lu[items]), st_lu)
                live = i_cb >= warm_up
                if live:
                    for li, (d_lmd, *_) in enumerate(layer_grads):
                        adamw_step(lmd[li], item_sum(d_lmd), lmd_states[li])
                trace.append(TraceRecord(
                    iteration=i_curr + i_cb, bucket_id=bucket.bucket_id,
                    entry_index=entry, iter_in_bucket=i_cb, loss=loss,
                    lomd_updated=live, batch_identities=sorted({b.identity for b in batch}),
                    lomd_checksum="".join(checksum(m) for m in lmd),
                    identity_checksums={i: "".join(checksum(f.l_mid) + checksum(f.l_up)
                                                   for f in chain)
                                        for i, chain in chains.items()}))
            i_curr += bucket.q_bucket
            entry += 1
            if i_curr >= config.q_total:
                break
    return trace, lmd


class TestStage1:
    def test_budget_accounting_full_buckets(self):
        model, ds, schedule, config = small_stage1()
        res, trace = traced_stage1(model, ds, schedule, config)
        q_buckets = [b.q_bucket for b in res.buckets]
        # executed iterations is a sum of whole bucket runs covering q_total,
        # overshooting by less than one bucket
        assert res.executed_iterations >= config.q_total
        assert res.executed_iterations - config.q_total < max(q_buckets)
        assert len(trace) == res.executed_iterations
        # every bucket entry runs exactly its q_bucket iterations
        runs = {}
        for r in trace:
            runs.setdefault(r.entry_index, []).append(r)
        for entry, recs in runs.items():
            bucket = next(b for b in res.buckets if b.bucket_id == recs[0].bucket_id)
            assert [r.iter_in_bucket for r in recs] == list(range(bucket.q_bucket))

    def test_warm_up_freeze_visible_in_trace(self):
        model, ds, schedule, config = small_stage1()
        res, trace = traced_stage1(model, ds, schedule, config)
        by_entry = {}
        for r in trace:
            by_entry.setdefault(r.entry_index, []).append(r)
        for recs in by_entry.values():
            bucket = next(b for b in res.buckets if b.bucket_id == recs[0].bucket_id)
            frozen = [r for r in recs if r.iter_in_bucket < bucket.q_warm_up]
            live = [r for r in recs if r.iter_in_bucket >= bucket.q_warm_up]
            assert all(not r.lomd_updated for r in frozen)
            assert all(r.lomd_updated for r in live)
            # checksum constant through the frozen phase of this entry
            pre = recs[0].lomd_checksum
            assert all(r.lomd_checksum == pre for r in frozen)
            if frozen and live:
                assert live[0].lomd_checksum != pre

    def test_identity_isolation(self):
        # an identity outside the current batch never changes at that step
        model, ds, schedule, config = small_stage1()
        _, trace = traced_stage1(model, ds, schedule, config)
        prev = None
        for r in trace:
            if prev is not None:
                for ident in range(ds.n_identities):
                    if ident not in r.batch_identities:
                        assert r.identity_checksums[ident] == prev[ident], \
                            f"identity {ident} moved outside its batch"
            prev = r.identity_checksums

    def test_only_shared_factor_survives(self):
        model, ds, schedule, config = small_stage1()
        res, _ = traced_stage1(model, ds, schedule, config)
        assert [m.shape for m in res.lmd] == [(config.r1, d1) for d1, _ in model.dims]

    def test_deterministic(self):
        model, ds, schedule, config = small_stage1()
        a, trace_a = traced_stage1(model, ds, schedule, config)
        b, trace_b = traced_stage1(model, ds, schedule, config)
        for x, y in zip(a.lmd, b.lmd):
            assert np.array_equal(x, y)
        assert [r.loss for r in trace_a] == [r.loss for r in trace_b]

    def test_loss_improves(self):
        model, ds, schedule, config = small_stage1(q_total=300, lr=4e-3)
        _, trace = traced_stage1(model, ds, schedule, config)
        losses = [r.loss for r in trace]
        head = float(np.mean(losses[:20]))
        tail = float(np.mean(losses[-20:]))
        assert tail < head

    def test_warm_up_every_entry_flag(self):
        model, ds, schedule, config = small_stage1(
            q_total=200, warm_up_every_entry=False)
        res, trace = traced_stage1(model, ds, schedule, config)
        later = [r for r in trace
                 if r.entry_index >= len(res.buckets) and r.iter_in_bucket == 0]
        assert later and all(r.lomd_updated for r in later)

    def test_update_moves_only_the_batch_rows(self):
        # one update moves the rows of the batch's identities, their moments
        # and step counts, and nothing else; every item's operands share the
        # bank's own down arrays
        model, ds, schedule, config = small_stage1()
        bank = IdentityBank(model, ds.n_identities, config, make_rng(0))
        ids = np.array([2, 0, 2])
        assert all(lmd is shared for (lmd, _, _), shared
                   in zip(bank.chains(ids), bank.lmd))
        buffers = (bank.params, bank.m, bank.v)
        before = [b.copy() for b in buffers]
        bank.update(ids, make_rng(1).normal(size=(len(ids), bank.params.shape[1])))
        for now, then in zip(buffers, before):
            assert np.flatnonzero((now != then).any(axis=1)).tolist() == [0, 2]
        assert bank.steps.tolist() == [1, 0, 1, 0]

    def test_update_adds_a_rows_items_onto_zeros_in_item_order(self, monkeypatch):
        # identity 2's row adds items 0, 2 and 3 one by one onto +0.0: signed
        # zeros, 0.0 + -0.0 is 0.0; order, (1e16 + 1) - 1e16 is 0, where
        # adding 1e16 and -1e16 first gives 1
        model, ds, schedule, config = small_stage1()
        bank = IdentityBank(model, ds.n_identities, config, make_rng(0))
        seen = []
        monkeypatch.setattr(metatrain.kernels, "adamw_update",
                            lambda param, grad, *rest: seen.append(grad.copy()))
        item_grads = np.zeros((4, bank.params.shape[1]))
        item_grads[:, :3] = [[-0.0, 1e16, 0.5], [7.0, -0.0, 3.0],
                             [-0.0, 1.0, -0.0], [-0.0, -1e16, 0.25]]
        assert bank.update(np.array([2, 0, 2, 2]), item_grads) == [0, 2]
        want = np.zeros((2, bank.params.shape[1]))
        want[0, :3], want[1, 2] = [7.0, 0.0, 3.0], 0.75
        (grads,) = seen
        assert grads.tobytes() == want.tobytes()

    def test_checksums_rehash_only_rows_whose_bits_changed(self, monkeypatch):
        model, ds, schedule, config = small_stage1()
        bank = IdentityBank(model, ds.n_identities, config, make_rng(0))

        def full():
            blocks = [b for pair in split_params(bank.params, *bank.layout) for b in pair]
            return {i: "".join(checksum(b[i]) for b in blocks)
                    for i in range(len(bank.params))}

        calls = []
        monkeypatch.setattr(metatrain, "checksum",
                            lambda arr: calls.append(None) or checksum(arr))
        first = bank.identity_checksums()
        assert first == full() and len(calls) == 4 * ds.n_identities
        bank.update(np.array([2, 0, 2]), make_rng(1).normal(size=(3, bank.params.shape[1])))
        calls.clear()
        moved = bank.identity_checksums()
        assert moved == full() and len(calls) == 4 * 2  # rows 0 and 2
        assert [i for i in moved if moved[i] != first[i]] == [0, 2]
        calls.clear()
        assert bank.identity_checksums() == moved and not calls
        # a bit-only change out of any batch: an up factor's 0.0 becomes -0.0
        (_, up), _ = split_params(bank.params, *bank.layout)
        assert up[3, 0, 0] == 0.0 and not np.signbit(up[3, 0, 0])
        up[3, 0, 0] = -0.0
        flipped = bank.identity_checksums()
        assert flipped[3] != moved[3] and flipped == full()
        assert len(calls) == 4

    def test_lomd_checksum_rehashes_only_when_bits_change(self, monkeypatch):
        model, ds, schedule, config = small_stage1()
        bank = IdentityBank(model, ds.n_identities, config, make_rng(0))
        calls = []
        monkeypatch.setattr(metatrain, "checksum",
                            lambda arr: calls.append(None) or checksum(arr))

        def full():
            return "".join(checksum(m) for m in bank.lmd)

        first = bank.lomd_checksum()
        assert first == full() and len(calls) == 2
        calls.clear()
        assert bank.lomd_checksum() == first and not calls
        bank.lmd[0][1, 2] = 0.0
        zero = bank.lomd_checksum()
        assert zero != first and zero == full() and len(calls) == 2
        # a bit-only change: 0.0 becomes -0.0
        bank.lmd[0][1, 2] = -0.0
        assert bank.lomd_checksum() not in (zero, first)
        assert bank.lomd_checksum() == full() and len(calls) == 4

    def test_stages_never_read_the_model_operands(self, monkeypatch):
        # the trainers read the base weights and pass their own chains: only
        # generate reads a model's installed factors
        model, ds, schedule, config = small_stage1()

        def refuse(model):
            raise AssertionError("ToyDenoiser.operands read by a trainer")

        monkeypatch.setattr(ToyDenoiser, "operands", refuse)
        res, _, lone, probed = stage_runs(model, ds, schedule, config)
        assert res.executed_iterations > 1
        assert len(lone.train_losses) == 20 and probed.iters_to_threshold is not None

    def test_stages_ignore_the_model_factors(self):
        # stage 1 and stage 2 on a model whose layers hold no factors give
        # the bits of the runs on the untouched model
        model, ds, schedule, config = small_stage1()
        bare = ToyDenoiser(*(AdaptedLayer(l.w0, l.factors) for l in model.layers),
                           model.d, model.n_prompts)
        for layer in bare.layers:
            layer.factors = None
        assert run_bits(*stage_runs(bare, ds, schedule, config)) == \
            run_bits(*stage_runs(model, ds, schedule, config))

    def test_audit_sees_a_shared_factor_change_while_the_gate_is_closed(self, monkeypatch):
        # a change of the shared down factors must show in the trace whatever
        # the gate says: pipeline_bench's warm-up rule relies on it
        model, ds, schedule, config = small_stage1()
        calls = []
        loss = metatrain.diffusion_loss

        def tamper(w0s, chains, *args, **kwargs):
            calls.append(None)
            if len(calls) == 2:  # iteration 1, in the first warm-up
                chains[1][0][0, 0] += 1.0  # the bank's own shared down array
            return loss(w0s, chains, *args, **kwargs)

        monkeypatch.setattr(metatrain, "diffusion_loss", tamper)
        _, trace = traced_stage1(model, ds, schedule, config)
        assert not trace[1].lomd_updated and not trace[2].lomd_updated
        assert trace[0].lomd_checksum != trace[1].lomd_checksum == trace[2].lomd_checksum

    @pytest.mark.parametrize("cfg_kw", [
        {},
        dict(q_total=200, batch_size=6, r2=2, weight_decay=0.01,
             warm_up_every_entry=False),
        dict(q_total=2 * DRAW_BLOCK + 1, identities_per_bucket=3)],
        ids=["small", "no_rewarm_r2_2_decay", "past_two_blocks"])
    def test_matches_per_tensor_reference_bit_for_bit(self, cfg_kw):
        model, ds, schedule, config = small_stage1(**cfg_kw)
        res, streamed = traced_stage1(model, ds, schedule, config)
        trace, lmd = reference_stage1(model, ds, schedule, config)
        assert streamed == trace
        assert [m.tobytes() for m in res.lmd] == [m.tobytes() for m in lmd]
        # a bucket entry starts inside a drawn block, so one block draws
        # from two buckets
        assert any(r.iteration % DRAW_BLOCK for r in streamed if r.iter_in_bucket == 0)
        if "q_total" in cfg_kw:
            assert res.executed_iterations > 2 * DRAW_BLOCK

    def test_negative_lr_rejected_before_training(self):
        # the config cannot be built, nor copied with the value
        with pytest.raises(ConfigError, match=r"^lr = -1.0 is not a finite number"):
            TrainConfig(lr=-1.0)
        with pytest.raises(ConfigError, match=r"^lr = -1.0 is not a finite number"):
            dataclasses.replace(TrainConfig(), lr=-1.0)

    def test_non_finite_shared_gradient_names_its_iteration(self, monkeypatch):
        # the shared down factors' gradient turns NaN from the first
        # iteration with the gate open; the error names that iteration. The
        # gradient is the bank's own buffer, so it is poisoned in place
        model, ds, schedule, config = small_stage1()
        first_live = next(r.iteration for r in traced_stage1(model, ds, schedule, config)[1]
                          if r.lomd_updated)
        step = toymodel.train_step

        def poisoned(*args, **kwargs):
            losses, layer_grads = step(*args, **kwargs)
            for d_lmd, *_ in layer_grads:
                if d_lmd is not None:
                    d_lmd[...] = np.nan
            return losses, layer_grads

        monkeypatch.setattr(toymodel, "train_step", poisoned)
        with pytest.raises(NumericError, match=rf"^iteration {first_live}: .*non-finite"):
            traced_stage1(model, ds, schedule, config)

    def test_peak_memory_does_not_grow_with_q_total(self, tmp_path):
        # the records stream into the trace files one block at a time, so 4x
        # the iterations may raise the tracemalloc peak by at most 64 KiB; the
        # 240 more records that a kept trace would hold take about 0.24 MB
        model, ds, schedule, config = small_stage1()

        def peak(q_total):
            tracemalloc.start()
            try:
                with metatrain.trace_files(tmp_path / f"s1-{q_total}") as sink:
                    run_stage1(model, ds, schedule,
                               dataclasses.replace(config, q_total=q_total), sink)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # first-call allocations
        growth = peak(320) - peak(80)
        assert growth < 64 * 1024, growth

    def test_trace_files_encode_whole_blocks(self, tmp_path, monkeypatch):
        # the records are encoded DRAW_BLOCK at a time as they come, and the
        # part block that is left when the sink closes
        model, ds, schedule, config = small_stage1(q_total=30)
        _, trace = traced_stage1(model, ds, schedule, config)
        sizes, rows = [], metatrain._csv_rows
        monkeypatch.setattr(metatrain, "_csv_rows",
                            lambda block: sizes.append(len(block)) or rows(block))
        with metatrain.trace_files(tmp_path / "s1") as sink:
            for k in range(2 * DRAW_BLOCK + 3):
                sink(trace[k % len(trace)])
        assert sizes == [DRAW_BLOCK, DRAW_BLOCK, 3]

    def test_trace_writers(self, tmp_path):
        model, ds, schedule, config = small_stage1(q_total=30)
        _, trace = traced_stage1(model, ds, schedule, config)
        csv_path = tmp_path / "trace.csv"
        jsonl_path = tmp_path / "trace.jsonl"
        write_trace_csv(trace, csv_path)
        write_trace_jsonl(trace, jsonl_path)
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == len(trace) + 1  # header
        import json
        recs = [json.loads(l) for l in jsonl_path.read_text().splitlines()]
        assert len(recs) == len(trace)
        assert recs[0]["iteration"] == 0
        assert "lomd_checksum" in recs[0]
