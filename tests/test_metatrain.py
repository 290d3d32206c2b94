"""Bucketed meta-training: partitioning, warm-up gating, trace contracts."""

import math

import numpy as np
import pytest

from metalora.errors import MetaLoraError
from metalora.metatrain import (Bucket, IdentityBank, TrainConfig,
                                partition_buckets, run_stage1, warm_up_gate,
                                write_trace_csv, write_trace_jsonl)
from metalora.numerics import make_rng
from metalora.toymodel import (Example, ToyDenoiser, linear_schedule,
                               make_dataset, pretrain_base)


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
                          loss_threshold=0.9, max_iters=3000, window=50,
                          r1=4)
    defaults = dict(q_total=80, batch_size=4, lr=1e-3, seed=seed + 2,
                    r1=4, r2=1, identities_per_bucket=2)
    defaults.update(cfg_kw)
    config = TrainConfig(**defaults)
    return model, ds, schedule, config


class TestStage1:
    def test_budget_accounting_full_buckets(self):
        model, ds, schedule, config = small_stage1()
        res = run_stage1(model, ds, schedule, config)
        q_buckets = [b.q_bucket for b in res.buckets]
        # executed iterations is a sum of whole bucket runs covering q_total,
        # overshooting by less than one bucket
        assert res.executed_iterations >= config.q_total
        assert res.executed_iterations - config.q_total < max(q_buckets)
        assert len(res.trace) == res.executed_iterations
        # every bucket entry runs exactly its q_bucket iterations
        runs = {}
        for r in res.trace:
            runs.setdefault(r.entry_index, []).append(r)
        for entry, recs in runs.items():
            bucket = next(b for b in res.buckets if b.bucket_id == recs[0].bucket_id)
            assert [r.iter_in_bucket for r in recs] == list(range(bucket.q_bucket))

    def test_warm_up_freeze_visible_in_trace(self):
        model, ds, schedule, config = small_stage1()
        res = run_stage1(model, ds, schedule, config)
        by_entry = {}
        for r in res.trace:
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
        res = run_stage1(model, ds, schedule, config)
        prev = None
        for r in res.trace:
            if prev is not None:
                for ident in range(ds.n_identities):
                    if ident not in r.batch_identities:
                        assert r.identity_checksums[ident] == prev[ident], \
                            f"identity {ident} moved outside its batch"
            prev = r.identity_checksums

    def test_only_shared_factor_survives(self):
        model, ds, schedule, config = small_stage1()
        res = run_stage1(model, ds, schedule, config)
        assert len(res.lmd) == 2
        assert res.lmd[0].shape == (config.r1, model.layer1.factors.d1)
        assert res.lmd[1].shape == (config.r1, model.layer2.factors.d1)

    def test_deterministic(self):
        model, ds, schedule, config = small_stage1()
        a = run_stage1(model, ds, schedule, config)
        b = run_stage1(model, ds, schedule, config)
        for x, y in zip(a.lmd, b.lmd):
            assert np.array_equal(x, y)
        assert [r.loss for r in a.trace] == [r.loss for r in b.trace]

    def test_loss_improves(self):
        model, ds, schedule, config = small_stage1(q_total=300, lr=4e-3)
        res = run_stage1(model, ds, schedule, config)
        losses = [r.loss for r in res.trace]
        head = float(np.mean(losses[:20]))
        tail = float(np.mean(losses[-20:]))
        assert tail < head

    def test_warm_up_every_entry_flag(self):
        model, ds, schedule, config = small_stage1(
            q_total=200, warm_up_every_entry=False)
        res = run_stage1(model, ds, schedule, config)
        later = [r for r in res.trace
                 if r.entry_index >= len(res.buckets) and r.iter_in_bucket == 0]
        assert later and all(r.lomd_updated for r in later)

    def test_shared_alias_propagates(self):
        # In the identity bank, every identity's chain aliases the same
        # shared down array per layer.
        model, ds, schedule, config = small_stage1()
        bank = IdentityBank(model, range(ds.n_identities), config, make_rng(0))
        for li in range(2):
            base = bank.factors[0][li].l_meta_down
            assert all(bank.factors[i][li].l_meta_down is base
                       for i in range(ds.n_identities))
            assert base is bank.lmd[li]

    def test_trace_writers(self, tmp_path):
        model, ds, schedule, config = small_stage1(q_total=30)
        res = run_stage1(model, ds, schedule, config)
        csv_path = tmp_path / "trace.csv"
        jsonl_path = tmp_path / "trace.jsonl"
        write_trace_csv(res.trace, csv_path)
        write_trace_jsonl(res.trace, jsonl_path)
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == len(res.trace) + 1  # header
        import json
        recs = [json.loads(l) for l in jsonl_path.read_text().splitlines()]
        assert len(recs) == len(res.trace)
        assert recs[0]["iteration"] == 0
        assert "lomd_checksum" in recs[0]
