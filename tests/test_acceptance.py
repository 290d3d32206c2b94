"""Acceptance gate: nine numbered criteria, one pass/fail line each.

Each test prints "ACCEPTANCE n: PASS <detail>" on success; a failure raises
with the measured values. Tolerances are stated inline and are exactly the
contract values, not adjusted to taste.
"""

import math
import time

import numpy as np
import pytest

from metalora import kernels
from metalora.adapter import AdapterFactors, MergedLoRA, init_factors, merge
from metalora.augment import ASPECTS, MULTIPLIERS, CropSpec, FaceBox, plan_crops, sample_view
from metalora.checkpoint import load_checkpoint, save_checkpoint, save_layers
from metalora.errors import RankError
from metalora.evaluation import (EvalManifest, IdentityEntry, ToyEmbedder,
                                 discrepancy_report, facesim_conventional, facesim_scores,
                                 r_facesim)
from metalora.metatrain import TrainConfig, partition_buckets, run_stage1
from metalora.numerics import make_rng
from metalora.personalize import (PersonalizeConfig, Stage2Job, adaptation_speed_experiment,
                                  load_stage1, run_stage2_many)
from metalora.toymodel import (generate, linear_schedule, make_dataset, pretrain_base,
                               subset_dataset)

from test_augment import oracle_plan


def report(n, detail):
    print(f"ACCEPTANCE {n}: PASS {detail}")


def test_acceptance_1_gradient_correctness():
    """>= 20 random layer instances (dims <= 16), each at a drawn scale: every
    factor gradient of ``kernels.chain_backward`` matches central finite
    differences (h=1e-5) of ``kernels.chain_forward`` with relative error
    <= 1e-4; < 10 s."""
    start = time.perf_counter()
    h = 1e-5
    worst = 0.0
    n_instances = 24
    for seed in range(n_instances):
        rng = make_rng(1000 + seed)
        d1 = int(rng.integers(2, 17))
        d2 = int(rng.integers(2, 17))
        r1 = int(rng.integers(1, min(d1, d2) + 1))
        r2 = int(rng.integers(1, r1 + 1))
        scale = float(rng.uniform(0.3, 1.5))
        f = init_factors(rng, d1, d2, r1, r2, mode="fresh")
        f.l_up[:] = rng.standard_normal(f.l_up.shape) / np.sqrt(r2)
        operands = (rng.standard_normal((d2, d1)) / np.sqrt(d1),
                    f.l_meta_down, f.l_mid, f.l_up, scale)
        x = rng.standard_normal((d1, 3))
        g = rng.standard_normal((d2, 3))

        def forward():  # reads the factors as the differences move them
            return kernels.chain_forward(*operands, x)

        (d_lmd, d_lm, d_lu, _), _ = kernels.chain_backward(*operands, x, *forward()[1:], g)
        for param, analytic in ((f.l_up, d_lu), (f.l_mid, d_lm), (f.l_meta_down, d_lmd)):
            fd = np.zeros_like(param)
            for idx in np.ndindex(param.shape):
                orig = param[idx]
                param[idx] = orig + h
                fp = float(np.sum(g * forward()[0]))
                param[idx] = orig - h
                fm = float(np.sum(g * forward()[0]))
                param[idx] = orig
                fd[idx] = (fp - fm) / (2 * h)
            denom = max(np.max(np.abs(fd)), np.max(np.abs(analytic)), 1e-12)
            rel = np.max(np.abs(analytic - fd)) / denom
            worst = max(worst, rel)
            assert rel <= 1e-4, f"instance {seed}: relative error {rel:.2e} > 1e-4"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s >= 10s"
    report(1, f"{n_instances} instances, worst rel err {worst:.2e}, {elapsed:.2f}s")


def merged_forward(w0: np.ndarray, merged: MergedLoRA, x: np.ndarray,
                   scale: float = 1.0) -> np.ndarray:
    """The forward pass of a base weight with a merged two-factor adapter."""
    return w0 @ x + scale * (merged.up @ (merged.down @ x))


def test_acceptance_2_merge_equivalence():
    """Three-factor (``kernels.chain_forward``) vs merged forward, at a drawn
    scale, agree within 1e-12 (inf-norm) over 100 random inputs per instance;
    merged delta-W has numerical rank <= r2; < 5 s."""
    start = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        rng = make_rng(2000 + seed)
        d1 = int(rng.integers(4, 24))
        d2 = int(rng.integers(4, 24))
        r1 = int(rng.integers(1, min(d1, d2) + 1))
        r2 = int(rng.integers(1, r1 + 1))
        scale = float(rng.uniform(0.3, 1.5))
        f = init_factors(rng, d1, d2, r1, r2, mode="fresh")
        f.l_up[:] = rng.standard_normal(f.l_up.shape)
        w0 = rng.standard_normal((d2, d1))
        m = merge(f)
        for _ in range(100):
            x = rng.standard_normal((d1, 1))
            chain = kernels.chain_forward(w0, f.l_meta_down, f.l_mid, f.l_up, scale, x)[0]
            diff = np.max(np.abs(chain - merged_forward(w0, m, x, scale=scale)))
            worst = max(worst, float(diff))
            assert diff <= 1e-12, f"inf-norm diff {diff:.2e} > 1e-12"
        sv = np.linalg.svd(m.up @ m.down, compute_uv=False)
        nrank = int(np.sum(sv > 1e-10 * max(1.0, sv[0])))
        assert nrank <= r2, f"merged rank {nrank} > r2={r2}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s >= 5s"
    report(2, f"10 instances x 100 inputs, worst diff {worst:.2e}, {elapsed:.2f}s")


@pytest.fixture(scope="module")
def stage1_world():
    """Shared desk-scale stage-1 run used by criteria 3 and 5."""
    dataset = make_dataset(make_rng(0), n_identities=20, d=32,
                           samples_per_identity=20, n_prompts=4)
    train = subset_dataset(dataset, list(range(16)))
    schedule = linear_schedule()
    model = pretrain_base(train, schedule, seed=1)
    trace = []
    result = run_stage1(model, train, schedule,
                        TrainConfig(q_total=3000, batch_size=4, lr=4e-3, seed=2), trace.append)
    return dataset, train, schedule, model, result, trace


def test_acceptance_3_warm_up_contract(stage1_world):
    """From the full run trace: shared-factor checksum constant before
    q_warm_up within every bucket entry and changed at least once after;
    identity factors outside the current batch bit-unchanged per step."""
    dataset, train, schedule, model, result, trace = stage1_world
    by_entry = {}
    for r in trace:
        by_entry.setdefault(r.entry_index, []).append(r)
    entries_checked = 0
    for recs in by_entry.values():
        bucket = next(b for b in result.buckets if b.bucket_id == recs[0].bucket_id)
        frozen = [r for r in recs if r.iter_in_bucket < bucket.q_warm_up]
        live = [r for r in recs if r.iter_in_bucket >= bucket.q_warm_up]
        assert all(not r.lomd_updated for r in frozen)
        pre = recs[0].lomd_checksum
        assert all(r.lomd_checksum == pre for r in frozen), \
            "shared factor moved during warm-up"
        assert any(r.lomd_checksum != pre for r in live), \
            "shared factor never changed after warm-up"
        entries_checked += 1
    # per-step identity isolation
    prev = None
    for r in trace:
        if prev is not None:
            for ident in range(train.n_identities):
                if ident not in r.batch_identities:
                    assert r.identity_checksums[ident] == prev[ident], \
                        f"identity {ident} changed outside its batch at iter {r.iteration}"
        prev = r.identity_checksums
    report(3, f"{entries_checked} bucket entries, {len(trace)} iterations checked")


def test_acceptance_4_bucket_budget_rule():
    """q_bucket == ceil(10*|bucket|/batch_size); 1000 examples at bs 4 -> 2500."""
    ds = make_dataset(make_rng(3), n_identities=10, d=4,
                      samples_per_identity=100, n_prompts=2)
    bucket = partition_buckets(ds, identities_per_bucket=10, batch_size=4, seed=0)[0]
    assert len(bucket.examples) == 1000
    assert bucket.q_bucket == 2500, f"got {bucket.q_bucket}, want 2500"
    for n_id, spi, bs in ((3, 7, 4), (5, 13, 8), (2, 9, 3)):
        ds2 = make_dataset(make_rng(4), n_identities=n_id, d=4,
                           samples_per_identity=spi, n_prompts=2)
        for b in partition_buckets(ds2, n_id, bs, seed=1):
            assert b.q_bucket == math.ceil(10 * len(b.examples) / bs)
    report(4, "1000 examples / batch 4 -> q_bucket 2500; formula holds on 3 fixtures")


def test_acceptance_5_meta_advantage(stage1_world):
    """16 train + 4 held-out identities (d=32), 5 seeds: median
    iterations-to-tau (tau = 50% of initial adaptation loss) strictly lower
    with meta-trained shared factors than random, and lower in >= 4/5 seeds.
    Single-prototype control shows no gap. < 5 min total."""
    start = time.perf_counter()
    dataset, train, schedule, model, result, _trace = stage1_world
    cfg = PersonalizeConfig(q_st2=375, r1=16, r2=1, lr=1e-2,
                            tau_fraction=0.5, smoothing_window=15)
    rep = adaptation_speed_experiment(model, dataset, [16, 17, 18, 19],
                                      result.lmd, schedule, cfg,
                                      seeds=[0, 1, 2, 3, 4])
    assert rep["median_meta"] < rep["median_random"], \
        f"meta {rep['median_meta']} not < random {rep['median_random']}"
    assert rep["seeds_meta_faster"] >= 4, \
        f"meta faster in only {rep['seeds_meta_faster']}/5 seeds"

    # degenerate control: all identities share one prototype
    ctrl = make_dataset(make_rng(0), n_identities=20, d=32,
                        samples_per_identity=20, n_prompts=4,
                        single_prototype=True)
    ctrl_train = subset_dataset(ctrl, list(range(16)))
    ctrl_model = pretrain_base(ctrl_train, schedule, seed=1)
    ctrl_s1 = run_stage1(ctrl_model, ctrl_train, schedule,
                         TrainConfig(q_total=3000, batch_size=4, lr=4e-3, seed=2),
                         lambda record: None)
    ctrl_rep = adaptation_speed_experiment(ctrl_model, ctrl, [16, 17, 18, 19],
                                           ctrl_s1.lmd, schedule, cfg,
                                           seeds=[0, 1, 2, 3, 4])
    # "no significant gap": neither arm wins >= 4/5 seeds and the medians
    # differ by < 10% of the iteration budget
    gap = abs(ctrl_rep["median_meta"] - ctrl_rep["median_random"])
    assert gap < 0.1 * cfg.q_st2, f"control gap {gap} too large"
    assert not (ctrl_rep["seeds_meta_faster"] >= 4), "control favors meta"
    assert not (ctrl_rep["seeds_meta_faster"] <= 1
                and ctrl_rep["median_meta"] != ctrl_rep["median_random"]
                and gap >= 0.1 * cfg.q_st2), "control favors random"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.0f}s >= 300s"
    report(5, f"meta {rep['median_meta']:.0f} < random {rep['median_random']:.0f} iters, "
              f"{rep['seeds_meta_faster']}/5 seeds; control gap {gap:.0f}; {elapsed:.0f}s")


def test_meta_factors_give_higher_identity_fidelity(stage1_world):
    """The paper's fidelity claim, on acceptance 5's held-out identities 16-19
    and seeds 0-4: stage 2 from the meta-trained shared factors and from the
    speed experiment's random draw, 4 generated prompts per run, both arms
    scored by facesim_scores with ToyEmbedder(32, seed=1234). Margin, stated
    before the first run: meta's R-FaceSim is above random's in >= 4 of 5
    seeds, and the median over seeds of (meta - random) is >= 10 points.
    Every score matches a nested-loop brute force within 1e-12."""
    dataset, _train, schedule, model, result, _trace = stage1_world
    cfg = PersonalizeConfig(q_st2=375, r1=16, r2=1, lr=1e-2)
    idents, seeds, arms = [16, 17, 18, 19], [0, 1, 2, 3, 4], ("meta", "random")
    jobs = []
    for seed in seeds:
        for ident in idents:
            ref = dataset.reference_of(ident)
            rrng = make_rng(seed * 977 + ident)
            lmd_rand = [init_factors(rrng, d1, d2, cfg.r1, cfg.r2).l_meta_down
                        for d1, d2 in model.dims]
            jobs += [Stage2Job(result.lmd, ref, seed * 31 + ident),
                     Stage2Job(lmd_rand, ref, seed * 31 + ident)]
    runs = iter(run_stage2_many(model, jobs, schedule, cfg))
    installed = [layer.factors for layer in model.layers]
    generated = {}  # (seed, arm, identity, prompt) -> generated latent
    try:
        for seed in seeds:
            for ident in idents:
                for arm in arms:
                    model.set_factors(*next(runs).factors)
                    for p in range(dataset.n_prompts):
                        generated[(seed, arm, ident, p)] = generate(
                            model, schedule, p, make_rng(1000 * seed + 10 * ident + p))
    finally:
        model.set_factors(*installed)

    embedder = ToyEmbedder(dataset.d, seed=1234)
    refs = {i: dataset.reference_of(i).x0 for i in idents}
    tests = {i: [e.x0 for e in dataset.of_identity(i) if e.split == "test"] for i in idents}
    manifest = EvalManifest([IdentityEntry(str(i), refs[i], tests[i]) for i in idents],
                            [f"p{p}" for p in range(dataset.n_prompts)])
    ident_of = {id(refs[i]): i for i in idents}
    cos = lambda a, b: float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
    robust = {}
    for seed in seeds:
        for arm in arms:
            def gen(ref, prompt, run=(seed, arm)):
                return generated[(*run, ident_of[id(ref)], int(prompt[1:]))]

            rob, conv = facesim_scores(manifest, gen, embedder)
            # nested-loop brute force over the embedder's projection
            items = [(embedder.proj @ gen(refs[i], f"p{p}"), i)
                     for i in idents for p in range(dataset.n_prompts)]
            want_rob = 100.0 * np.mean([np.mean([cos(g, embedder.proj @ t) for t in tests[i]])
                                        for g, i in items])
            want_conv = 100.0 * np.mean([cos(g, embedder.proj @ refs[i]) for g, i in items])
            assert abs(rob.score - want_rob) <= 1e-12 and abs(conv.score - want_conv) <= 1e-12, \
                f"seed {seed} {arm}: {rob.score}, {conv.score} vs brute force " \
                f"{want_rob}, {want_conv}"
            assert rob.failures == 0 and len(rob.table) == len(items)
            robust[(seed, arm)] = rob.score
    gaps = [robust[(s, "meta")] - robust[(s, "random")] for s in seeds]
    table = ", ".join(f"seed {s}: {robust[(s, 'meta')]:.1f} vs {robust[(s, 'random')]:.1f}"
                      for s in seeds)
    wins, median_gap = sum(g > 0 for g in gaps), float(np.median(gaps))
    assert wins >= 4, f"meta R-FaceSim higher in only {wins}/5 seeds ({table})"
    assert median_gap >= 10.0, f"median gap {median_gap:.1f} < 10 points ({table})"
    print(f"FIDELITY: PASS meta above random in {wins}/5 seeds, median gap "
          f"{median_gap:.1f} points; R-FaceSim meta vs random: {table}")


def test_acceptance_6_augmentation_geometry():
    """Unbounded image -> exactly 25 specs; constrained fixtures match the
    brute-force oracle; all rects in-bounds; flip frequency 0.5 +/- 0.015
    over 10^4 draws."""
    plan = plan_crops(100_000, 100_000, FaceBox(5000, 5000, 200, 200))
    assert len(plan) == 25, f"unbounded image produced {len(plan)} specs"
    fixtures = [(4000, 3000, FaceBox(1000, 1000, 300, 400)),
                (700, 700, FaceBox(150, 150, 400, 400)),
                (1024, 1024, FaceBox(10, 900, 100, 100)),
                (1920, 1080, FaceBox(0, 0, 640, 480)),
                (500, 900, FaceBox(100, 200, 50, 300))]
    for iw, ih, face in fixtures:
        got = [s.rect for s in plan_crops(iw, ih, face)]
        want = oracle_plan(iw, ih, face)
        assert got == want, f"oracle mismatch on {iw}x{ih}"
        for x, y, w, h in got:
            assert 0 <= x and 0 <= y and x + w <= iw and y + h <= ih
    spec = CropSpec(0, 0, 64, 64, "1:1", 1.5)
    freq = float(sample_view(make_rng(6), [spec], 10_000)[1].mean())  # stage 2's draw
    assert abs(freq - 0.5) <= 0.015, f"flip frequency {freq}"
    report(6, f"25 specs unbounded; {len(fixtures)} oracle fixtures; "
              f"flip freq {freq:.4f}")


def test_acceptance_7_rfacesim_oracle():
    """Handcrafted fixtures match nested-loop brute force exactly;
    reference-exclusion verified; a reference-copying generator scores 100.0
    conventional but < 100 robust."""
    rng = make_rng(7)
    entries = []
    for i in range(5):
        proto = rng.normal(size=8)
        ref = proto + 0.1 * rng.normal(size=8)
        tests = [proto + 0.1 * rng.normal(size=8) for _ in range(4)]
        entries.append((f"id{i}", ref, tests))
    man = EvalManifest(
        identities=[IdentityEntry(n, r, t) for n, r, t in entries],
        prompts=["p0", "p1"])
    ident = lambda v: np.asarray(v, dtype=np.float64)

    def gen(ref, prompt):
        return ref + (0.02 if prompt == "p1" else 0.0)

    res = r_facesim(man, gen, ident)
    # nested-loop brute force, fully independent
    sims = []
    for name, ref, tests in entries:
        for prompt in ["p0", "p1"]:
            g = gen(ref, prompt)
            per = []
            for t in tests:
                per.append(float(np.dot(g, t) /
                                 (np.linalg.norm(g) * np.linalg.norm(t))))
            sims.append(float(np.mean(per)))
    brute = 100.0 * float(np.mean(sims))
    assert res.score == pytest.approx(brute, abs=1e-12), \
        f"{res.score} vs brute force {brute}"
    # exclusion semantics: orthogonal tests, copying generator
    ref0 = np.array([1.0, 0.0, 0.0])
    man2 = EvalManifest(identities=[IdentityEntry(
        "a", ref0, [np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])])],
        prompts=["p"])
    copy_gen = lambda r, p: r.copy()
    assert r_facesim(man2, copy_gen, ident).score == pytest.approx(0.0, abs=1e-12)
    # inflation phenomenon on the realistic manifest
    conv = facesim_conventional(man, copy_gen, ident)
    rob = r_facesim(man, copy_gen, ident)
    assert conv.score == pytest.approx(100.0, abs=1e-9)
    assert rob.score < 100.0
    report(7, f"brute-force match at 1e-12; copy generator: conventional "
              f"{conv.score:.1f} vs robust {rob.score:.1f}")


def test_acceptance_8_discrepancy_rows():
    """(80.17, 71.33) -> -11.0% and (84.76, 75.72) -> -10.7%, exact at 0.1."""
    a = discrepancy_report(80.17, 71.33)
    b = discrepancy_report(84.76, 75.72)
    assert a == -11.0, f"got {a}"
    assert b == -10.7, f"got {b}"
    report(8, f"(80.17, 71.33) -> {a}%; (84.76, 75.72) -> {b}%")


def test_acceptance_9_determinism_and_persistence(tmp_path):
    """Same seed+config -> byte-identical checkpoints; round trips bit-exact;
    cross-rank loading refused with a typed error."""
    ds = make_dataset(make_rng(7), n_identities=4, d=8,
                      samples_per_identity=6, n_prompts=2)
    schedule = linear_schedule()

    def produce(path):
        model = pretrain_base(ds, schedule, seed=7, hidden=16,
                              loss_threshold=0.9, max_iters=3000, window=50)
        res = run_stage1(model, ds, schedule,
                         TrainConfig(q_total=60, batch_size=4, lr=1e-3, seed=7,
                                     r1=4, r2=1, identities_per_bucket=2),
                         lambda record: None)
        header = {"r1": 4, "seed": 7, "executed_iterations": res.executed_iterations}
        save_layers(path, "stage1", header, {"lmd": res.lmd})
        return model

    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    model = produce(p1)
    produce(p2)
    assert p1.read_bytes() == p2.read_bytes(), "same seed, different bytes"
    header, tensors = load_checkpoint(p1)
    p3 = tmp_path / "c.bin"
    save_checkpoint(p3, header, tensors)
    assert p1.read_bytes() == p3.read_bytes(), "round trip not bit-exact"
    with pytest.raises(RankError):
        load_stage1(p1, expected_r1=8, expected_dims=model.dims)
    report(9, f"{len(p1.read_bytes())}-byte checkpoints byte-identical; "
              "round trip exact; cross-rank load refused (RankError)")
