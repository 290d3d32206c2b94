"""Single-example personalization: frozen shared factors, export, speed."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from metalora import kernels, personalize
from metalora.adapter import AdaptedLayer, AdapterFactors, init_factors
from metalora.augment import FaceBox, plan_crops, sample_view
from metalora.checkpoint import save_layers
from metalora.errors import (CheckpointError,
                             MetaLoraError, NumericError, RankError)
from metalora.metatrain import TrainConfig, fresh_identity_params, run_stage1, split_params
from metalora.numerics import AdamWState, adamw_step, make_rng, checksum
from metalora.personalize import (DRAW_BLOCK, PersonalizeConfig, Stage2Job,
                                  adaptation_speed_experiment,
                                  iterations_to_threshold, load_stage1,
                                  make_probe, probe_loss, run_stage2,
                                  run_stage2_many, threshold_reached,
                                  view_latent)
from metalora.toymodel import (TEMB_DIM, Example, ToyDenoiser, generate, linear_schedule,
                               make_dataset, noisify, pretrain_base, time_embedding)

from test_acceptance import merged_forward


@pytest.fixture(scope="module")
def world():
    ds = make_dataset(make_rng(0), n_identities=4, d=8,
                      samples_per_identity=6, n_prompts=2)
    schedule = linear_schedule()
    model = pretrain_base(ds, schedule, seed=1, hidden=16, loss_threshold=0.9,
                          max_iters=3000, window=50)
    res = run_stage1(model, ds, schedule,
                     TrainConfig(q_total=80, batch_size=4, lr=1e-3, seed=2,
                                 r1=4, r2=1, identities_per_bucket=2), lambda record: None)
    return ds, schedule, model, res.lmd


def pcfg(**kw):
    defaults = dict(q_st2=40, r1=4, r2=1, lr=5e-3, seed=0)
    defaults.update(kw)
    return PersonalizeConfig(**defaults)


def whole_curve(cfg):
    """``cfg`` with tau_fraction = 0, which no positive probe loss reaches: its
    runs train q_st2 iterations and give their whole probe curves."""
    return replace(cfg, tau_fraction=0.0)


def probed_run(model, lmd, ref, schedule, cfg, probe):
    """A lone probed run of q_st2 iterations, with its whole probe curve."""
    return run_stage2_many(model, [Stage2Job(lmd, ref, cfg.seed, probe)], schedule,
                           whole_curve(cfg))[0]


class TestLoadStage1:
    def save(self, tmp_path, lmd, r1=4, kind="stage1"):
        path = tmp_path / "s1.bin"
        header = {"r1": r1, "seed": 0, "config_hash": "x", "executed_iterations": 80}
        save_layers(path, kind, header, {"lmd": lmd} if kind == "stage1" else {"w0": lmd})
        return path

    def test_round_trip_bit_identical_and_frozen(self, world, tmp_path):
        ds, schedule, model, lmd = world
        path = self.save(tmp_path, lmd)
        dims = [(l.factors.d1, l.factors.d2) for l in model.layers]
        loaded = load_stage1(path, expected_r1=4, expected_dims=dims)
        for a, b in zip(loaded, lmd):
            assert np.array_equal(a, b)
            with pytest.raises(ValueError):
                a[0, 0] = 1.0  # write-protected

    def test_rank_mismatch_refused(self, world, tmp_path):
        ds, schedule, model, lmd = world
        path = self.save(tmp_path, lmd, r1=4)
        dims = [(l.factors.d1, l.factors.d2) for l in model.layers]
        with pytest.raises(RankError):
            load_stage1(path, expected_r1=8, expected_dims=dims)

    def test_wrong_kind_refused(self, world, tmp_path):
        ds, schedule, model, lmd = world
        path = self.save(tmp_path, lmd, kind="base")
        dims = [(l.factors.d1, l.factors.d2) for l in model.layers]
        with pytest.raises(CheckpointError):
            load_stage1(path, expected_r1=4, expected_dims=dims)

    def test_truncated_file_reports_offset(self, world, tmp_path):
        ds, schedule, model, lmd = world
        path = self.save(tmp_path, lmd)
        blob = path.read_bytes()
        cut = tmp_path / "cut.bin"
        cut.write_bytes(blob[:len(blob) - 20])
        dims = [(l.factors.d1, l.factors.d2) for l in model.layers]
        with pytest.raises(CheckpointError) as exc:
            load_stage1(cut, expected_r1=4, expected_dims=dims)
        assert exc.value.offset is not None
        assert "offset" in str(exc.value)


class TestMakeProbe:
    def test_matches_per_sample_build_bit_for_bit(self, world):
        # the seed's own draws, t then the noise per held-out sample, and
        # each input column built from x_t = sqrt(ab) x0 + sqrt(1 - ab) eps,
        # time_embedding and a one-hot prompt code
        ds, schedule, model, _lmd = world
        inp, eps = make_probe(model, ds, 3, schedule, seed=11)
        rng, ab = make_rng(11), schedule.alpha_bar
        samples = [e for e in ds.of_identity(3) if e.split == "test"]
        cols, noise = [], []
        for e in samples:
            t = int(rng.integers(schedule.T))
            n = rng.normal(0.0, 1.0, size=e.x0.shape)
            onehot = np.zeros(model.n_prompts)
            onehot[e.prompt_id] = 1.0
            x_t = np.sqrt(ab[t]) * e.x0 + np.sqrt(1.0 - ab[t]) * n
            cols.append(np.concatenate([x_t, time_embedding(t, schedule.T), onehot]))
            noise.append(n)
        assert inp.shape == (model.d + TEMB_DIM + model.n_prompts, len(samples)) == (18, 5)
        assert inp.tobytes() == np.stack(cols, axis=1).tobytes()
        assert eps.tobytes() == np.stack(noise, axis=1).tobytes()
        assert inp.flags.c_contiguous and eps.flags.c_contiguous


class TestRunStage2:
    def test_lmd_frozen_bit_identical(self, world):
        ds, schedule, model, lmd = world
        frozen = [m.copy() for m in lmd]
        for m in frozen:
            m.setflags(write=False)
        ref = ds.reference_of(0)
        res = run_stage2(model, frozen, ref, schedule, pcfg())
        assert res.lmd_checksum_before == res.lmd_checksum_after
        for a, b in zip(frozen, lmd):
            assert np.array_equal(a, b)

    def test_iteration_zero_is_base_model(self, world):
        # zero-init up factor: the probe loss before any step equals the
        # plain base model's probe loss exactly
        ds, schedule, model, lmd = world
        ref = ds.reference_of(1)
        probe = make_probe(model, ds, 1, schedule, seed=5)
        base_f = [init_factors(make_rng(0), d1, d2, 4, 1, mode="zero")
                  for d1, d2 in model.dims]
        base = probe_loss(*model.operands()[:2],
                          [(f.l_meta_down, f.l_mid, f.l_up) for f in base_f], probe)
        res = probed_run(model, lmd, ref, schedule, pcfg(), probe)
        assert res.probe_losses[0] == pytest.approx(base, abs=1e-15)

    def test_heldout_loss_improves(self, world):
        ds, schedule, model, lmd = world
        ref = ds.reference_of(2)
        probe = make_probe(model, ds, 2, schedule, seed=6)
        res = probed_run(model, lmd, ref, schedule, pcfg(q_st2=150), probe)
        assert len(res.probe_losses) == 151
        assert res.probe_losses[-1] < res.probe_losses[0]

    def test_export_equivalence(self, world):
        ds, schedule, model, lmd = world
        ref = ds.reference_of(0)
        res = run_stage2(model, lmd, ref, schedule, pcfg())
        rng = make_rng(77)
        for li, layer in enumerate(model.layers):
            layer.factors = res.factors[li]
            for _ in range(10):
                x = rng.standard_normal((layer.factors.d1, 4))
                a = layer.forward(x)
                b = merged_forward(layer.w0, res.merged[li], x)
                assert np.max(np.abs(a - b)) <= 1e-12
            # merged rank bound
            sv = np.linalg.svd(res.merged[li].up @ res.merged[li].down,
                               compute_uv=False)
            assert np.sum(sv > 1e-10) <= 1

    def test_best_so_far_non_increasing_over_grid(self, world):
        # the supp-style checkpoint grid, scaled to the toy problem
        ds, schedule, model, lmd = world
        ref = ds.reference_of(3)
        res = run_stage2(model, lmd, ref, schedule, pcfg(q_st2=250))
        grid = [50, 100, 150, 200, 250]
        best = [min(res.train_losses[:q]) for q in grid]
        assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))

    def test_deterministic(self, world):
        ds, schedule, model, lmd = world
        ref = ds.reference_of(0)
        a = run_stage2(model, lmd, ref, schedule, pcfg())
        b = run_stage2(model, lmd, ref, schedule, pcfg())
        assert a.train_losses == b.train_losses
        for fa, fb in zip(a.factors, b.factors):
            assert np.array_equal(fa.l_up, fb.l_up)

    def test_config_validation(self):
        with pytest.raises(MetaLoraError):
            PersonalizeConfig(q_st2=0)
        with pytest.raises(MetaLoraError):
            PersonalizeConfig(r2=0)


def reference_generate(model, schedule, prompt_id, rng):
    """generate one reverse step at a time, each prediction through the
    installed layers' AdaptedLayer.forward, re-read on every step."""
    x = rng.normal(0.0, 1.0, size=model.d)
    ab = schedule.alpha_bar
    for t in range(schedule.T - 1, -1, -1):
        inp = model.conditioned(x[None], [t], [prompt_id], schedule).reshape(-1, 1)
        eps_hat = model.layer2.forward(np.tanh(model.layer1.forward(inp)))[:, 0]
        x0_hat = (x - np.sqrt(1.0 - ab[t]) * eps_hat) / np.sqrt(ab[t])
        if t > 0:
            x = np.sqrt(ab[t - 1]) * x0_hat + np.sqrt(1.0 - ab[t - 1]) * eps_hat
        else:
            x = x0_hat
    return x


class TestGenerate:
    def installs(self, world):
        """Stage-2 factors, their merged export as the chain (down, eye(r2),
        up) and the stage-2 factors with non-contiguous down and up factors."""
        ds, schedule, model, lmd = world
        res = run_stage2(model, lmd, ds.reference_of(1), schedule, pcfg(r2=2))
        merged = [AdapterFactors(m.down, np.eye(m.down.shape[0]), m.up) for m in res.merged]
        strided = [AdapterFactors(np.asfortranarray(f.l_meta_down), f.l_mid,
                                  np.asfortranarray(f.l_up)) for f in res.factors]
        assert not strided[0].l_meta_down.flags.c_contiguous
        return {"stage2": res.factors, "merged": merged, "strided": strided}

    def test_matches_per_step_layer_loop(self, world):
        ds, schedule, model, lmd = world
        for name, factors in self.installs(world).items():
            model.set_factors(*factors)
            for prompt in range(ds.n_prompts):
                got = generate(model, schedule, prompt, make_rng(40 + prompt))
                want = reference_generate(model, schedule, prompt, make_rng(40 + prompt))
                assert got.tobytes() == want.tobytes(), (name, prompt)
            # the installed factors stay as installed, layout too
            assert all(l.factors is f for l, f in zip(model.layers, factors))
        assert not model.layer1.factors.l_meta_down.flags.c_contiguous


class TestViewLatent:
    def test_deterministic_per_rect_flip(self):
        x0 = make_rng(0).normal(size=8)
        a = view_latent(x0, (1, 2, 3, 4), False, 0.05)
        b = view_latent(x0, (1, 2, 3, 4), False, 0.05)
        c = view_latent(x0, (1, 2, 3, 4), True, 0.05)
        d = view_latent(x0, (1, 2, 3, 5), False, 0.05)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_strength_scales_perturbation(self):
        x0 = make_rng(1).normal(size=8)
        small = view_latent(x0, (0, 0, 2, 2), False, 0.01) - x0
        large = view_latent(x0, (0, 0, 2, 2), False, 0.1) - x0
        assert np.allclose(large, 10 * small)


def loop_smooth(values, window):
    """The trailing moving average one entry at a time: entry i is the mean
    of the last ``window`` values up to i, fewer at the start."""
    arr = np.asarray(values, dtype=np.float64)
    out = np.empty_like(arr)
    for i in range(len(arr)):
        lo = max(0, i - window + 1)
        out[i] = arr[lo:i + 1].mean()
    return out


class TestIterationsToThreshold:
    def test_tau_one_is_zero_iterations(self):
        losses = [1.0, 0.9, 0.8]
        assert iterations_to_threshold(losses, tau_fraction=1.0, window=1) == 0

    def test_simple_crossing(self):
        losses = [1.0, 0.8, 0.6, 0.45, 0.4]
        assert iterations_to_threshold(losses, 0.5, window=1) == 3

    def test_sentinel_when_never_reached(self):
        losses = [1.0] * 10
        assert iterations_to_threshold(losses, 0.5, window=3) == 10

    def test_smoothing_suppresses_spikes(self):
        # one early downward spike must not count as crossing when smoothed
        losses = [1.0, 0.1, 1.0, 1.0, 1.0, 1.0]
        assert iterations_to_threshold(losses, 0.5, window=1) == 1
        assert iterations_to_threshold(losses, 0.5, window=4) == 6

    def test_threshold_reached_matches_hand_average(self):
        # smoothed with window 2: 4, 3, 4 against 0.75 x 4
        curves = np.array([[4.0, 2.0, 6.0]])
        got = [bool(threshold_reached(curves, row, 0.75, 2)[0]) for row in range(3)]
        assert got == [False, True, False]

    def test_threshold_reached_matches_loop_bit_for_bit(self):
        # every row of four variants of a curve at tau = 1, where the first
        # value is the threshold: a random fraction of the first value, and
        # the loop's mean at a row whose window leaves the first value out,
        # exactly and one ulp either side. Only a mean with the loop's bits
        # decides the last three right
        rng = make_rng(17)
        cases = [(1, 1), (5, 1), (5, 5), (5, 6), (3, 40), (376, 15)]
        cases += [(int(rng.integers(1, 501)), int(rng.integers(1, 40)))
                  for _ in range(200)]
        ties = 0
        for length, window in cases:
            curve = rng.exponential(size=length) * rng.uniform(1e-3, 1e3)
            # the loop's means at the rows whose window leaves the first value
            # out, which the four variants share
            tail = loop_smooth(curve, window)[window:]
            firsts = [rng.uniform() * curve[0]]
            if window < length:
                mean = tail[int(rng.integers(len(tail)))]
                firsts += [mean, np.nextafter(mean, 0.0), np.nextafter(mean, np.inf)]
            curves = np.column_stack([firsts, np.tile(curve[1:], (len(firsts), 1))])
            got = np.array([threshold_reached(curves, row, 1.0, window)
                            for row in range(length)]).T
            smoothed = np.array([np.concatenate([loop_smooth(c[:window], window), tail])
                                 for c in curves])
            assert np.array_equal(got, smoothed <= curves[:, :1]), (length, window)
            ties += int(np.sum(smoothed == curves[:, :1]))
        assert ties > 150

    def test_count_on_a_prefix_is_final_below_its_length(self):
        # what stopping a probed run relies on: on the first L entries of a curve
        # the count is the full curve's count if that is below L, else L
        rng = make_rng(23)
        cases = [(1, 1, 0.5), (5, 1, 0.9), (5, 5, 0.9), (5, 6, 1.0), (3, 40, 0.0),
                 (376, 15, 0.5)]
        cases += [(int(rng.integers(1, 201)), int(rng.integers(1, 40)),
                   float(rng.uniform())) for _ in range(60)]
        crossed = 0
        for length, window, tau in cases:
            decay = np.exp(-rng.uniform(0.0, 0.05) * np.arange(length))
            curve = list(decay * rng.uniform(0.5, 1.5, size=length) * rng.uniform(1e-3, 1e3))
            full = iterations_to_threshold(curve, tau, window)
            crossed += full < length
            for n in range(1, length + 1):
                assert iterations_to_threshold(curve[:n], tau, window) == min(full, n), \
                    (length, window, tau, n)
        assert 10 < crossed < len(cases)

    def test_threshold_reached_row_by_row_gives_the_count_bit_for_bit(self):
        # what a probed run does after each probe row: a curve's first row
        # that threshold_reached marks is its count, the first row whose
        # loop_smooth value is at or below tau x the first value, and
        # iterations_to_threshold gives it. Half the cases put a smoothed
        # value exactly at tau, which only a mean with the loop's bits meets
        rng = make_rng(29)
        ties = 0
        for case in range(160):
            runs, length = int(rng.integers(1, 9)), int(rng.integers(1, 160))
            window = int(rng.integers(1, 40))
            tau = float(rng.choice([0.25, 0.5, 1.0])) if case % 2 else float(rng.uniform())
            decay = np.exp(-rng.uniform(0.0, 0.05, size=(runs, 1)) * np.arange(length))
            curves = decay * rng.uniform(0.5, 1.5, size=(runs, length)) * rng.uniform(1e-3, 1e3)
            tie = int(rng.integers(window, length)) if case % 2 and window < length else None
            if tie is not None:  # tau x the first value is the smoothed value at `tie`
                curves[:, 0] = [c[tie - window + 1:tie + 1].mean() / tau for c in curves]
            first = np.full(runs, length)
            for row in range(length):
                hit = threshold_reached(curves, row, tau, window)
                first[(first == length) & hit] = row
            want = [next((row for row, v in enumerate(loop_smooth(c, window))
                          if v <= tau * c[0]), length) for c in curves]
            assert first.tolist() == want, (case, runs, length, window, tau)
            assert [iterations_to_threshold(list(c), tau, window) for c in curves] == want
            ties += want.count(tie)
        assert ties > 100


class TestSpeedExperiment:
    def test_requires_three_seeds(self, world):
        ds, schedule, model, lmd = world
        with pytest.raises(MetaLoraError):
            adaptation_speed_experiment(model, ds, [0], lmd, schedule,
                                        pcfg(), seeds=[0, 1])

    def test_report_shape(self, world):
        ds, schedule, model, lmd = world
        rep = adaptation_speed_experiment(model, ds, [3], lmd, schedule,
                                          pcfg(q_st2=25), seeds=[0, 1, 2])
        assert rep["max_iterations"] == 25
        assert len(rep["seeds"]) == 3
        assert 0 <= rep["seeds_meta_faster"] <= 3
        never = 26  # q_st2 + 1: the run never reached the threshold
        groups = [(s, s["per_identity"]) for s in rep["seeds"]]
        groups.append((rep, [p for s in rep["seeds"] for p in s["per_identity"]]))
        for summary, per_identity in groups:
            meta = [p["meta_iters"] for p in per_identity]
            rand = [p["random_iters"] for p in per_identity]
            assert all(0 <= v <= never for v in meta + rand)
            assert summary["meta_never_reached"] == meta.count(never)
            assert summary["random_never_reached"] == rand.count(never)
            assert summary["median_meta"] == float(np.median(meta))
            assert summary["median_random"] == float(np.median(rand))


def reference_stage2(model, job, schedule, cfg):
    """Single-run stage 2 of ``job`` under ``cfg`` as the engine must reproduce
    it: every iteration builds its item's input from time_embedding and a
    one-hot code, runs an AdaptedLayer forward/backward per layer and one
    adamw_step per factor; the probe loss of the job's (inputs, noise) goes
    through the same layers. Returns (train losses, probe curve, factors).
    ``model`` is only read."""
    ref, (p_inp, p_eps) = job.reference, job.probe
    rng = make_rng(job.seed)
    specs = plan_crops(ref.image_w, ref.image_h, FaceBox(*ref.face_box))
    factors = []
    for l, shared in zip(model.layers, job.lmd):
        fresh = init_factors(rng, l.factors.d1, l.factors.d2, cfg.r1, cfg.r2, "fresh")
        factors.append(AdapterFactors(shared, fresh.l_mid, fresh.l_up))
    states = [(AdamWState(lr=cfg.lr, weight_decay=cfg.weight_decay),
               AdamWState(lr=cfg.lr, weight_decay=cfg.weight_decay)) for _ in job.lmd]
    layer1, layer2 = (AdaptedLayer(l.w0, f, l.scale)
                      for l, f in zip(model.layers, factors))

    def model_input(x_t, t, prompt_id):
        onehot = np.zeros(model.n_prompts)
        onehot[prompt_id] = 1.0
        return np.concatenate([x_t, time_embedding(t, schedule.T), onehot])

    def probe_point():
        out = layer2.forward(np.tanh(layer1.forward(p_inp)))
        return float(np.mean((out - p_eps) ** 2))

    losses, curve = [], [probe_point()]
    for _ in range(cfg.q_st2):
        view = sample_view(specs[int(rng.integers(len(specs)))], rng)
        x0 = view_latent(ref.x0, view.rect, view.flip, cfg.view_strength)
        t = int(rng.integers(schedule.T))
        x_t, eps = noisify(schedule, x0, t, rng)
        inp = model_input(x_t, t, ref.prompt_id).reshape(-1, 1)
        a = np.tanh(layer1.forward(inp))
        resid = layer2.forward(a)[:, 0] - eps
        losses.append(float(np.mean(resid ** 2)))
        g2 = layer2.backward(a, (2.0 * resid / resid.size).reshape(-1, 1))
        g1 = layer1.backward(inp, g2.x * (1.0 - a * a))
        for f, g, (st_lm, st_lu) in zip(factors, (g1, g2), states):
            adamw_step(f.l_mid, g.l_mid, st_lm)
            adamw_step(f.l_up, g.l_up, st_lu)
        curve.append(probe_point())
    return losses, curve, factors


def speed_runs(model, ds, schedule, idents, lmd_meta, config, seeds):
    """The speed experiment's jobs in its order: the meta then the random arm
    per (seed, identity)."""
    for seed in seeds:
        for ident in idents:
            ref = ds.reference_of(ident)
            probe = make_probe(model, ds, ident, schedule, seed=seed * 10007 + ident)
            rrng = make_rng(seed * 977 + ident)
            lmd_rand = [init_factors(rrng, l.factors.d1, l.factors.d2,
                                     config.r1, config.r2).l_meta_down
                        for l in model.layers]
            yield Stage2Job(lmd_meta, ref, seed * 31 + ident, probe)
            yield Stage2Job(lmd_rand, ref, seed * 31 + ident, probe)


def assert_same_run(res, losses, curve, factors):
    assert res.train_losses == losses
    assert np.array(res.probe_losses).tobytes() == np.array(curve).tobytes()
    for got, want in zip(res.factors, factors):
        assert got.l_mid.tobytes() == want.l_mid.tobytes()
        assert got.l_up.tobytes() == want.l_up.tobytes()
        assert got.l_meta_down is want.l_meta_down


# the configs of TestLockstepEngine's six_jobs, whose runs give their whole
# curves, and of its stopping_jobs
SIX_CFG = pcfg(tau_fraction=0.0)
STOP_CFG = pcfg(tau_fraction=0.99, smoothing_window=1)


class TestLockstepEngine:
    def six_jobs(self, world):
        """Six probed jobs, whose runs under SIX_CFG give their whole curves;
        job 4's reference is another example of its identity."""
        ds, schedule, model, lmd = world
        rand = [init_factors(make_rng(9), l.factors.d1, l.factors.d2, 4, 1).l_meta_down
                for l in model.layers]
        jobs = []
        for k in range(6):
            ident = k % 4
            ref = ds.of_identity(ident)[1] if k == 4 else ds.reference_of(ident)
            jobs.append(Stage2Job(rand if k % 2 else lmd, ref, 100 + k,
                                  make_probe(model, ds, ident, schedule, seed=k)))
        return jobs

    def test_alone_equals_inside_batch(self, world):
        ds, schedule, model, lmd = world
        jobs = self.six_jobs(world)
        batch = run_stage2_many(model, jobs, schedule, SIX_CFG)
        for k in (3, 4):
            alone = run_stage2_many(model, [jobs[k]], schedule, SIX_CFG)[0]
            assert_same_run(batch[k], alone.train_losses, alone.probe_losses,
                            alone.factors)
            assert len(alone.probe_losses) == 41

    def test_matches_single_run_reference(self, world):
        ds, schedule, model, lmd = world
        job = self.six_jobs(world)[1]
        res = run_stage2_many(model, [job], schedule, SIX_CFG)[0]
        assert_same_run(res, *reference_stage2(model, job, schedule, SIX_CFG))

    def test_matches_single_run_reference_across_draw_blocks(self, world):
        # two block boundaries and a short last block, for one run and for
        # three runs of which the first and the last share a stream (one
        # seed, one reference object)
        ds, schedule, model, lmd = world
        cfg = pcfg(q_st2=2 * DRAW_BLOCK + 3, tau_fraction=0.0)
        rand = self.six_jobs(world)[1].lmd
        ref = ds.reference_of(2)
        lone = [Stage2Job(lmd, ref, 7, make_probe(model, ds, 2, schedule, seed=1))]
        three = [Stage2Job(lmd, ref, 0, make_probe(model, ds, 2, schedule, seed=2)),
                 Stage2Job(rand, ds.reference_of(3), 0,
                           make_probe(model, ds, 3, schedule, seed=3)),
                 Stage2Job(rand, ref, 0, make_probe(model, ds, 2, schedule, seed=4))]
        for jobs in (lone, three):
            for res, job in zip(run_stage2_many(model, jobs, schedule, cfg), jobs):
                assert_same_run(res, *reference_stage2(model, job, schedule, cfg))

    def test_negative_lr_raises_before_any_iteration(self, world, monkeypatch):
        ds, schedule, model, lmd = world
        calls = []
        forward = kernels.chain_forward
        monkeypatch.setattr(kernels, "chain_forward",
                            lambda *args: calls.append(None) or forward(*args))
        with pytest.raises(ValueError, match="lr must be >= 0"):
            probed_run(model, lmd, ds.reference_of(0), schedule, pcfg(lr=-1e-3),
                       make_probe(model, ds, 0, schedule, seed=0))
        assert not calls

    def test_does_not_touch_model(self, world):
        ds, schedule, model, lmd = world
        before = [(l.factors, checksum(l.w0)) for l in model.layers]
        run_stage2(model, lmd, ds.reference_of(0), schedule, pcfg(q_st2=5))
        assert [(l.factors, checksum(l.w0)) for l in model.layers] == before

    def test_speed_experiment_matches_per_run_loop(self, world):
        ds, schedule, model, lmd = world
        config, idents, seeds = pcfg(q_st2=40), [2, 3], [0, 1, 2]
        rep = adaptation_speed_experiment(model, ds, idents, lmd, schedule,
                                          config, seeds)
        jobs = list(speed_runs(model, ds, schedule, idents, lmd, config, seeds))
        batch = run_stage2_many(model, jobs, schedule, whole_curve(config))
        want = []
        for res, job in zip(batch, jobs):
            losses, curve, factors = reference_stage2(model, job, schedule, config)
            assert_same_run(res, losses, curve, factors)
            want.append(iterations_to_threshold(curve, config.tau_fraction,
                                                config.smoothing_window))
        got = [v for s in rep["seeds"] for p in s["per_identity"]
               for v in (p["meta_iters"], p["random_iters"])]
        assert got == want

    # blocks: where the runs stop, counted from 0, with block 3 for a run that
    # trains q_st2 iterations; ids: lr-tau-window and the last stop's block
    # counted from 1, or None if a run trains q_st2 iterations
    @pytest.mark.parametrize("lr, tau, window, blocks", [
        (2e-2, 0.995, 5, {0}),          # every run stops inside the first block
        (1e-2, 0.98, 1, {0, 1, 2}),     # runs stop in each of the three blocks
        (1e-2, 0.98, 5, {0, 1, 2, 3}),  # and one run never crosses
        (2e-2, 0.0, 5, {3})],           # no run crosses
        ids=["0.02-0.995-5-1", "0.01-0.98-1-3", "0.01-0.98-5-None", "0.02-0.0-5-None"])
    def test_speed_experiment_stops_at_its_answer(self, world, monkeypatch,
                                                  lr, tau, window, blocks):
        ds, schedule, model, lmd = world
        q = 3 * DRAW_BLOCK + 5
        config = pcfg(q_st2=q, lr=lr, tau_fraction=tau, smoothing_window=window)
        idents, seeds = [2, 3], [0, 1, 2]
        rows, views = [], []  # the runs each AdamW update moves; the views drawn
        adamw, draw = kernels.adamw_update, personalize.sample_view
        monkeypatch.setattr(kernels, "adamw_update",
                            lambda *args: rows.append(len(args[0])) or adamw(*args))
        monkeypatch.setattr(personalize, "sample_view",
                            lambda *args: views.append(None) or draw(*args))
        rep = adaptation_speed_experiment(model, ds, idents, lmd, schedule, config, seeds)
        monkeypatch.undo()

        jobs = list(speed_runs(model, ds, schedule, idents, lmd, config, seeds))
        full = run_stage2_many(model, jobs, schedule, whole_curve(config))
        want = [iterations_to_threshold(res.probe_losses, tau, window) for res in full]
        trained = [min(count, q) for count in want]
        assert {(count - 1) // DRAW_BLOCK for count in want} == blocks
        # iteration `it` moves only the runs that train past it
        assert rows == [sum(t > it for t in trained) for it in range(max(trained))]
        assert sum(rows) == sum(trained)
        # the two arms of a (seed, identity) replay one stream, which draws
        # the blocks that one of them trains in
        assert len(views) == sum(min(q, -(-max(pair) // DRAW_BLOCK) * DRAW_BLOCK)
                                 for pair in zip(trained[0::2], trained[1::2]))
        # the report of full-length runs, each counted on its whole curve
        for res, count in zip(full, want):
            res.iters_to_threshold = count
        monkeypatch.setattr(personalize, "run_stage2_many", lambda *args, **kw: full)
        assert rep == adaptation_speed_experiment(model, ds, idents, lmd, schedule,
                                                  config, seeds)
        monkeypatch.undo()

        # a stopped run is a full one cut at its own count, and a lone run
        # of that many iterations, which reports the same count
        stopped = run_stage2_many(model, jobs, schedule, config)
        for res, long, job, count, iters in zip(stopped, full, jobs, want, trained):
            assert res.iters_to_threshold == count
            assert res.train_losses == long.train_losses[:iters]
            assert res.probe_losses == long.probe_losses[:iters + 1]
            lone = run_stage2_many(model, [job], schedule, replace(config, q_st2=iters))[0]
            assert lone.iters_to_threshold == count
            assert_same_run(res, lone.train_losses, lone.probe_losses, lone.factors)

    @pytest.mark.parametrize("tau", [1.0, 0.0])  # the config schema's limits
    def test_speed_experiment_at_the_tau_fraction_limits(self, world, monkeypatch, tau):
        # 1.0: the first probe value is its own threshold, so every count is
        # 0 and nothing trains; 0.0: no loss reaches 0, so every run trains
        # q_st2 iterations and reports q_st2 + 1
        ds, schedule, model, lmd = world
        q, idents, seeds = 70, [2, 3], [0, 1, 2]
        config = pcfg(q_st2=q, tau_fraction=tau)
        rows = []
        adamw = kernels.adamw_update
        monkeypatch.setattr(kernels, "adamw_update",
                            lambda *args: rows.append(len(args[0])) or adamw(*args))
        rep = adaptation_speed_experiment(model, ds, idents, lmd, schedule, config, seeds)
        monkeypatch.undo()
        count = 0 if tau == 1.0 else q + 1
        runs = 2 * len(idents) * len(seeds)
        assert rows == ([] if tau == 1.0 else [runs] * q)
        assert rep["max_iterations"] == q and rep["seeds_meta_faster"] == 0
        assert [s["seed"] for s in rep["seeds"]] == seeds
        for summary in rep["seeds"] + [rep]:
            assert summary["median_meta"] == summary["median_random"] == float(count)
            never = len(idents) * (len(seeds) if summary is rep else 1) * (tau == 0.0)
            assert summary["meta_never_reached"] == summary["random_never_reached"] == never
        for s in rep["seeds"]:
            assert s["per_identity"] == [{"identity": i, "meta_iters": count,
                                          "random_iters": count} for i in idents]

        jobs = list(speed_runs(model, ds, schedule, idents, lmd, config, seeds))
        full = run_stage2_many(model, jobs, schedule, whole_curve(config))
        stopped = run_stage2_many(model, jobs, schedule, config)
        for res, long, job in zip(stopped, full, jobs):
            assert res.iters_to_threshold == count
            assert res.train_losses == long.train_losses[:count]
            assert res.probe_losses == long.probe_losses[:count + 1]
            if tau == 1.0:  # the run's fresh factors, drawn first from its seed
                fresh = fresh_identity_params(make_rng(job.seed), model.dims, 4, 1)
                for f, (lm, lu) in zip(res.factors, split_params(fresh[None], model.dims, 4, 1)):
                    assert f.l_mid.tobytes() == lm[0].tobytes()
                    assert f.l_up.tobytes() == lu[0].tobytes()
            else:
                assert_same_run(res, long.train_losses, long.probe_losses, long.factors)

    def test_jobs_must_agree_on_the_probe(self, world):
        ds, schedule, model, lmd = world
        jobs = self.six_jobs(world)
        with pytest.raises(MetaLoraError, match="job 1: either every job"):
            run_stage2_many(model, [jobs[0], replace(jobs[1], probe=None)], schedule,
                            SIX_CFG)
        short = tuple(a[:, 1:] for a in jobs[2].probe)
        with pytest.raises(MetaLoraError, match=r"job 2: probe shapes \[\(18, 4\), \(8, 4\)\], "
                                                r"job 0's \[\(18, 5\), \(8, 5\)\]"):
            run_stage2_many(model, jobs[:2] + [replace(jobs[2], probe=short)],
                            schedule, SIX_CFG)
        with pytest.raises(MetaLoraError, match="no jobs"):
            run_stage2_many(model, [], schedule, SIX_CFG)

    def stopping_jobs(self, world):
        """Three probed jobs whose runs under STOP_CFG stop after 8, 26 and 22
        iterations: from iteration 8 on, job 2 trains in row 1 of the stack."""
        ds, schedule, model, lmd = world
        jobs = [Stage2Job(lmd, ds.reference_of(i), i,
                          make_probe(model, ds, i, schedule, seed=i)) for i in range(3)]
        counts = [res.iters_to_threshold
                  for res in run_stage2_many(model, jobs, schedule, STOP_CFG)]
        assert counts == [8, 26, 22]
        return jobs

    def test_non_finite_loss_names_job_and_iteration(self, world, monkeypatch):
        ds, schedule, model, lmd = world
        ref = ds.reference_of(0)
        bad = Example(identity=0, x0=np.full(ref.x0.shape, np.nan),
                      prompt_id=ref.prompt_id, split="reference",
                      image_w=ref.image_w, image_h=ref.image_h, face_box=ref.face_box)
        jobs = [Stage2Job(lmd, ref, 0), Stage2Job(lmd, bad, 1)]
        with pytest.raises(NumericError, match="job 1: non-finite loss at "
                                              "stage-2 iteration 0"):
            run_stage2_many(model, jobs, schedule, pcfg())

        # after job 0 stopped, job 2's loss in the stack's last row
        jobs = self.stopping_jobs(world)
        rows = []
        step = personalize.train_step

        def poisoned(*args, **kwargs):
            losses, grads = step(*args, **kwargs)
            rows.append(len(losses))
            if len(rows) == 10 + 1:  # iteration 10
                losses[-1] = np.nan
            return losses, grads

        monkeypatch.setattr(personalize, "train_step", poisoned)
        with pytest.raises(NumericError, match="job 2: non-finite loss at "
                                              "stage-2 iteration 10"):
            run_stage2_many(model, jobs, schedule, STOP_CFG)
        assert rows[-1] == 2

    def test_non_finite_gradient_names_job_and_iteration(self, world, monkeypatch):
        ds, schedule, model, lmd = world
        jobs = [Stage2Job(lmd, ds.reference_of(i), i) for i in range(3)]
        calls = []
        backward = kernels.chain_backward

        def poisoned(*args, **kwargs):
            grads = backward(*args, **kwargs)
            calls.append(None)
            if len(calls) == 2 * 5 + 1:  # layer 2 of iteration 5
                grads[1][2, 0, 0] = np.inf
            return grads

        monkeypatch.setattr(kernels, "chain_backward", poisoned)
        with pytest.raises(NumericError, match="job 2: non-finite gradient at "
                                              "stage-2 iteration 5"):
            run_stage2_many(model, jobs, schedule, pcfg())
        monkeypatch.undo()

        # after job 0 stopped, job 2's gradient in the stack's last row
        jobs = self.stopping_jobs(world)
        calls.clear()

        def poisoned_late(*args, **kwargs):
            grads = backward(*args, **kwargs)
            calls.append(len(grads[1]))
            if len(calls) == 2 * 10 + 1:  # layer 2 of iteration 10
                grads[1][-1, 0, 0] = np.inf
            return grads

        monkeypatch.setattr(kernels, "chain_backward", poisoned_late)
        with pytest.raises(NumericError, match="job 2: non-finite gradient at "
                                              "stage-2 iteration 10"):
            run_stage2_many(model, jobs, schedule, STOP_CFG)
        assert calls[-1] == 2


class TestDrawAhead:
    """Streams shared by (seed, reference object), one view table per
    reference object per call, and draws made in fixed-size blocks ahead of
    the lockstep loop."""

    def test_same_seed_different_references_do_not_share_a_stream(self, world):
        ds, schedule, model, lmd = world
        a, b = ds.reference_of(0), ds.reference_of(1)
        twin = replace(a)  # another object with a's latent and geometry
        cfg = pcfg(q_st2=70)  # crosses a draw block
        jobs = [Stage2Job(lmd, r, cfg.seed) for r in (a, b, a, twin)]
        batch = run_stage2_many(model, jobs, schedule, cfg)
        for res, job in zip(batch, jobs):
            alone = run_stage2(model, lmd, job.reference, schedule, cfg)
            assert_same_run(res, alone.train_losses, alone.probe_losses, alone.factors)
        assert batch[0].train_losses == batch[2].train_losses == batch[3].train_losses
        assert batch[0].train_losses != batch[1].train_losses

    def test_jobs_with_one_seed_and_references_draw_once(self, world, monkeypatch):
        ds, schedule, model, lmd = world
        ref = ds.reference_of(2)
        calls = []
        draw = personalize.sample_view

        def spy(spec, rng):
            calls.append(None)
            return draw(spec, rng)

        monkeypatch.setattr(personalize, "sample_view", spy)
        rand = [init_factors(make_rng(3), l.factors.d1, l.factors.d2, 4, 1).l_meta_down
                for l in model.layers]
        run_stage2_many(model, [Stage2Job(lmd, ref, 4), Stage2Job(rand, ref, 4),
                                Stage2Job(lmd, ref, 5)], schedule, pcfg())
        assert len(calls) == 2 * 40  # two streams of q_st2 draws

    def test_each_reference_is_planned_and_viewed_once_per_call(self, world, monkeypatch):
        # 12 jobs over four reference objects, a twin and a moved face box
        # among them: one crop plan per object and one view_latent per spec
        # and flip of it, and every run equals a lone run
        ds, schedule, model, lmd = world
        a, b = ds.reference_of(0), ds.reference_of(1)
        refs = [a, b, replace(a), replace(a, face_box=(0, 0, 300, 200))]
        specs = [len(plan_crops(r.image_w, r.image_h, FaceBox(*r.face_box))) for r in refs]
        plans, views = [], []
        plan, compute = personalize.plan_crops, personalize.view_latent
        monkeypatch.setattr(personalize, "plan_crops",
                            lambda *args: plans.append(None) or plan(*args))
        monkeypatch.setattr(personalize, "view_latent",
                            lambda *args: views.append(None) or compute(*args))
        cfg = pcfg(q_st2=5)
        jobs = [Stage2Job(lmd, r, s) for s in range(3) for r in refs]
        batch = run_stage2_many(model, jobs, schedule, cfg)
        monkeypatch.undo()
        assert len(plans) == len(refs)
        assert len(views) == 2 * sum(specs)
        for res, job in zip(batch, jobs):
            alone = run_stage2(model, lmd, job.reference, schedule,
                               replace(cfg, seed=job.seed))
            assert_same_run(res, alone.train_losses, alone.probe_losses, alone.factors)

    def test_inputs_are_built_once_per_block_per_stream(self, world, monkeypatch):
        # three jobs on two streams: each block of draws makes one
        # conditioned call over (block iterations) x (streams) rows
        ds, schedule, model, lmd = world
        rand = [init_factors(make_rng(3), l.factors.d1, l.factors.d2, 4, 1).l_meta_down
                for l in model.layers]
        ref = ds.reference_of(1)
        q_st2 = 2 * DRAW_BLOCK + 3
        rows = []
        conditioned = ToyDenoiser.conditioned

        def spy(self, x_t, *args):
            rows.append(len(x_t))
            return conditioned(self, x_t, *args)

        monkeypatch.setattr(ToyDenoiser, "conditioned", spy)
        run_stage2_many(model, [Stage2Job(lmd, ref, 4), Stage2Job(lmd, ref, 5),
                                Stage2Job(rand, ref, 4)], schedule, pcfg(q_st2=q_st2))
        assert len(rows) == -(-q_st2 // DRAW_BLOCK)
        assert rows == [2 * DRAW_BLOCK, 2 * DRAW_BLOCK, 2 * 3]

    def test_peak_memory_does_not_grow_with_q_st2(self):
        # at d = 32, the noise of 1,800 more iterations drawn ahead for two
        # streams would take 0.9 MB; the loss curves' floats take about 0.1 MB
        rng = make_rng(4)
        model = ToyDenoiser.build(rng, d=32, hidden=16, n_prompts=2, r1=4)
        lmd = [init_factors(rng, l.factors.d1, l.factors.d2, 4, 1).l_meta_down
               for l in model.layers]
        refs = [Example(identity=i, x0=rng.normal(size=32), prompt_id=i, split="reference")
                for i in range(2)]
        schedule = linear_schedule()

        def peak(q_st2):
            jobs = [Stage2Job(lmd, r, i) for i, r in enumerate(refs)]
            tracemalloc.start()
            try:
                run_stage2_many(model, jobs, schedule, pcfg(q_st2=q_st2, lr=1e-4))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(20)  # first-call allocations
        growth = peak(2000) - peak(200)
        assert growth < 300_000, growth
