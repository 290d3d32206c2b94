"""Toy conditional denoiser: schedule, noising, losses, base pretraining."""

import tracemalloc
from itertools import combinations, repeat

import numpy as np
import pytest

from metalora import toymodel
from metalora.adapter import AdaptedLayer, AdapterFactors, init_factors
from metalora.errors import ConvergenceError, NumericError
from metalora.metatrain import IdentityBank, TrainConfig, split_params
from metalora.numerics import AdamWState, adamw_step, make_rng
from metalora.toymodel import (DRAW_BLOCK, TRAINED, DiffusionSchedule, Example, ToyDenoiser,
                               diffusion_loss, drawn_batches, forward, generate,
                               linear_schedule,
                               make_dataset, noisify, pretrain_base,
                               subset_dataset, time_embedding, train_step)


class TestSchedule:
    def test_linear_schedule_endpoints(self):
        s = linear_schedule(T=50)
        assert s.T == 50
        assert s.alpha_bar[0] == pytest.approx(0.999)
        assert s.alpha_bar[-1] == pytest.approx(0.01)

    def test_strictly_decreasing_enforced(self):
        with pytest.raises(ValueError):
            DiffusionSchedule(np.array([0.9, 0.9, 0.5]))

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            DiffusionSchedule(np.array([1.2, 0.5]))
        with pytest.raises(ValueError):
            DiffusionSchedule(np.array([0.5, 0.0]))


class TestNoisify:
    def test_zero_latent_pure_noise_scaling(self):
        # x0 = 0 so x_t = sqrt(1-ab_t) * eps exactly.
        s = linear_schedule()
        x0 = np.zeros(8)
        x_t, eps = noisify(s, x0, 10, make_rng(0))
        assert np.allclose(x_t, np.sqrt(1 - s.alpha_bar[10]) * eps)

    def test_timestep_range(self):
        s = linear_schedule(T=5)
        with pytest.raises(ValueError):
            noisify(s, np.zeros(4), 5, make_rng(0))
        with pytest.raises(ValueError):
            noisify(s, np.zeros(4), -1, make_rng(0))

    def test_second_moment_monte_carlo(self):
        # E|x_t|^2 per dim = ab_t * x0_i^2 + (1 - ab_t); check within 5%
        # over 10^4 draws.
        s = linear_schedule()
        t = 25
        x0 = np.full(4, 2.0)
        rng = make_rng(7)
        acc = np.zeros(4)
        n = 10_000
        for _ in range(n):
            x_t, _ = noisify(s, x0, t, rng)
            acc += x_t ** 2
        want = s.alpha_bar[t] * 4.0 + (1 - s.alpha_bar[t])
        assert np.all(np.abs(acc / n - want) / want < 0.05)

    def test_time_embedding_shape_and_range(self):
        e = time_embedding(3, 50)
        assert e.shape == (8,)
        assert np.all(np.abs(e) <= 1.0)
        assert not np.array_equal(time_embedding(3, 50), time_embedding(4, 50))


def small_dataset(seed=0, **kw):
    defaults = dict(n_identities=4, d=8, samples_per_identity=6, n_prompts=2)
    defaults.update(kw)
    return make_dataset(make_rng(seed), **defaults)


class TestDataset:
    def test_shapes_and_splits(self):
        ds = small_dataset()
        assert ds.n_identities == 4 and ds.d == 8
        assert len(ds.examples) == 24
        for i in range(4):
            ex = ds.of_identity(i)
            assert len(ex) == 6
            assert sum(e.split == "reference" for e in ex) == 1
            assert ds.reference_of(i).split == "reference"

    def test_perturbation_scale(self):
        ds = small_dataset()
        mean_norm = float(np.mean(np.linalg.norm(ds.prototypes, axis=1)))
        assert ds.perturbation_std == pytest.approx(0.1 * mean_norm / np.sqrt(8))

    def test_prototype_separation(self):
        ds = small_dataset()
        diffs = ds.prototypes[:, None, :] - ds.prototypes[None, :, :]
        dists = np.linalg.norm(diffs, axis=2)
        np.fill_diagonal(dists, np.inf)
        assert dists.min() >= 4.0 * ds.perturbation_std

    def test_single_prototype_control(self):
        ds = small_dataset(single_prototype=True)
        assert np.all(ds.prototypes == ds.prototypes[0])

    def test_subset_renumbers(self):
        ds = small_dataset()
        sub = subset_dataset(ds, [2, 3])
        assert sub.n_identities == 2
        assert {e.identity for e in sub.examples} == {0, 1}
        assert np.array_equal(sub.prototypes[0], ds.prototypes[2])

    def test_face_boxes_inside_image(self):
        ds = small_dataset()
        for e in ds.examples:
            x, y, w, h = e.face_box
            assert 0 <= x and 0 <= y and x + w <= e.image_w and y + h <= e.image_h


def stage1_factors(model, identities, seed):
    """Per-identity chains over one shared down factor per layer, with
    non-zero up factors."""
    rng = make_rng(seed)
    r1, r2 = model.layer1.factors.l_meta_down.shape[0], model.layer1.factors.l_mid.shape[0]
    dims = [(l.factors.d1, l.factors.d2) for l in model.layers]
    lmd = [init_factors(rng, d1, d2, r1, r2).l_meta_down for d1, d2 in dims]
    factors = {}
    for i in identities:
        factors[i] = []
        for li, (d1, d2) in enumerate(dims):
            f = init_factors(rng, d1, d2, r1, r2, "fresh")
            factors[i].append(AdapterFactors(lmd[li], f.l_mid,
                                             0.3 * rng.normal(size=f.l_up.shape)))
    return factors


def batch_operands(factors, batch):
    """diffusion_loss's per-layer (lmd, lm, lu) for a batch: the shared down
    factor and each item's identity's mid and up factors, stacked."""
    chains = [factors[item.identity] for item in batch]
    return [(chains[0][li].l_meta_down, np.stack([c[li].l_mid for c in chains]),
             np.stack([c[li].l_up for c in chains])) for li in range(2)]


def batch_inputs(model, batch, schedule, rng):
    """diffusion_loss's inputs and noise for a batch, drawn as the training
    loops draw them: each item its t, then its noise, in batch order. The
    batch is noised and conditioned at once."""
    ts = np.empty(len(batch), dtype=np.intp)
    eps = np.empty((len(batch), model.d))
    for k in range(len(batch)):
        ts[k] = rng.integers(schedule.T)
        eps[k] = rng.normal(0.0, 1.0, size=model.d)
    x0 = np.stack([item.x0 for item in batch])
    return model.noised_inputs(x0, ts, [item.prompt_id for item in batch], eps, schedule), eps


def per_item_reference(model, batch, schedule, rng, factors=None):
    """diffusion_loss item by item: each item's own conditioning and an
    AdaptedLayer forward/backward per layer. Returns the loss and, per layer,
    the items' (d_lmd, d_lm, d_lu, dw0) stacked."""
    n, d, T = len(batch), model.d, schedule.T
    total = 0.0
    grads = [[], []]
    for item in batch:
        t = int(rng.integers(T))
        x_t, eps = noisify(schedule, item.x0, t, rng)
        chain = (factors[item.identity] if factors is not None
                 else [l.factors for l in model.layers])
        l1, l2 = (AdaptedLayer(l.w0, f, l.scale) for l, f in zip(model.layers, chain))
        onehot = np.zeros(model.n_prompts)
        onehot[item.prompt_id] = 1.0
        inp = np.concatenate([x_t, time_embedding(t, T), onehot]).reshape(-1, 1)
        a = np.tanh(l1.forward(inp))
        resid = l2.forward(a)[:, 0] - eps
        total += float(np.mean(resid ** 2))
        g2 = l2.backward(a, (2.0 * resid / (d * n)).reshape(-1, 1))
        g1 = l1.backward(inp, g2.x * (1.0 - a * a))
        for li, g in enumerate((g1, g2)):
            grads[li].append((g.l_meta_down, g.l_mid, g.l_up, g.w0))
    return total / n, [[np.stack(gs) for gs in zip(*layer)] for layer in grads]


def rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-12)
    return np.max(np.abs(a - b)) / denom


class TestDenoiser:
    def test_zero_factors_identity_agnostic(self):
        # With zeroed adapter factors the prediction depends only on
        # (x_t, t, prompt), never on identity: the base net has no identity
        # input at all, so two models built identically agree, and the
        # prediction is the bare base network's.
        m = ToyDenoiser.build(make_rng(1), d=8, hidden=16, n_prompts=2, r1=4, r2=1)
        twin = ToyDenoiser.build(make_rng(1), d=8, hidden=16, n_prompts=2, r1=4, r2=1)
        s = linear_schedule(50)
        x = make_rng(2).normal(size=8)
        inp = [m.conditioned(x[None], [3], [p], s).reshape(-1, 1) for p in (0, 1)]
        a = forward(*m.operands(), inp[0])
        assert np.array_equal(a, forward(*twin.operands(), inp[0]))
        assert np.array_equal(a, m.layer2.w0 @ np.tanh(m.layer1.w0 @ inp[0]))
        assert not np.array_equal(a, forward(*m.operands(), inp[1]))  # prompt matters
        assert np.array_equal(generate(m, s, 0, make_rng(3)), generate(twin, s, 0, make_rng(3)))

    def test_oracle_predictor_gives_zero_loss(self):
        # noise equal to the network's own prediction: zero loss, and zero
        # gradients for every item and parameter
        ds = small_dataset()
        s = linear_schedule()
        m = ToyDenoiser.build(make_rng(3), d=8, hidden=16, n_prompts=2, r1=4, r2=1)
        chain = stage1_factors(m, [0], seed=4)[0]
        m.set_factors(*chain)
        rng = make_rng(5)
        x_t = rng.normal(size=(4, 8))
        ts = [int(t) for t in rng.integers(s.T, size=4)]
        prompts = [e.prompt_id for e in ds.examples[:4]]
        inp = m.conditioned(x_t, ts, prompts, s)
        # each item's own forward: one column, as train_step runs each item
        eps = np.stack([forward(*m.operands(), row[:, None])[:, 0] for row in inp])
        losses, layer_grads = train_step(
            [l.w0 for l in m.layers], [l.scale for l in m.layers],
            [tuple(np.stack([t] * 4) for t in (f.l_meta_down, f.l_mid, f.l_up)) for f in chain],
            inp[:, :, None], eps, 4)
        assert np.count_nonzero(losses) == 0
        for grads in layer_grads:
            for g in grads:
                assert np.count_nonzero(g) == 0

    def test_zero_adapter_matches_base_loss(self):
        # Fresh factors have a zero up factor, so loss equals the zero-mode
        # baseline exactly under the same RNG stream.
        ds = small_dataset()
        s = linear_schedule()
        rng = make_rng(5)
        m = ToyDenoiser.build(rng, d=8, hidden=16, n_prompts=2, r1=4, r2=1)
        inp, eps = batch_inputs(m, ds.examples[:4], s, make_rng(6))
        loss_zero, _ = diffusion_loss(*m.operands(), inp, eps)
        f1 = init_factors(make_rng(7), m.layer1.factors.d1, 16, 4, 1, "fresh")
        f2 = init_factors(make_rng(8), 16, 8, 4, 1, "fresh")
        loss_fresh, _ = diffusion_loss(*m.operands()[:2], [(f.l_meta_down, f.l_mid, f.l_up)
                                                           for f in (f1, f2)], inp, eps)
        assert loss_fresh == pytest.approx(loss_zero, abs=1e-15)

    def test_need_keeps_the_bits_of_the_requested_gradients(self):
        # each trained tensor alone, and the three stages' requests: the
        # requested gradients have the default call's bits, the rest are None
        ds = small_dataset()
        s = linear_schedule()
        m = ToyDenoiser.build(make_rng(3), d=8, hidden=16, n_prompts=2, r1=4, r2=1)
        factors = [(f.l_meta_down, f.l_mid, f.l_up)
                   for f in stage1_factors(m, [0], seed=4)[0]]
        inp, eps = batch_inputs(m, ds.examples[:4], s, make_rng(6))
        _, full = diffusion_loss(*m.operands()[:2], factors, inp, eps)
        names = ("lmd", "lm", "lu", "w0")  # the order of each layer's gradients
        for need in ({"lm"}, {"lu"}, {"lmd"}, {"w0"}, {"lu", "lm"}, {"lu", "lm", "lmd"}):
            _, got = diffusion_loss(*m.operands()[:2], factors, inp, eps, need=need)
            for want_layer, got_layer in zip(full, got):
                for name, want, g in zip(names, want_layer, got_layer):
                    if name in need:
                        assert g.tobytes() == want.tobytes(), (need, name)
                    else:
                        assert g is None, (need, name)

    def test_out_buffer_holds_the_bits_of_the_returned_gradients(self):
        # every subset of the trained tensors, stage-1 operands: the needed
        # mid/up gradients are written into split_params' views of a flat
        # buffer and returned as them, with the bits of a call without the
        # buffer; the views of gradients left out are not written
        ds = small_dataset()
        m = ToyDenoiser.build(make_rng(3), d=8, hidden=16, n_prompts=2, r1=4, r2=2)
        bank = IdentityBank(m, 2, TrainConfig(r1=4, r2=2), make_rng(10))
        bank.params[:] = 0.3 * make_rng(11).normal(size=bank.params.shape)
        batch = [ds.of_identity(0)[1], ds.of_identity(1)[2], ds.of_identity(0)[3]]
        ids = np.array([item.identity for item in batch])
        inp, eps = batch_inputs(m, batch, linear_schedule(), make_rng(6))
        operands = ([l.w0 for l in m.layers], [l.scale for l in m.layers],
                    bank.operands(ids), inp[:, :, None], eps, len(ids))
        names = ("lmd", "lm", "lu", "w0")  # the order of each layer's gradients
        for need in (set(c) for k in range(5) for c in combinations(sorted(TRAINED), k)):
            want_losses, want = train_step(*operands, need=need)
            buf = np.full((len(ids), bank.params.shape[1]), np.nan)
            views = split_params(buf, *bank.layout)
            losses, got = train_step(*operands, need=need, out=views)
            assert losses.tobytes() == want_losses.tobytes()
            for want_layer, got_layer, layer_views in zip(want, got, views):
                for name, w, g in zip(names, want_layer, got_layer):
                    if name in need:
                        assert g.tobytes() == w.tobytes(), (need, name)
                    else:
                        assert g is None, (need, name)
                for name, g, view in zip(names[1:3], got_layer[1:3], layer_views):
                    if name in need:
                        assert g is view, (need, name)
                    else:
                        assert np.isnan(view).all(), (need, name)

    @pytest.mark.parametrize("need", [{"x"}, {"lu", "x"}, {"mid"}])
    def test_need_names_only_trained_tensors(self, need):
        ds = small_dataset()
        m = ToyDenoiser.build(make_rng(0), d=8, hidden=16, n_prompts=2, r1=4, r2=1)
        with pytest.raises(ValueError):
            diffusion_loss(*m.operands(),
                           *batch_inputs(m, ds.examples[:2], linear_schedule(), make_rng(0)),
                           need=need)

    def test_empty_batch_rejected(self):
        m = ToyDenoiser.build(make_rng(0), d=8, hidden=16, n_prompts=2, r1=4, r2=1)
        with pytest.raises(ValueError, match="empty batch"):
            diffusion_loss(*m.operands(), np.empty((0, m.layer1.w0.shape[1])),
                           np.empty((0, m.d)))

    def test_nonfinite_loss_reports_batch_index(self):
        ds = small_dataset()
        bad = Example(identity=0, x0=np.full(8, np.inf), prompt_id=0, split="test")
        m = ToyDenoiser.build(make_rng(0), d=8, hidden=16, n_prompts=2, r1=4, r2=1)
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="index 1"):
            diffusion_loss(*m.operands(), *batch_inputs(m, [ds.examples[0], bad],
                                                        linear_schedule(), make_rng(0)))

    def test_model_gradients_match_finite_differences(self):
        # Central differences through diffusion_loss (stage-1 mode, through
        # the tanh) on every trained tensor of both layers: the identity
        # bank's flat mid/up rows, the shared down factor and the base
        # weight. Identity 0 appears twice, so its row's gradient and the
        # shared sums both add more than one item, and the flat gradient
        # layout must match the parameter layout.
        ds = small_dataset()
        s = linear_schedule()
        m = ToyDenoiser.build(make_rng(9), d=8, hidden=16, n_prompts=2, r1=4, r2=2)
        bank = IdentityBank(m, 2, TrainConfig(r1=4, r2=2), make_rng(10))
        bank.params[:] = 0.3 * make_rng(11).normal(size=bank.params.shape)
        batch = [ds.of_identity(0)[1], ds.of_identity(1)[2], ds.of_identity(0)[3]]
        ids = np.array([item.identity for item in batch])
        inp, eps = batch_inputs(m, batch, s, make_rng(42))

        def loss(out=None):
            return diffusion_loss(*m.operands()[:2], bank.operands(ids), inp, eps, out=out)

        item_grads = np.empty((len(ids), bank.params.shape[1]))
        _, layer_grads = loss(split_params(item_grads, *bank.layout))
        rows = np.zeros_like(bank.params)
        np.add.at(rows, ids, item_grads)
        checks = [(rows, bank.params)]
        for layer, lmd, (d_lmd, *_, dw0) in zip(m.layers, bank.lmd, layer_grads):
            checks += [(dw0.sum(axis=0), layer.w0), (d_lmd.sum(axis=0), lmd)]
        h = 1e-5
        for analytic, param in checks:
            fd = np.zeros_like(param)
            for idx in np.ndindex(param.shape):
                orig = param[idx]
                param[idx] = orig + h
                fp, _ = loss()
                param[idx] = orig - h
                fm, _ = loss()
                param[idx] = orig
                fd[idx] = (fp - fm) / (2 * h)
            assert np.max(np.abs(fd)) > 0
            assert rel_err(analytic, fd) <= 1e-4

    @pytest.mark.parametrize("mode", ["pretraining", "stage1"])
    def test_matches_per_item_reference_bit_for_bit(self, mode):
        ds = small_dataset()
        s = linear_schedule()
        m = ToyDenoiser.build(make_rng(11), d=8, hidden=16, n_prompts=2, r1=4, r2=2)
        factors = stage1_factors(m, range(ds.n_identities), seed=12)
        if mode == "pretraining":
            m.set_factors(*factors[0])
            factors = None
        w0s, scales, own = m.operands()
        pick = make_rng(13)
        for k in range(20):
            batch = [ds.examples[i] for i in pick.integers(len(ds.examples), size=6)]
            chains = own if factors is None else batch_operands(factors, batch)
            loss, layer_grads = diffusion_loss(w0s, scales, chains,
                                               *batch_inputs(m, batch, s, make_rng(k)))
            want_loss, want_grads = per_item_reference(m, batch, s, make_rng(k),
                                                       factors=factors)
            assert loss == want_loss
            for got, ref in zip(layer_grads, want_grads):
                assert [g.tobytes() for g in got] == [r.tobytes() for r in ref]

    def test_operands_are_only_read(self):
        # every array diffusion_loss is given keeps its bytes: the base
        # weights, each layer's shared down and stacked mid/up factors, the
        # inputs and the noise
        ds = small_dataset()
        m = ToyDenoiser.build(make_rng(14), d=8, hidden=16, n_prompts=2, r1=4, r2=1)
        factors = stage1_factors(m, range(ds.n_identities), seed=16)
        w0s, scales, _ = m.operands()
        chains = batch_operands(factors, ds.examples[:6])
        inp, eps = batch_inputs(m, ds.examples[:6], linear_schedule(), make_rng(15))
        arrays = [*w0s, *(a for chain in chains for a in chain), inp, eps]
        snapshot = [a.tobytes() for a in arrays]
        diffusion_loss(w0s, scales, chains, inp, eps)
        assert [a.tobytes() for a in arrays] == snapshot


def reference_pretrain(dataset, schedule, seed, hidden, loss_threshold, max_iters,
                       window, lr=2e-3, batch_size=8):
    """pretrain_base item by item: each iteration draws its picks, then each
    item's t and noise (per_item_reference), and makes one adamw_step per
    base weight on the items' gradients summed in item order onto zeros."""
    rng = make_rng(seed)
    model = ToyDenoiser.build(rng, d=dataset.d, hidden=hidden, n_prompts=dataset.n_prompts,
                              r1=min(16, dataset.d, hidden), factor_mode="zero")
    states = [AdamWState(lr=lr) for _ in model.layers]
    recent = []
    for _ in range(max_iters):
        idxs = rng.integers(len(dataset.examples), size=batch_size)
        loss, layer_grads = per_item_reference(model, [dataset.examples[i] for i in idxs],
                                               schedule, rng)
        for layer, (_, _, _, dw0), state in zip(model.layers, layer_grads, states):
            adamw_step(layer.w0, sum(dw0, np.zeros(dw0.shape[1:])), state)
        recent = (recent + [loss])[-window:]
        if len(recent) == window and float(np.mean(recent)) < loss_threshold:
            return model
    raise ConvergenceError(
        f"pretraining did not reach loss {loss_threshold} within {max_iters} "
        f"iterations (windowed loss {np.mean(recent):.4f})")


class TestPretrain:
    # every loss meets 1e9, so the run stops after exactly `window`
    # iterations; at 0.9 it stops after 69, in the second block
    @pytest.mark.parametrize("window, threshold, max_iters", [
        (37, 1e9, 3000), (2 * DRAW_BLOCK + 9, 1e9, 3000), (20, 0.9, 3000)],
        ids=["stops_mid_block", "past_two_blocks", "stops_on_its_loss"])
    def test_matches_item_by_item_reference(self, window, threshold, max_iters):
        # the last block is drawn past the stop; nothing reads the random
        # stream after the loop, so the reference, which draws no further,
        # has the same bits
        ds = small_dataset(seed=20)
        s = linear_schedule()
        got = pretrain_base(ds, s, seed=6, hidden=16, loss_threshold=threshold,
                            max_iters=max_iters, window=window)
        want = reference_pretrain(ds, s, seed=6, hidden=16, loss_threshold=threshold,
                                  max_iters=max_iters, window=window)
        for a, b in zip(got.layers, want.layers):
            assert a.w0.tobytes() == b.w0.tobytes()

    def test_budget_exhaustion_matches_item_by_item_reference(self):
        ds = small_dataset(seed=22)
        s = linear_schedule()
        errors = []
        for train in (pretrain_base, reference_pretrain):
            with pytest.raises(ConvergenceError) as exc:
                train(ds, s, seed=3, hidden=16, loss_threshold=1e-9,
                      max_iters=DRAW_BLOCK + 6, window=10)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]

    def test_memory_does_not_grow_with_the_budget(self):
        # a budget of a million iterations and a stop after five: the loss
        # window and the drawn blocks stay small
        ds = small_dataset(seed=24)
        tracemalloc.start()
        try:
            pretrain_base(ds, linear_schedule(), seed=5, hidden=16, loss_threshold=1e9,
                          max_iters=10**6, window=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_default_size_blocks_are_built_in_buffers(self):
        # three pretraining blocks at the CLI's default sizes (64 iterations
        # x 8 items, d = 32), each row held until the next is drawn, as a
        # training loop holds it: each block is noised and conditioned in
        # the buffers of the first, so the peak stays under 700 KiB (605 KiB
        # measured; a block built anew while the previous one is held peaks
        # at 828 KiB)
        ds = make_dataset(make_rng(0), n_identities=12, d=32, samples_per_identity=20,
                          n_prompts=4)
        model = ToyDenoiser.build(make_rng(1), d=32, hidden=64, n_prompts=4)
        tracemalloc.start()
        try:
            batches = drawn_batches(make_rng(2), model, linear_schedule(),
                                    repeat(ds.examples), batch_size=8)
            for _ in range(3 * DRAW_BLOCK):
                row = next(batches)  # noqa: F841 (held, as a loop variable is)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 700 * 1024, peak

    def test_default_pretraining_peak_memory(self):
        # default pretraining (d = 32, hidden = 64, batch 8) holds one
        # iteration's per-item base gradients at a time: 1,006 KiB measured;
        # holding the previous iteration's through the next step peaked at
        # 1,143 KiB. 300 iterations that never reach a loss of 0 cover four
        # whole draw blocks and the first shift of the loss window (at 264).
        ds = make_dataset(make_rng(0))
        schedule = linear_schedule()
        tracemalloc.start()
        try:
            with pytest.raises(ConvergenceError):
                pretrain_base(ds, schedule, seed=1, loss_threshold=0.0, max_iters=300)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1050 * 1024, peak

    def test_negative_lr_rejected_before_training(self):
        with pytest.raises(ValueError, match="lr must be >= 0"):
            pretrain_base(small_dataset(), linear_schedule(), seed=1, hidden=16, lr=-1.0)

    def test_non_finite_gradient_names_its_iteration(self, monkeypatch):
        # the base weights' gradient turns NaN from iteration 3 on
        calls, step = [], toymodel.train_step

        def poisoned(*args, **kwargs):
            calls.append(None)
            losses, layer_grads = step(*args, **kwargs)
            if len(calls) <= 3:
                return losses, layer_grads
            return losses, [(*g, np.full_like(dw0, np.nan)) for *g, dw0 in layer_grads]

        monkeypatch.setattr(toymodel, "train_step", poisoned)
        with pytest.raises(NumericError, match=r"^pretraining iteration 3: .*non-finite"):
            pretrain_base(small_dataset(), linear_schedule(), seed=1, hidden=16,
                          loss_threshold=0.9, max_iters=3000, window=50)

    def test_pretrain_learns_and_freezes(self):
        ds = small_dataset(seed=20)
        s = linear_schedule()
        m = pretrain_base(ds, s, seed=1, hidden=16, loss_threshold=0.9,
                          max_iters=3000, window=50)
        for layer in m.layers:
            # frozen by write protection alone: the refused writes keep the bits
            frozen = layer.w0.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                layer.w0 += np.zeros_like(layer.w0)
            with pytest.raises(ValueError, match="read-only"):
                adamw_step(layer.w0, np.ones_like(layer.w0), AdamWState())
            assert layer.w0.tobytes() == frozen
        # trained base beats an untrained one on the same batches
        fresh = ToyDenoiser.build(make_rng(1), d=8, hidden=16, n_prompts=2,
                                  r1=4, r2=1)
        l_tr, _ = diffusion_loss(*m.operands(), *batch_inputs(m, ds.examples[:16], s,
                                                              make_rng(99)))
        l_un, _ = diffusion_loss(*fresh.operands(), *batch_inputs(fresh, ds.examples[:16], s,
                                                                  make_rng(99)))
        assert l_tr < l_un

    def test_pretrained_base_owns_its_frozen_memory(self):
        # the trained values are copied into each layer's own array, so no
        # writable buffer behind a frozen base weight can move it
        m = pretrain_base(small_dataset(seed=20), linear_schedule(), seed=1, hidden=16,
                          loss_threshold=0.9, max_iters=3000, window=50)
        for layer in m.layers:
            assert layer.w0.base is None
            assert not layer.w0.flags.writeable

    def test_pretraining_reads_the_model_operands_once(self, monkeypatch):
        calls, operands = [], ToyDenoiser.operands
        monkeypatch.setattr(ToyDenoiser, "operands",
                            lambda model: calls.append(None) or operands(model))
        pretrain_base(small_dataset(seed=20), linear_schedule(), seed=1, hidden=16,
                      loss_threshold=0.9, max_iters=3000, window=50)
        assert len(calls) == 1

    def test_pretrain_deterministic(self):
        ds = small_dataset(seed=21)
        s = linear_schedule()
        a = pretrain_base(ds, s, seed=2, hidden=16, loss_threshold=0.9,
                          max_iters=3000, window=50)
        b = pretrain_base(ds, s, seed=2, hidden=16, loss_threshold=0.9,
                          max_iters=3000, window=50)
        assert np.array_equal(a.layer1.w0, b.layer1.w0)
        assert np.array_equal(a.layer2.w0, b.layer2.w0)

    def test_pretrain_budget_exhaustion(self):
        ds = small_dataset(seed=22)
        with pytest.raises(ConvergenceError):
            pretrain_base(ds, linear_schedule(), seed=3, hidden=16,
                          loss_threshold=1e-9, max_iters=30, window=10)


def reference_generate(model, schedule, prompt_id, rng):
    """The reverse pass with nothing precomputed: per step, the input column
    concatenated anew from the latent, time_embedding and a one-hot code,
    and each coefficient taken with np.sqrt from alpha_bar."""
    operands = model.operands()
    x = rng.normal(0.0, 1.0, size=model.d)
    ab = schedule.alpha_bar
    onehot = np.zeros(model.n_prompts)
    onehot[prompt_id] = 1.0
    for t in range(schedule.T - 1, -1, -1):
        inp = np.concatenate([x, time_embedding(t, schedule.T), onehot]).reshape(-1, 1)
        eps_hat = forward(*operands, inp)[:, 0]
        x0_hat = (x - np.sqrt(1.0 - ab[t]) * eps_hat) / np.sqrt(ab[t])
        if t > 0:
            x = np.sqrt(ab[t - 1]) * x0_hat + np.sqrt(1.0 - ab[t - 1]) * eps_hat
        else:
            x = x0_hat
    return x


class TestGenerate:
    @pytest.mark.parametrize("n_prompts", [1, 4])
    @pytest.mark.parametrize("T", [1, 2, 50])
    @pytest.mark.parametrize("d", [1, 32])
    def test_matches_the_per_step_reverse_pass_bitwise(self, d, T, n_prompts):
        # the schedule's sqrt tables and the column written in place give
        # the bits of coefficients and inputs recomputed at every step, for
        # every prompt, through nonzero factor chains
        r1, r2 = (1, 1) if d == 1 else (4, 2)
        m = ToyDenoiser.build(make_rng(d + T), d=d, hidden=16, n_prompts=n_prompts,
                              r1=r1, r2=r2)
        m.set_factors(*stage1_factors(m, [0], seed=T)[0])
        assert all(np.any(f.l_up) for f in (l.factors for l in m.layers))
        s = linear_schedule(T)
        for p in range(n_prompts):
            got = generate(m, s, p, make_rng(30 + p))
            assert got.shape == (d,)
            assert got.tobytes() == reference_generate(m, s, p, make_rng(30 + p)).tobytes()

    def test_peak_memory_does_not_grow_with_the_steps(self):
        # one input column per call, whatever T: ten times the steps leave
        # the peak within 1 KiB (3.7 KiB at both T measured; a (T, d_in)
        # table of the inputs would add 102 KiB at T = 500, d_in = 26)
        m = ToyDenoiser.build(make_rng(1), d=16, hidden=16, n_prompts=2, r1=4, r2=1)
        peaks = []
        for T in (50, 500):
            s = linear_schedule(T)
            tracemalloc.start()
            try:
                generate(m, s, 1, make_rng(2))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 1024, peaks

    def test_deterministic_given_seed(self):
        ds = small_dataset(seed=23)
        s = linear_schedule()
        m = pretrain_base(ds, s, seed=4, hidden=16, loss_threshold=0.9,
                          max_iters=3000, window=50)
        a = generate(m, s, prompt_id=0, rng=make_rng(11))
        b = generate(m, s, prompt_id=0, rng=make_rng(11))
        assert np.array_equal(a, b)
        assert a.shape == (8,)
        c = generate(m, s, prompt_id=0, rng=make_rng(12))
        assert not np.array_equal(a, c)
