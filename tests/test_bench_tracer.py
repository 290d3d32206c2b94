"""The pipeline benchmark's tracer still finds the functions it wraps.

``pipeline_bench/tracer.py`` wraps named metalora functions by attribute; a
rename in the package would otherwise surface only in a traced benchmark run.
The guards on how the training loops call the kernels live here too.
"""

import importlib.util
import sys
from pathlib import Path

import metalora.cli  # noqa: F401  (the benchmark wraps after importing the CLI)
from metalora import adapter, augment, kernels, metatrain, numerics, personalize, toymodel
from metalora.checkpoint import save_layers
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
        numerics.adamw_step(layer.factors.l_mid, grads.l_mid, numerics.AdamWState(lr=0.1))
    finally:
        tracer.uninstall()
    stats = tracer.stats["setup"]
    for name in ("kernels.chain_forward", "kernels.chain_backward", "kernels.adamw_update"):
        assert stats[name]["calls"] >= 1, name
    assert stats["kernels"]["flops"] > 0
    assert (kernels.chain_forward, kernels.chain_backward, kernels.adamw_update) == originals


def test_tracer_counts_the_files_merge_reads_and_writes(tmp_path):
    # the CLI reaches save_checkpoint and load_checkpoint through the
    # checkpoint module's load_layers and save_layers; the tracer must still
    # see each file
    rng = make_rng(0)
    lmd = [rng.normal(size=(2, 5)), rng.normal(size=(2, 4))]
    save_layers(tmp_path / "pers.bin", "personalized",
                {"r1": 2, "r2": 1, "identity": 3},
                {"lmd": lmd, "lm": [rng.normal(size=(1, 2)) for _ in lmd],
                 "lu": [rng.normal(size=(4, 1)), rng.normal(size=(3, 1))]})
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        assert metalora.cli.main(["merge", "--checkpoint", str(tmp_path / "pers.bin"),
                                  "--out", str(tmp_path / "merged.bin"), "--verify"]) == 0
    finally:
        tracer.uninstall()
    stats = tracer.stats["setup"]
    for name, path in (("checkpoint.load", "pers.bin"), ("checkpoint.save", "merged.bin")):
        assert stats.get(name, {}).get("calls") == 1, name
        assert stats[name]["bytes"] == (tmp_path / path).stat().st_size, name


def test_tracer_covers_the_speed_experiment():
    tracer_module = load_tracer_module()
    for module_name, attr, name, _hook in tracer_module.TARGETS:
        owner = sys.modules[module_name]
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name
    for module, attr in ((personalize, "probe_loss"), (personalize, "view_latent"),
                         (toymodel, "time_embedding"), (toymodel, "noisify"),
                         (augment, "sample_view")):
        assert callable(getattr(module, attr)), attr

    rng = make_rng(0)
    dataset = toymodel.make_dataset(rng, n_identities=2, d=4, samples_per_identity=3,
                                    n_prompts=2)
    model = toymodel.ToyDenoiser.build(rng, d=4, hidden=8, n_prompts=2, r1=2, r2=1)
    lmd = [adapter.init_factors(rng, l.factors.d1, l.factors.d2, 2, 1).l_meta_down
           for l in model.layers]
    config = personalize.PersonalizeConfig(q_st2=10, r1=2, r2=1)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        report = personalize.adaptation_speed_experiment(
            model, dataset, [1], lmd, toymodel.linear_schedule(), config, [0, 1, 2])
    finally:
        tracer.uninstall()
    assert len(report["seeds"]) == 3
    stats = tracer.stats["setup"]
    for name in ("kernels.chain_forward", "kernels.chain_backward", "kernels.adamw_update"):
        assert stats[name]["calls"] >= 10, name
    assert stats["kernels"]["flops"] > 0


def test_one_stacked_step_per_training_iteration():
    # pretraining (batch 8) and stage 1 (batch 4) each make one diffusion_loss
    # call per iteration, and it makes one chain_forward and one
    # chain_backward call per layer, whatever the batch size; a stage-1
    # iteration makes one AdamW update for the identities' mid/up factors
    # and one per shared down factor. A stage-2 iteration without a probe,
    # alone or in lockstep, makes one step (two chain_forward and two
    # chain_backward calls) and one AdamW update.
    tracer_module = load_tracer_module()
    rng = make_rng(0)
    dataset = toymodel.make_dataset(rng, n_identities=4, d=4, samples_per_identity=3,
                                    n_prompts=2)
    schedule = toymodel.linear_schedule()
    config = metatrain.TrainConfig(q_total=12, batch_size=4, r1=2, r2=1,
                                   identities_per_bucket=2)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        # a threshold every loss meets: exactly `window` iterations
        model = toymodel.pretrain_base(dataset, schedule, seed=1, hidden=8,
                                       batch_size=8, loss_threshold=1e9,
                                       max_iters=50, window=5)
        tracer.set_phase("stage1")
        result = metatrain.run_stage1(model, dataset, schedule, config, lambda record: None)
        stage2 = personalize.PersonalizeConfig(q_st2=70, r1=2, r2=1)  # crosses a block
        tracer.set_phase("stage2_lone")
        personalize.run_stage2(model, result.lmd, dataset.reference_of(0), schedule, stage2)
        tracer.set_phase("stage2_lockstep")
        personalize.run_stage2_many(model, [
            personalize.Stage2Job(result.lmd, dataset.reference_of(i), i) for i in range(3)],
            schedule, stage2)
    finally:
        tracer.uninstall()
    assert tracer.stats["setup"]["toymodel.pretrain_base"]["iterations"] == 5
    for phase, iterations in (("setup", 5), ("stage1", result.executed_iterations)):
        stats = tracer.stats[phase]
        assert stats["toymodel.diffusion_loss"]["calls"] == iterations, phase
        assert stats["kernels.chain_forward"]["calls"] == 2 * iterations, phase
        assert stats["kernels.chain_backward"]["calls"] == 2 * iterations, phase
    adamw_calls = tracer.stats["stage1"]["kernels.adamw_update"]["calls"]
    assert adamw_calls <= 3 * result.executed_iterations
    for phase in ("stage2_lone", "stage2_lockstep"):
        stats = tracer.stats[phase]
        assert stats["kernels.chain_forward"]["calls"] == 2 * 70, phase
        assert stats["kernels.chain_backward"]["calls"] == 2 * 70, phase
        assert stats["kernels.adamw_update"]["calls"] == 70, phase


def test_each_stage_requests_only_the_gradients_it_trains(monkeypatch):
    # pretraining trains w0 only; stage 1 trains mid/up, and the shared down
    # factors while the warm-up gate is open; stage 2 trains mid/up only.
    # Layer 2 also needs its input gradient for backprop, layer 1 never does.
    # A request is the names of the filled out slots, and "x" for dx=True.
    calls = []
    backward = kernels.chain_backward

    def spy(*args, **kwargs):
        layer = 1 if args[0].shape == (8, 4 + toymodel.TEMB_DIM + 2) else 2
        slots = zip(("lmd", "lm", "lu", "w0"), kwargs["out"])
        calls.append((layer, {name for name, slot in slots if slot is not None}
                      | ({"x"} if kwargs.get("dx") else set())))
        return backward(*args, **kwargs)

    monkeypatch.setattr(kernels, "chain_backward", spy)
    rng = make_rng(0)
    dataset = toymodel.make_dataset(rng, n_identities=4, d=4, samples_per_identity=3,
                                    n_prompts=2)
    schedule = toymodel.linear_schedule()
    model = toymodel.pretrain_base(dataset, schedule, seed=1, hidden=8, batch_size=8,
                                   loss_threshold=1e9, max_iters=50, window=5)
    assert calls == [(2, {"w0", "x"}), (1, {"w0"})] * 5

    calls.clear()
    config = metatrain.TrainConfig(q_total=12, batch_size=4, r1=2, r2=1,
                                   identities_per_bucket=2)
    trace = []
    result = metatrain.run_stage1(model, dataset, schedule, config, trace.append)
    gates = [record.lomd_updated for record in trace]
    assert any(gates) and not all(gates)
    want = []
    for gate in gates:
        trained = {"lu", "lm", "lmd"} if gate else {"lu", "lm"}
        want += [(2, trained | {"x"}), (1, trained)]
    assert calls == want

    calls.clear()
    config = personalize.PersonalizeConfig(q_st2=10, r1=2, r2=1)
    jobs = [personalize.Stage2Job(result.lmd, dataset.reference_of(i), i) for i in range(3)]
    personalize.run_stage2_many(model, jobs, schedule, config)
    assert calls == [(2, {"lu", "lm", "x"}), (1, {"lu", "lm"})] * 10
