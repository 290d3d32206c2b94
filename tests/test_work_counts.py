"""Work counts per iteration, pinned by a table.

A small world's pretraining, stage 1, a lone stage-2 run and a lockstep of
probed stage-2 runs each run at two lengths under ``sys.setprofile``, which
counts their Python calls (``call`` events: a function, or a generator
resumed) and C calls (``c_call``: a builtin function or method, such as
``np.zeros``, ``ndarray.copy`` or ``np.add.reduce``). A ufunc called directly
(``np.add``, ``np.tanh``, ``@``) is not a builtin function, and Python 3.11
reports no event for it, so it is not counted.
The long run's count minus the short run's is the work of the iterations
between them. The difference cancels one-time costs, and each stage runs once
at its long length before it is counted, so no first-call import or cache
fills inside a count and the order of tests does not matter.

Counts do not move with layout or load, as timings do; they move with the
code and with Python's and numpy's own wrappers. So the table holds for one
(Python minor version, numpy version). Under that key every stage's
differences must equal the table's. Under any other key the test only checks
that two counts of a stage agree. The test id and every message name the
contract checked.

A change that moves a count updates the table and says why. The table is an
observation, not a speed gate: a count may rise for a good reason.
"""

import gc
import sys

import numpy as np
import pytest

from metalora import metatrain, personalize, toymodel
from metalora.errors import ConvergenceError
from metalora.numerics import make_rng

KEY = (f"{sys.version_info.major}.{sys.version_info.minor}", np.__version__)

# each stage's two lengths, in iterations; stage 1's are whole bucket entries
# of the world's 30 iterations each
LENGTHS = {"pretrain": (64, 128), "stage1": (60, 120), "stage2": (64, 128),
           "lockstep": (64, 128)}

# key -> stage -> (Python calls, C calls) of the long length minus the short
TABLE = {
    ("3.11", "2.4.6"): {
        # pretrain and stage1: the kernels write the shared gradients into
        # the trainers' flat AdamW buffers, each stepped by one
        # kernels.adamw_update call, with no per-tensor optimizer step and no
        # gradient copy in between. pretrain: -4 Python calls per iteration
        # (adamw_step, its state's buffer check, the step that copied the
        # gradients, and the comprehension that listed them) and -1 C call
        # (np.ascontiguousarray). stage1 saves as much on its 36 iterations
        # with the gate open, less IdentityBank.update_shared's call, and
        # IdentityBank.chains gathers the four mid/up blocks in place of
        # a row gather and split_params: -1 Python and -12 C calls (len,
        # list.append and ndarray.reshape per block) on all 60.
        # stage1: the audit's one change test, IdentityBank._checksums, finds
        # the changed rows of the identities and of the shared factors (a
        # one-row table) with ndarray.nonzero, not np.flatnonzero's Python
        # wrappers: -6.2 Python and -4 C calls per iteration. stage2: the flip
        # is sample_view's bool, with no View record or CropSpec.rect read:
        # -2 Python calls per iteration. lockstep: the same on each of its 4
        # streams, -8 Python calls, and each probe row one probe_loss call in
        # place of the inline record_probe: +1 C call (its len) per iteration.
        # every stage: chain_backward reads its out slots for the gradients
        # to compute, with no need set to check (isinstance, issuperset) or
        # intersect (isdisjoint per branch): -7 C calls per iteration in
        # pretrain, whose layer 1 takes one branch fewer, -8 in the others.
        # every stage: each random stream draws a block's quantities as a few
        # arrays, not one iteration or one item at a time (drawn_batches'
        # per-item t and noise draws, draw_block's four draws and a
        # sample_view call per iteration and stream). pretrain: -11.7 Python
        # and -20.9 C calls per iteration; stage1: -8.0 and -13.5; stage2:
        # -0.8 and -3.9; lockstep, over its 4 streams: -3.4 and -15.5
        "pretrain": (1886, 1557),
        "stage1": (3601, 4190),
        "stage2": (541, 414),
        "lockstep": (1214, 1721),
    },
}

CONTRACT = "table" if KEY in TABLE else "two-counts-agree"


@pytest.fixture(scope="module")
def world():
    """Each stage's run, a function of its length, in a 6-identity world of
    8-dim latents, a 16-wide base of random frozen weights, ``r1 = 4`` and
    ``r2 = 1``."""
    dataset = toymodel.make_dataset(make_rng(0), n_identities=6, d=8,
                                    samples_per_identity=6, n_prompts=2)
    schedule = toymodel.linear_schedule()
    train_set = toymodel.subset_dataset(dataset, list(range(4)))
    model = toymodel.ToyDenoiser.build(make_rng(1), d=8, hidden=16, n_prompts=2, r1=4)
    for layer in model.layers:
        layer.freeze_base()
    lmd = metatrain.run_stage1(model, train_set, schedule, metatrain.TrainConfig(
        q_total=30, r1=4, identities_per_bucket=2), lambda record: None).lmd
    reference = dataset.reference_of(4)
    probe = personalize.make_probe(model, dataset, 4, schedule, seed=0)

    def pretrain(n):
        try:  # a threshold of 0 is never reached, so every run spends its budget
            toymodel.pretrain_base(train_set, schedule, seed=2, hidden=16,
                                   loss_threshold=0.0, max_iters=n, window=8)
        except ConvergenceError:
            pass

    def stage1(n):
        metatrain.run_stage1(model, train_set, schedule, metatrain.TrainConfig(
            q_total=n, r1=4, identities_per_bucket=2), lambda record: None)

    def stage2(n):
        personalize.run_stage2(model, lmd, reference, schedule,
                               personalize.PersonalizeConfig(q_st2=n, r1=4))

    def lockstep(n):  # tau_fraction = 0: no run stops before q_st2
        jobs = [personalize.Stage2Job(lmd, reference, seed, probe) for seed in range(4)]
        personalize.run_stage2_many(model, jobs, schedule, personalize.PersonalizeConfig(
            q_st2=n, r1=4, tau_fraction=0.0))

    return {"pretrain": pretrain, "stage1": stage1, "stage2": stage2, "lockstep": lockstep}


def counted(run, n) -> tuple[int, int]:
    """The Python and C calls of ``run(n)``, with the cyclic garbage collector
    off, so that no collection runs a finalizer inside the count."""
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        run(n)
    finally:
        sys.setprofile(None)
        gc.enable()
    return counts["call"], counts["c_call"]


def difference(run, lengths) -> tuple[int, int]:
    """The Python and C calls of the long length minus those of the short."""
    short, long = lengths
    run(long)  # a first run fills every cache and imports what it needs
    (py_short, c_short), (py_long, c_long) = counted(run, short), counted(run, long)
    return py_long - py_short, c_long - c_short


def per_iteration(calls: int, iterations: int, what: str) -> str:
    """``calls`` over ``iterations`` as a signed rate, such as "+1 C call per iteration"."""
    rate = calls / iterations
    return f"{rate:+g} {what} call{'' if abs(rate) == 1 else 's'} per iteration"


@pytest.mark.parametrize("stage", list(LENGTHS), ids=lambda stage: f"{stage}-{CONTRACT}")
def test_work_counts(world, stage):
    run, lengths = world[stage], LENGTHS[stage]
    got = difference(run, lengths)
    want = TABLE[KEY][stage] if CONTRACT == "table" else difference(run, lengths)
    iterations = lengths[1] - lengths[0]
    drift = ", ".join(per_iteration(g - w, iterations, what)
                      for g, w, what in zip(got, want, ("Python", "C")) if g != w)
    assert got == want, (
        f"{stage}: {drift} ({CONTRACT} contract on Python {KEY[0]}, numpy {KEY[1]}: "
        f"{got} calls over iterations {lengths[0]}-{lengths[1]}, against {want})")
