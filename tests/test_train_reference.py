"""``train`` against the per-step, per-tensor loop it replaced.

``train`` keeps the trained components' parameters, Adam moments and
gradients in one flat vector each and runs Adam once per step, and takes a
block of steps' draws from one stream fill (``data.step_batches``).
``reference_train`` below is the loop it replaced: per step,
``sample_indices``, ``augment_rows`` (from ``test_batching``) and
``gaussian_rows``, then
``step_losses_and_grads`` and ``reference_adam_step`` per tensor on named
dicts. Both apply the same IEEE operations to the same values, so every
parameter, moment and stream position must agree bit for bit.
"""

from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from ensad import gan, numkit
from ensad.adapter import EnsAdConfig
from ensad.cli import PIPELINE_PRESET, PRESETS, main
from ensad.data import SyntheticSpec, generate_synthetic, save_jsonl
from ensad.gan import (
    _PHASE2_SALT,
    _PROXY_SALT,
    TRAINABLE_COMPONENTS,
    AdamState,
    GanConfig,
    TrainingDiverged,
    _step_plan,
    finetune_pipeline,
    load_checkpoint,
    param_shapes,
    save_checkpoint,
    step_losses_and_grads,
    train,
)
from ensad.numkit import SeededRng, derive_seed, init_tensors, map_tensors

from test_batching import augment_rows, sample_indices
from test_gan import toy_dataset, toy_setup

STEPS = 24
# Every preset that trains in one phase; the pipeline has its own test.
ONE_PHASE = [p for p in PRESETS if p != PIPELINE_PRESET]


def step_words(ecfg, gcfg):
    """Stream words one training step draws: an index word per item, then
    2*ceil(d/2) per augmented row and 2*ceil(d_z/2) per item."""
    n = gcfg.batch
    noisy = (gcfg.noise_p0 > 0) + ecfg.m * (gcfg.noise_pt > 0)
    return n + n * noisy * 2 * ((ecfg.d + 1) // 2) + n * 2 * ((gcfg.d_z + 1) // 2)


def init_words(ecfg, gcfg, seed):
    rng = SeededRng(seed)
    init_tensors(param_shapes(ecfg, gcfg), rng)
    return rng.position


def set_block(monkeypatch, ecfg, gcfg, block):
    """Set numkit.CACHE_BLOCK for one layout of Adam's blocks and of the
    draws. None keeps the default: each toy component is one Adam block,
    and a 24-step run one block of draws. 7 splits each component into many
    Adam blocks, with a short last block, as the paper's shape splits the
    adapter, and draws one step per block. "five" draws five steps per
    block, so a 24-step run ends on a short block."""
    if block == "five":
        block = 5 * step_words(ecfg, gcfg)
    if block is not None:
        monkeypatch.setattr(numkit, "CACHE_BLOCK", block)


def reference_adam_step(params, grads, state, lr, beta1, beta2, eps=1e-8):
    """Per-tensor Adam, the reference for ``gan.adam_step``: in place on one
    component's ``{name: array}`` parameters, with the moments and step
    count in ``state``."""
    if params.keys() != grads.keys() or params.keys() != state.m.keys():
        raise ValueError("parameter, gradient and state names differ")
    for name, p in params.items():
        if np.shape(p) != np.shape(grads[name]):
            raise ValueError(f"{name}: gradient shape {np.shape(grads[name])} != {np.shape(p)}")
    state.t += 1
    b1c = 1.0 - beta1 ** state.t
    b2c = 1.0 - beta2 ** state.t
    for name, p in params.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= lr * (m / b1c) / (np.sqrt(v / b2c) + eps)
    return params


def reference_train(ds, ecfg, gcfg, seed, resume=None, init_from=None):
    """The per-tensor training loop: returns (params, adam, rng position)."""
    trained = [comp for comp in TRAINABLE_COMPONENTS if comp in gcfg.trainable]
    if resume is not None:
        params = map_tensors(np.copy, resume.params)
        adam = per_component(resume.adam)
        rng = SeededRng(seed, resume.rng_position)
        start = resume.step
    else:
        rng = SeededRng(seed)
        if init_from is None:
            params = init_tensors(param_shapes(ecfg, gcfg), rng)
        else:
            params = map_tensors(lambda a: np.array(a, dtype=np.float64), init_from)
        adam = {comp: AdamState(map_tensors(np.zeros_like, params[comp]),
                                map_tensors(np.zeros_like, params[comp]))
                for comp in trained}
        start = 0
    proxy = None
    if gcfg.enable_clg:
        proxy = SeededRng(derive_seed(seed, _PROXY_SALT)).gaussian(
            ecfg.d * gcfg.d_img).reshape(ecfg.d, gcfg.d_img) / np.sqrt(gcfg.d_img)
    batches = sample_indices(len(ds), gcfg.batch, rng)
    plan = _step_plan(gcfg)
    for _ in range(start, gcfg.steps):
        idx = next(batches)
        h = augment_rows(ds.rows[idx], gcfg.noise_p0, gcfg.noise_pt, rng)
        zs = rng.gaussian_rows(gcfg.batch, gcfg.d_z)
        res = step_losses_and_grads(h, ds.images[idx], zs, params, ecfg, plan, proxy)
        for comp in trained:
            reference_adam_step(params[comp], res.grads[comp], adam[comp],
                                gcfg.lr, gcfg.beta1, gcfg.beta2)
    return params, adam, rng.position


def per_component(adam):
    """A copy of a checkpoint's Adam state as reference_train keeps it: one
    AdamState per trained component."""
    return {comp: AdamState(map_tensors(np.copy, m), map_tensors(np.copy, adam.v[comp]), adam.t)
            for comp, m in adam.m.items()}


def assert_bitwise(ck, params, adam, position):
    assert ck.rng_position == position
    assert ck.params.keys() == params.keys()
    assert ck.adam.m.keys() == ck.adam.v.keys() == adam.keys()
    for comp, tree in params.items():
        assert list(ck.params[comp]) == list(tree)
        for name, want in tree.items():
            got = ck.params[comp][name]
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (comp, name)
    for comp, st in adam.items():
        assert ck.adam.t == st.t
        for got_tree, want_tree in ((ck.adam.m[comp], st.m), (ck.adam.v[comp], st.v)):
            assert list(got_tree) == list(want_tree)
            for name, want in want_tree.items():
                assert got_tree[name].tobytes() == want.tobytes(), (comp, name)


def assert_same_checkpoint(a, b):
    assert_bitwise(a, b.params, per_component(b.adam), b.rng_position)
    assert a.step == b.step


def preset_cfgs(preset, steps=STEPS):
    ecfg, gcfg, _, _, _ = toy_setup()
    return ecfg, replace(gcfg, steps=steps, **PRESETS[preset])


@pytest.mark.parametrize("block", [None, 7, "five"])
@pytest.mark.parametrize("preset", ONE_PHASE)
def test_train_matches_the_per_tensor_loop(preset, block, monkeypatch):
    ds = toy_dataset()
    ecfg, gcfg = preset_cfgs(preset)
    set_block(monkeypatch, ecfg, gcfg, block)
    ck = train(ds, ecfg, gcfg, 5)
    assert_bitwise(ck, *reference_train(ds, ecfg, gcfg, 5))
    assert ck.rng_position == init_words(ecfg, gcfg, 5) + STEPS * step_words(ecfg, gcfg)


# The draws' block layout, and the conditioning: ensad with the default
# trainable components, or a baseline, which reads one row or all, with G
# and D trained.
BLOCKS_AND_CONDITIONING = [
    pytest.param(block, cond, id=str(block) if cond == "ensad" else f"{block}-{cond}")
    for block in (None, "five") for cond in ("ensad", "zero_shot", "translate_test", "mean_pool")]


@pytest.mark.parametrize("block,conditioning", BLOCKS_AND_CONDITIONING)
@pytest.mark.parametrize("noise", [(0.1, 0.01), (0.0, 0.01), (0.1, 0.0), (0.0, 0.0)])
def test_odd_shapes_and_noiseless_rows_keep_the_stream_layout(noise, block, conditioning,
                                                              monkeypatch):
    # odd d and d_z pad each Gaussian row to an even word count; a zero
    # proportion draws no words for its rows, and the words of rows the
    # conditioning does not read are skipped, not drawn
    ds = toy_dataset(d=5)
    ecfg = EnsAdConfig(d=5, d_hid=3, m=2, alpha=0.3)
    gcfg = GanConfig(d=5, d_z=3, d_img=5, gen_hidden=(8, 8), disc_hidden=(8,), batch=3,
                     noise_p0=noise[0], noise_pt=noise[1])
    if conditioning != "ensad":
        gcfg = replace(gcfg, conditioning=conditioning,
                       trainable=frozenset({"generator", "discriminator"}))
    set_block(monkeypatch, ecfg, gcfg, block)
    for steps in (1, 7, STEPS):
        g = replace(gcfg, steps=steps)
        ck = train(ds, ecfg, g, 9)
        assert_bitwise(ck, *reference_train(ds, ecfg, g, 9))
        assert ck.rng_position == init_words(ecfg, g, 9) + steps * step_words(ecfg, g)


def test_both_pipeline_phases_match_the_per_tensor_loop():
    ds = toy_dataset()
    ecfg, gcfg = preset_cfgs("ensad_plus_finetune_g")
    seed = 8
    g1 = replace(gcfg, steps=STEPS, conditioning="zero_shot",
                 trainable=frozenset({"generator", "discriminator"}))
    ck1 = train(ds, ecfg, g1, seed)
    ref1 = reference_train(ds, ecfg, g1, seed)
    assert_bitwise(ck1, *ref1)

    g2 = replace(gcfg, steps=STEPS, conditioning="ensad", trainable=frozenset({"ensad"}))
    init = {**init_tensors(param_shapes(ecfg, g1), SeededRng(seed)),
            "generator": ref1[0]["generator"]}
    seed2 = derive_seed(seed, _PHASE2_SALT)
    ref2 = reference_train(ds, ecfg, g2, seed2, init_from=init)
    assert_bitwise(train(ds, ecfg, g2, seed2, init_from=init), *ref2)
    assert_bitwise(finetune_pipeline(ds, ecfg, replace(gcfg, steps=2 * STEPS), seed,
                                     phase1_steps=STEPS), *ref2)


@pytest.mark.parametrize("preset", ONE_PHASE)
def test_resume_split_at_step_7_matches_the_unsplit_run(preset, monkeypatch):
    ds = toy_dataset()
    ecfg, gcfg = preset_cfgs(preset)
    # with five steps per block, step 7 is inside the unsplit run's second block
    for block in (None, "five"):
        set_block(monkeypatch, ecfg, gcfg, block)
        whole = train(ds, ecfg, gcfg, 3)
        part = train(ds, ecfg, replace(gcfg, steps=7), 3)
        assert_same_checkpoint(train(ds, ecfg, gcfg, 3, resume=part), whole)
        assert_bitwise(whole, *reference_train(ds, ecfg, gcfg, 3, resume=part))


def checkpoint_arrays(ck):
    arrays = [a for tree in ck.params.values() for a in tree.values()]
    for comp, m in ck.adam.m.items():
        arrays += [*m.values(), *ck.adam.v[comp].values()]
    return arrays


def assert_owned(ck):
    # each tensor its own allocation, not a view into a buffer of train's
    arrays = checkpoint_arrays(ck)
    assert len(arrays) == sum(len(spec) for spec in param_shapes(
        ck.ensad_cfg, ck.gan_cfg).values()) + 2 * sum(len(m) for m in ck.adam.m.values())
    assert all(a.flags.owndata for a in arrays)
    for a, b in combinations(arrays, 2):
        assert not np.shares_memory(a, b)


@pytest.mark.parametrize("preset", ["ensad_frozen_g", "finetune_g_text"])
def test_returned_checkpoints_own_their_arrays(preset):
    ds = toy_dataset()
    ecfg, gcfg = preset_cfgs(preset, steps=6)
    part = train(ds, ecfg, replace(gcfg, steps=3), 2)
    assert_owned(part)
    resumed = train(ds, ecfg, gcfg, 2, resume=part)
    assert_owned(resumed)
    for a in checkpoint_arrays(resumed):
        for b in checkpoint_arrays(part):
            assert not np.shares_memory(a, b)


def test_diverged_checkpoint_owns_its_arrays():
    ds = toy_dataset()
    ecfg, gcfg = preset_cfgs("ensad_frozen_g", steps=50)
    gcfg = replace(gcfg, lr=1e300, trainable=frozenset(TRAINABLE_COMPONENTS))
    with pytest.raises(TrainingDiverged) as exc:
        train(ds, ecfg, gcfg, 0)
    assert exc.value.checkpoint.adam.m.keys() == set(TRAINABLE_COMPONENTS)
    assert_owned(exc.value.checkpoint)


@pytest.mark.parametrize("preset,train_all", [("ensad_frozen_g", False), ("ablate_none", True)])
def test_diverged_checkpoint_replays_the_failed_step(preset, train_all):
    # the diagnostic checkpoint holds the parameters and the stream position
    # from the start of the failed step (step 1, or 2 with every component
    # trained), so resuming it, or a checkpoint before it, fails the same way
    ds = toy_dataset()
    ecfg, gcfg = preset_cfgs(preset, steps=50)
    gcfg = replace(gcfg, lr=1e300)
    if train_all:
        gcfg = replace(gcfg, trainable=frozenset(TRAINABLE_COMPONENTS))
    with pytest.raises(TrainingDiverged) as first:
        train(ds, ecfg, gcfg, 0)
    diag = first.value.checkpoint
    part = train(ds, ecfg, replace(gcfg, steps=1), 0)
    for resume in (diag, part):
        with pytest.raises(TrainingDiverged) as again:
            train(ds, ecfg, gcfg, 0, resume=resume)
        assert again.value.step == first.value.step == diag.step
        assert_same_checkpoint(again.value.checkpoint, diag)
    ref = reference_train(ds, ecfg, replace(gcfg, steps=diag.step), 0)
    assert diag.step == 1 + train_all
    assert_bitwise(diag, *ref)
    assert diag.rng_position == init_words(ecfg, gcfg, 0) + diag.step * step_words(ecfg, gcfg)


# A run that saturated instead of going non-finite: with lr 1e300 its
# parameters reach about 1e300 after step 1, and step 2's forward overflows.
# Without the floating-point error check it trained to step 50 with losses
# near 1e301.
SATURATING_SPEC = SyntheticSpec(n_items=300, d=16, m=4, d_img=12, sigma_source=0.4,
                                sigma_trans=0.2, seed=0)


def test_saturating_run_diverges_at_its_first_overflow(tmp_path):
    ds = generate_synthetic(SATURATING_SPEC)
    ecfg = EnsAdConfig(d=16, m=4)
    gcfg = GanConfig(d=16, d_img=12, lr=1e300, steps=50, **PRESETS["lafite_setup"])
    with pytest.raises(TrainingDiverged) as first:
        train(ds, ecfg, gcfg, 1)
    assert first.value.step == 1
    assert str(first.value).endswith(" at step 1")
    path = str(tmp_path / "diag.ckpt")
    save_checkpoint(first.value.checkpoint, path)
    diag = load_checkpoint(path)
    assert_same_checkpoint(diag, train(ds, ecfg, replace(gcfg, steps=1), 1))
    with pytest.raises(TrainingDiverged) as again:
        train(ds, ecfg, gcfg, 1, resume=diag)
    assert str(again.value) == str(first.value)
    assert_same_checkpoint(again.value.checkpoint, diag)


def test_saturating_run_exits_3_from_the_cli(tmp_path, capsys):
    data, cfg = tmp_path / "corpus.jsonl", tmp_path / "cfg.json"
    save_jsonl(generate_synthetic(SATURATING_SPEC), str(data))
    cfg.write_text('{"gan": {"lr": 1e300}}')
    args = ["train", "--data", str(data), "--config", str(cfg),
            "--preset", "lafite_setup", "--seed", "1"]
    assert main([*args, "--out", str(tmp_path / "one.ckpt"), "--steps", "1"]) == 0
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path / "boom.ckpt"), "--steps", "50"]) == 3
    assert " at step 1; diagnostic checkpoint at " in capsys.readouterr().err
    assert not (tmp_path / "boom.ckpt").exists()
    assert_same_checkpoint(load_checkpoint(str(tmp_path / "boom.diverged.ckpt")),
                           load_checkpoint(str(tmp_path / "one.ckpt")))
    assert (tmp_path / "boom.csv").read_text() == (tmp_path / "one.csv").read_text()


@pytest.mark.parametrize("poison", ["loss_ensad", "loss_disc", *TRAINABLE_COMPONENTS])
def test_non_finite_step_results_diverge(monkeypatch, poison):
    # the finiteness check behind the floating-point error state: an inf
    # that is already present raises no flag, so a loss or gradient can go
    # non-finite without one
    ds = toy_dataset()
    ecfg, gcfg = preset_cfgs("ensad_frozen_g", steps=6)
    gcfg = replace(gcfg, trainable=frozenset(TRAINABLE_COMPONENTS))
    exact = gan.step_losses_and_grads
    calls = []

    def poisoned(*args):
        res = exact(*args)
        calls.append(poison)
        if len(calls) == 3:
            if poison.startswith("loss"):
                setattr(res, poison, float("nan"))
            else:
                name, g = next(iter(res.grads[poison].items()))
                res.grads[poison][name] = g = g.copy()
                g.flat[0] = np.inf
        return res

    monkeypatch.setattr(gan, "step_losses_and_grads", poisoned)
    with pytest.raises(TrainingDiverged) as exc:
        train(ds, ecfg, gcfg, 0)
    assert str(exc.value).startswith("non-finite ")
    assert str(exc.value).endswith(" at step 2")
    monkeypatch.undo()
    assert_same_checkpoint(exc.value.checkpoint, train(ds, ecfg, replace(gcfg, steps=2), 0))


def test_mutating_a_returned_checkpoint_changes_no_later_resume(tmp_path):
    ds = toy_dataset()
    ecfg, gcfg = preset_cfgs("ensad_frozen_g", steps=12)
    part = train(ds, ecfg, replace(gcfg, steps=5), 4)
    path = str(tmp_path / "part.npz")
    save_checkpoint(part, path)
    first = train(ds, ecfg, gcfg, 4, resume=part)
    want = map_tensors(np.copy, first.params), per_component(first.adam), first.rng_position
    for a in checkpoint_arrays(first):
        a[...] = np.nan
    assert_bitwise(train(ds, ecfg, gcfg, 4, resume=part), *want)
    assert_same_checkpoint(part, load_checkpoint(path))
    for a in checkpoint_arrays(part):
        a[...] = np.nan
    assert_bitwise(train(ds, ecfg, gcfg, 4, resume=load_checkpoint(path)), *want)


def test_resume_validates_the_adam_state():
    ds = toy_dataset()
    ecfg, gcfg = preset_cfgs("ensad_frozen_g", steps=6)
    part = train(ds, ecfg, replace(gcfg, steps=3), 2)
    st = part.adam
    only_ensad = AdamState({"ensad": st.m["ensad"]}, {"ensad": st.v["ensad"]}, st.t)
    with pytest.raises(ValueError, match="adam.discriminator"):
        train(ds, ecfg, gcfg, 2, resume=replace(part, adam=only_ensad))
    v = st.v["ensad"]
    bad = AdamState(st.m, {**st.v, "ensad": {**v, "wq": -v["wq"] - 1.0}}, st.t)
    with pytest.raises(ValueError, match="adam.ensad.*negative"):
        train(ds, ecfg, gcfg, 2, resume=replace(part, adam=bad))
